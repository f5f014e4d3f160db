import json
import string
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge import metrics
from kbforge.embeddings import EMBED_DIM, EmbeddingCache, TrigramHashEmbedder, normalise_rows
from kbforge.metrics import (
    METRIC_HAUSDORFF,
    METRIC_LEXICAL,
    METRIC_MATCH,
    bucketed_report,
    build_stability_report,
    category_elements,
    hausdorff_similarity,
    jaccard,
    pairwise_report,
    semantic_match_pct,
    write_report,
    yield_counts,
)
from kbforge.model import KnowledgeBase, StructuralCategory, TermKind, make_triple
from kbforge.popularity import BucketAssignment

import oracles
from conftest import build_fixture_kb, synthetic_kb


def field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


@dataclass
class FakeRun:
    run_id: str
    kb: KnowledgeBase


def _fixture_run(run_id="r0"):
    return FakeRun(run_id, build_fixture_kb())


def _assignments(*buckets_per_run):
    """One ``BucketAssignment`` per run, from each run's bucket -> labels map."""
    return [BucketAssignment(buckets=buckets) for buckets in buckets_per_run]


def _kb_from(rows):
    return KnowledgeBase(make_triple(*row) for row in rows)


def _row(sets, category=StructuralCategory.NAMED_ENTITIES):
    """The report row of runs whose ``category`` elements are ``sets``."""
    runs = [FakeRun(f"r{i}", KnowledgeBase()) for i in range(len(sets))]
    return pairwise_report(runs, category, element_sets=sets).row


def _sets_of_sizes(*sizes):
    return [{f"e{j}" for j in range(size)} for size in sizes]


class TestCoefficientOfVariation:
    def test_worked_example_is_exact(self):
        assert _row(_sets_of_sizes(2, 3)).yield_cv == 0.2

    def test_constant_series(self):
        assert _row(_sets_of_sizes(5, 5, 5)).yield_cv == 0.0

    def test_known_value(self):
        assert _row(_sets_of_sizes(1, 2, 3, 4)).yield_cv == pytest.approx(
            0.4472135954999579, abs=1e-15
        )

    def test_rejects_empty_and_zero_mean(self):
        with pytest.raises(ValueError):
            _row([])
        row = _row(_sets_of_sizes(0, 0))
        assert row.yield_cv is None
        assert "zero_mean_yield" in row.flags


class TestJaccard:
    def test_worked_example_is_exact(self):
        a = {"Hammurabi", "Marduk Temple", "Nebuchadnezzar"}
        b = {"Hammurabi", "Temple of Marduk"}
        assert jaccard(a, b) == 0.25
        assert _row([a, b]).avg_jaccard == 0.25

    def test_identity_and_disjoint(self):
        assert jaccard({"x", "y"}, {"x", "y"}) == 1.0
        assert jaccard({"x"}, {"y"}) == 0.0

    def test_empty_conventions(self):
        assert jaccard(set(), set()) == 1.0
        assert jaccard({"x"}, set()) == 0.0

    def test_average_over_three_sets(self):
        assert _row([{"a"}, {"b"}, {"a", "b"}]).avg_jaccard == pytest.approx(1 / 3)

    def test_needs_two_sets(self):
        with pytest.raises(ValueError):
            _row([{"a"}])

    @given(
        st.sets(st.text(string.ascii_lowercase, min_size=1, max_size=4), max_size=8),
        st.sets(st.text(string.ascii_lowercase, min_size=1, max_size=4), max_size=8),
    )
    def test_bounded_and_symmetric(self, a, b):
        value = jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(b, a)
        assert jaccard(a, a) == 1.0


def _embed(labels, dim=48):
    return TrigramHashEmbedder(dim=dim).embed(sorted(labels))


class TestHausdorffSimilarity:
    def test_identical_sets_score_exactly_one(self):
        rows = _embed({"Hammurabi", "Marduk", "Esagila"})
        assert hausdorff_similarity(rows, rows) == 1.0

    def test_orthogonal_singletons(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert hausdorff_similarity(a, b) == pytest.approx(0.0)

    def test_unclamped_below_zero(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[-1.0, 0.0]])
        assert hausdorff_similarity(a, b) == pytest.approx(-1.0)

    def test_symmetry(self):
        a = _embed({"alpha", "beta"})
        b = _embed({"gamma"})
        assert hausdorff_similarity(a, b) == pytest.approx(
            hausdorff_similarity(b, a), abs=1e-15
        )

    def test_rejects_dim_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            hausdorff_similarity(np.ones((1, 3)), np.ones((1, 4)))
        with pytest.raises(ValueError):
            hausdorff_similarity(np.ones((0, 3)), np.ones((1, 3)))


class TestSemanticMatchPct:
    def test_three_versus_two_one_hot(self):
        a = np.eye(3)
        b = np.eye(3)[:2]
        result = semantic_match_pct(a, b, tau=0.95)
        assert result.a_to_b == pytest.approx(200 / 3)
        assert result.b_to_a == 100.0
        assert result.average == pytest.approx(83.33333333333333)

    def test_identical_sets_hit_four_nines(self):
        rows = _embed({"Hammurabi", "Marduk", "Esagila"})
        result = semantic_match_pct(rows, rows)
        assert result == (100.0, 100.0, 100.0)

    def test_tau_validation(self):
        rows = _embed({"a"})
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                semantic_match_pct(rows, rows, tau=bad)
        assert semantic_match_pct(rows, rows, tau=1.0).average == 100.0

    @given(
        st.sets(st.text(string.ascii_lowercase, min_size=2, max_size=6), min_size=1, max_size=5),
        st.sets(st.text(string.ascii_lowercase, min_size=2, max_size=6), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_tighter_tau_never_matches_more(self, a_labels, b_labels):
        a = _embed(a_labels, dim=32)
        b = _embed(b_labels, dim=32)
        loose = semantic_match_pct(a, b, tau=0.5)
        tight = semantic_match_pct(a, b, tau=0.9)
        assert tight.a_to_b <= loose.a_to_b
        assert tight.b_to_a <= loose.b_to_a
        assert tight.average <= loose.average


class TestAgainstBruteForceOracle:
    def test_random_pairs_match_reference(self):
        rng = np.random.default_rng(123)
        pool = [
            "".join(rng.choice(list(string.ascii_lowercase), size=rng.integers(3, 10)))
            for _ in range(14)
        ]
        embedder = TrigramHashEmbedder(dim=48)
        for trial in range(40):
            a_labels = sorted(rng.choice(pool, size=rng.integers(1, 9), replace=False))
            b_labels = sorted(rng.choice(pool, size=rng.integers(1, 9), replace=False))
            a = embedder.embed(a_labels)
            b = embedder.embed(b_labels)

            got = hausdorff_similarity(a, b)
            want = oracles.hausdorff_similarity(a.tolist(), b.tolist())
            assert got == pytest.approx(want, abs=1e-12), (trial, a_labels, b_labels)

            got_match = semantic_match_pct(a, b, tau=0.95)
            want_match = oracles.semantic_match_pct(a.tolist(), b.tolist(), tau=0.95)
            assert got_match.a_to_b == pytest.approx(want_match[0], abs=1e-12)
            assert got_match.b_to_a == pytest.approx(want_match[1], abs=1e-12)
            assert got_match.average == pytest.approx(want_match[2], abs=1e-12)


def _kernel_cases(rng):
    """Seeded (A, B) pairs covering the cases the blocked kernel special-cases."""
    dim = 6
    pool = rng.normal(size=(30, dim))
    pool[3] = 0.0  # a zero row
    cases = []
    for _ in range(30):
        a = pool[rng.choice(30, size=rng.integers(1, 14), replace=False)]
        b = pool[rng.choice(30, size=rng.integers(1, 14), replace=False)]
        cases.append((a, b))
    shared = pool[:9]
    cases.append((shared, shared[::-1].copy()))  # all rows shared
    cases.append((pool[:1], pool[1:12]))  # single row against many
    cases.append((pool[4:16], pool[4:5]))  # many against a single shared row
    cases.append((np.zeros((2, dim)), pool[:5]))  # zero rows, one of them shared
    # The same row twice in A, as two distinct labels with one vector would be.
    cases.append((np.vstack([pool[7], pool[7], pool[8]]), pool[5:8]))
    return cases


class TestBlockedKernel:
    @pytest.mark.parametrize("block_rows", [1, 3, 512])
    def test_matches_oracle_across_block_boundaries(self, monkeypatch, block_rows):
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", block_rows)
        for trial, (a, b) in enumerate(_kernel_cases(np.random.default_rng(7))):
            best_ab, best_ba = metrics._best_matches(a, b)
            want_ab, want_ba = oracles.best_matches(a.tolist(), b.tolist())
            np.testing.assert_allclose(best_ab, want_ab, rtol=0, atol=1e-12, err_msg=str(trial))
            np.testing.assert_allclose(best_ba, want_ba, rtol=0, atol=1e-12, err_msg=str(trial))
            b_rows = {row.tobytes() for row in b}
            a_rows = {row.tobytes() for row in a}
            assert all(best_ab[i] == 1.0 for i, row in enumerate(a) if row.tobytes() in b_rows)
            assert all(best_ba[j] == 1.0 for j, row in enumerate(b) if row.tobytes() in a_rows)

            got = hausdorff_similarity(a, b)
            assert got == pytest.approx(oracles.hausdorff_similarity(a.tolist(), b.tolist()), abs=1e-12)
            got_match = semantic_match_pct(a, b, tau=0.9)
            want_match = oracles.semantic_match_pct(a.tolist(), b.tolist(), tau=0.9)
            assert tuple(got_match) == pytest.approx(want_match, abs=1e-12)

    def test_all_shared_sets_skip_the_product(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            metrics, "pairwise_cosine_similarity", lambda a, b: calls.append((a, b))
        )
        rows = np.random.default_rng(1).normal(size=(5, 4))
        assert hausdorff_similarity(rows, rows[::-1].copy()) == 1.0
        assert calls == []

    def test_products_stay_within_a_block(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", 4)
        shapes = []
        product = metrics.pairwise_cosine_similarity

        def spy(a, b):
            shapes.append((a.shape[0], b.shape[0]))
            return product(a, b)

        monkeypatch.setattr(metrics, "pairwise_cosine_similarity", spy)
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 4))
        b = np.vstack([a[:6], rng.normal(size=(3, 4))])
        metrics._best_matches(a, b)
        # The six rows held by both sets need no product; the other seven of
        # the thirteen distinct rows go against all thirteen, four at a time.
        assert shapes == [(4, 13), (3, 13)]
        assert all(rows <= metrics._BLOCK_ROWS for rows, _ in shapes)


def _random_table(rng, n, dim):
    """Rows with zero and duplicate rows, three runs and each run's bucket slices."""
    rows = rng.normal(size=(n, dim))
    rows[rng.random(n) < 0.05] = 0.0
    rows[1] = rows[0]
    runs = [np.flatnonzero(rng.random(n) < 0.8) for _ in range(3)]
    runs[0] = np.union1d(runs[0], [0, 1])
    slices = [
        np.sort(rng.choice(run, size=rng.integers(0, run.shape[0] // 2 + 1), replace=False))
        for run in runs
        for _ in range(3)
    ]
    return rows, runs + slices + [np.arange(0)]


class TestPatternKernel:
    @pytest.mark.parametrize("block_rows", [1, 3, 512])
    def test_equals_the_per_set_gather_bit_for_bit(self, monkeypatch, block_rows):
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(17)
        for n, dim in [(13, 6), (37, 6), (61, 16), (203, 384), (1030, 24)]:
            rows, sets = _random_table(rng, n, dim)
            held = np.zeros((len(sets), n), dtype=bool)
            for s, members in enumerate(sets):
                held[s, members] = True
            assert np.unique(held.T, axis=0).shape[0] > 7
            want = oracles.best_into_gathered(rows, sets, block_rows)
            assert np.array_equal(metrics._best_into(normalise_rows(rows.copy()), sets), want), (n, dim)

    @pytest.mark.parametrize("block_rows", [1, 3, 512])
    def test_all_held_and_empty_sets(self, monkeypatch, block_rows):
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", block_rows)
        rows = np.random.default_rng(18).normal(size=(9, 5))
        rows[4] = 0.0
        everything, nothing = np.arange(9), np.arange(0)
        for sets in ([everything, everything], [everything, np.arange(3, 9), nothing], [nothing, nothing]):
            want = oracles.best_into_gathered(rows, sets, block_rows)
            assert np.array_equal(metrics._best_into(normalise_rows(rows.copy()), sets), want)


def _distinct_cases(rng):
    """Row matrices for ``_distinct``, named for what they cover."""
    pool = rng.normal(size=(40, 6))
    signed_zero = np.zeros((5, 3))
    signed_zero[1, 0] = signed_zero[3, 0] = -0.0
    signed_zero[4, 2] = -0.0
    return {
        "duplicates": pool[rng.integers(0, 40, size=300)],
        "no-rows": np.zeros((0, 6)),
        "one-row": pool[:1],
        "all-equal": np.repeat(pool[5:6], 9, axis=0),
        "zero-vectors": np.zeros((4, 6)),
        "signed-zeros": signed_zero,
        "distinct": pool[::-1],
        "wide": np.repeat(rng.normal(size=(70, 384)), 4, axis=0)[rng.permutation(280)],
    }


class TestDistinct:
    @pytest.mark.parametrize("block_rows", [1, 3, 256])
    @pytest.mark.parametrize("case", list(_distinct_cases(np.random.default_rng(0))))
    def test_equals_np_unique_bit_for_bit(self, monkeypatch, block_rows, case):
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", block_rows)
        vectors = _distinct_cases(np.random.default_rng(0))[case]
        before = vectors.tobytes()
        rows, first, inverse = metrics._distinct(vectors)
        want_rows, want_first, want_inverse = oracles.distinct_rows(vectors)
        assert rows.shape == want_rows.shape and rows.tobytes() == want_rows.tobytes()
        assert first.dtype == want_first.dtype and np.array_equal(first, want_first)
        assert inverse.dtype == want_inverse.dtype and np.array_equal(inverse, want_inverse)
        assert vectors.tobytes() == before and not np.shares_memory(rows, vectors)


class _RecordingProvider:
    """A trigram embedder that keeps a copy of every row it hands out."""

    def __init__(self):
        self.inner = TrigramHashEmbedder()
        self.provider_id = self.inner.provider_id
        self.returned: dict[str, bytes] = {}

    def embed(self, texts):
        rows = self.inner.embed(texts)
        self.returned.update(zip(texts, (row.tobytes() for row in rows)))
        return rows


class TestCompareMemory:
    def _runs(self):
        # Three runs of 1,000 random facts: about 3,000 distinct triple labels.
        return [FakeRun(f"r{i}", synthetic_kb(1000, seed=5 + i)) for i in range(3)]

    def test_triples_table_peaks_under_three_matrices_and_a_block(self):
        runs = self._runs()
        labels = set().union(*(category_elements(r, StructuralCategory.TRIPLES) for r in runs))
        matrix = len(labels) * EMBED_DIM * 8
        block = metrics._BLOCK_ROWS * len(labels) * 8
        tracemalloc.start()
        try:
            pairwise_report(runs, StructuralCategory.TRIPLES, cache=EmbeddingCache())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The cache keeps the provider's rows; the table adds one normalised
        # copy of them and one block's product.
        assert len(labels) > 2900
        assert peak < 3 * matrix + block, f"{peak / matrix:.2f} matrices"

    def test_report_leaves_the_providers_rows_unwritten(self):
        provider = _RecordingProvider()
        cache = EmbeddingCache()
        build_stability_report(self._runs(), list(StructuralCategory), provider=provider, cache=cache)
        assert len(provider.returned) > 3000
        for text, row in provider.returned.items():
            assert cache.get(provider.provider_id, text).tobytes() == row, text


class TestYieldCounts:
    def test_fixture_kb(self):
        counts = yield_counts(_fixture_run())
        assert counts[StructuralCategory.NAMED_ENTITIES] == 10
        assert counts[StructuralCategory.LITERALS] == 3
        assert counts[StructuralCategory.PREDICATES] == 8
        assert counts[StructuralCategory.CLASSES] == 5
        assert counts[StructuralCategory.TRIPLES] == 12


class TestPairwiseReport:
    @given(
        st.lists(
            st.sets(st.sampled_from(["Ur", "Uruk", "Ur III", "Babylon", "Kish", "Nippur", "Eridu"]), max_size=5),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matrices_are_symmetric_with_the_diagonal_convention(self, sets):
        runs = [FakeRun(f"r{i}", KnowledgeBase()) for i in range(len(sets))]
        comparison = pairwise_report(runs, StructuralCategory.LITERALS, element_sets=sets)
        diagonal = {METRIC_LEXICAL: 1.0, METRIC_HAUSDORFF: 1.0, METRIC_MATCH: 100.0}
        assert sorted(comparison.matrices) == sorted(diagonal)
        n = len(sets)
        for metric_id, matrix in comparison.matrices.items():
            assert (matrix.metric_id, matrix.category) == (metric_id, StructuralCategory.LITERALS)
            assert matrix.run_ids == [r.run_id for r in runs]
            assert [len(row) for row in matrix.values] == [n] * n
            assert matrix.values == [list(column) for column in zip(*matrix.values)]
            assert all(matrix.values[i][i] == diagonal[metric_id] for i in range(n))
        lexical = comparison.matrices[METRIC_LEXICAL].values
        for i in range(n):
            for j in range(i + 1, n):
                union = sets[i] | sets[j]
                assert lexical[i][j] == (len(sets[i] & sets[j]) / len(union) if union else 1.0)

    def test_identical_runs_hit_ceilings(self):
        runs = [_fixture_run(f"r{i}") for i in range(3)]
        comparison = pairwise_report(runs, StructuralCategory.NAMED_ENTITIES)
        row = comparison.row
        assert row.avg_jaccard == 1.0
        assert row.avg_hausdorff == 1.0
        assert row.avg_match_pct == 100.0
        assert row.yield_cv == 0.0
        assert row.yields == [10, 10, 10]
        assert row.flags == []

        for matrix in comparison.matrices.values():
            assert matrix.values == [list(column) for column in zip(*matrix.values)]
        assert comparison.matrices[METRIC_LEXICAL].values[0][0] == 1.0
        assert comparison.matrices[METRIC_HAUSDORFF].values[1][1] == 1.0
        assert comparison.matrices[METRIC_MATCH].values[2][2] == 100.0

    def test_divergent_runs_use_hand_checked_jaccard(self):
        a = FakeRun(
            "a",
            _kb_from(
                [
                    ("X", "knows", "Y", TermKind.NAMED_ENTITY, 0),
                    ("X", "knows", "Z", TermKind.NAMED_ENTITY, 0),
                ]
            ),
        )
        b = FakeRun(
            "b",
            _kb_from(
                [
                    ("X", "knows", "Y", TermKind.NAMED_ENTITY, 0),
                    ("X", "knows", "W", TermKind.NAMED_ENTITY, 0),
                ]
            ),
        )
        comparison = pairwise_report([a, b], StructuralCategory.NAMED_ENTITIES)
        # Entity sets {X, Y, Z} and {X, Y, W}: overlap 2 of 4.
        assert comparison.row.avg_jaccard == 0.5

    def test_category_empty_in_both_runs(self):
        rows = [("X", "knows", "Y", TermKind.NAMED_ENTITY, 0)]
        runs = [FakeRun("a", _kb_from(rows)), FakeRun("b", _kb_from(rows))]
        comparison = pairwise_report(runs, StructuralCategory.CLASSES)
        row = comparison.row
        assert row.avg_jaccard == 1.0
        assert row.avg_hausdorff == 1.0
        assert row.avg_match_pct == 100.0
        assert row.yield_cv is None
        assert "empty_set_convention" in row.flags
        assert "zero_mean_yield" in row.flags

    def test_category_empty_in_one_run(self):
        with_class = [("X", "instanceOf", "Hero", TermKind.NAMED_ENTITY, 0)]
        without = [("X", "knows", "Y", TermKind.NAMED_ENTITY, 0)]
        runs = [FakeRun("a", _kb_from(with_class)), FakeRun("b", _kb_from(without))]
        comparison = pairwise_report(runs, StructuralCategory.CLASSES)
        row = comparison.row
        assert row.avg_jaccard == 0.0
        assert row.avg_hausdorff == 0.0
        assert row.avg_match_pct == 0.0
        assert "empty_set_convention" in row.flags

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            pairwise_report([_fixture_run()], StructuralCategory.NAMED_ENTITIES)

    @pytest.mark.parametrize("tau", [7.0, 0.0, -0.5])
    def test_tau_is_refused_even_when_every_cell_is_empty(self, tau):
        # No cell reaches a match %: both runs' classes are empty.
        rows = [("X", "knows", "Y", TermKind.NAMED_ENTITY, 0)]
        runs = [FakeRun("a", _kb_from(rows)), FakeRun("b", _kb_from(rows))]
        with pytest.raises(ValueError, match="tau"):
            pairwise_report(runs, StructuralCategory.CLASSES, tau=tau)


def _two_identical_runs():
    rows = [
        ("A", "rel", "B", TermKind.NAMED_ENTITY, 0),
        ("C", "rel", "D", TermKind.NAMED_ENTITY, 0),
    ]
    return [FakeRun("r1", _kb_from(rows)), FakeRun("r2", _kb_from(rows))]


class TestBucketedReport:
    def test_bucket_versus_full_uses_ordered_pairs(self):
        runs = _two_identical_runs()
        assignments = _assignments({"Q4": {"A"}}, {"Q4": {"A"}})
        rows = bucketed_report(runs, assignments)
        assert len(rows) == 1
        row = rows[0]
        assert row.bucket == "Q4"
        assert row.pair_count == 2
        # {A} against the full entity set {A, B, C, D} of the other run:
        # Jaccard 1/4; match pct averages 100% (bucket side) with 25%.
        assert row.avg_jaccard == pytest.approx(0.25)
        assert row.avg_match_pct == pytest.approx(62.5)
        assert row.flags == []

    def test_empty_bucket_on_one_run_is_skipped(self):
        runs = _two_identical_runs()
        assignments = _assignments({"Q4": {"A"}}, {"Q4": set()})
        rows = bucketed_report(runs, assignments)
        row = rows[0]
        assert row.pair_count == 1
        assert row.flags == ["empty_bucket_skipped:r2"]

    def test_bucket_empty_everywhere_gets_null_row(self):
        runs = _two_identical_runs()
        assignments = _assignments({"Q1": set()}, {"Q1": set()})
        rows = bucketed_report(runs, assignments)
        row = rows[0]
        assert row.pair_count == 0
        assert row.avg_jaccard is None
        assert row.avg_hausdorff is None
        assert row.avg_match_pct is None
        assert "empty_for_all_runs" in row.flags

    def test_foreign_labels_rejected(self):
        runs = _two_identical_runs()
        assignments = _assignments({"Q4": {"Zeus"}}, {"Q4": {"A"}})
        with pytest.raises(ValueError):
            bucketed_report(runs, assignments)

    def test_assignment_count_must_match(self):
        runs = _two_identical_runs()
        with pytest.raises(ValueError):
            bucketed_report(runs, _assignments({}))

    @pytest.mark.parametrize("buckets", [({"Q1": set()}, {"Q1": set()}), ({"Q4": {"A"}}, {"Q4": {"A"}})])
    def test_tau_is_refused_with_or_without_cells(self, buckets):
        with pytest.raises(ValueError, match="tau"):
            bucketed_report(_two_identical_runs(), _assignments(*buckets), tau=1.5)

    @pytest.mark.parametrize("category", [c for c in StructuralCategory if c is not StructuralCategory.NAMED_ENTITIES])
    def test_buckets_split_only_named_entities(self, category):
        assignments = _assignments({"Q4": {"A"}}, {"Q4": {"A"}})
        with pytest.raises(ValueError, match="named entities only"):
            pairwise_report(_two_identical_runs(), category, assignments=assignments)

    @pytest.mark.parametrize("count", [1, 3])
    def test_pairwise_report_wants_one_assignment_per_run(self, count):
        assignments = _assignments(*({"Q4": {"A"}} for _ in range(count)))
        with pytest.raises(ValueError, match="one bucket assignment per run"):
            pairwise_report(_two_identical_runs(), StructuralCategory.NAMED_ENTITIES, assignments=assignments)


class _TableProvider:
    """Seeded random vectors per label; "twin-a" and "twin-b" share one vector."""

    provider_id = "table"

    def __init__(self, labels, seed=5, dim=6):
        rng = np.random.default_rng(seed)
        self.vectors = {label: rng.normal(size=dim) for label in sorted(labels)}
        self.vectors["twin-b"] = self.vectors["twin-a"]

    def embed(self, texts):
        return np.array([self.vectors[text] for text in texts])


def _oracle_cell(provider, a, b, tau=metrics.DEFAULT_TAU):
    rows_a = [provider.vectors[label].tolist() for label in sorted(a)]
    rows_b = [provider.vectors[label].tolist() for label in sorted(b)]
    return (
        len(a & b) / len(a | b),
        oracles.hausdorff_similarity(rows_a, rows_b),
        oracles.semantic_match_pct(rows_a, rows_b, tau)[2],
    )


def _runs_from_sets(entity_sets):
    return [
        FakeRun(f"r{i}", _kb_from([(label, "is", label, TermKind.NAMED_ENTITY, 0) for label in sorted(labels)]))
        for i, labels in enumerate(entity_sets)
    ]


def _count_tables(monkeypatch):
    tables = []
    best_into = metrics._best_into
    monkeypatch.setattr(metrics, "_best_into", lambda rows, sets: tables.append(len(sets)) or best_into(rows, sets))
    return tables


class TestTableAgainstOracle:
    POOL = [f"e{k:02d}" for k in range(16)] + ["twin-a", "twin-b"]

    def _entity_sets(self, n_runs, seed):
        rng = np.random.default_rng(seed)
        sets = [set(map(str, rng.choice(self.POOL, size=rng.integers(5, 12), replace=False))) for _ in range(n_runs)]
        sets[0] |= {"twin-a"}
        sets[1] |= {"twin-b"}
        return sets

    def test_every_pair_cell_equals_the_oracle(self, monkeypatch):
        entity_sets = self._entity_sets(4, seed=11)
        provider = _TableProvider(self.POOL)
        tables = _count_tables(monkeypatch)
        comparison = pairwise_report(
            _runs_from_sets(entity_sets), StructuralCategory.NAMED_ENTITIES, provider=provider
        )
        assert tables == [4] and comparison.row.yields == [len(s) for s in entity_sets]
        matrices = [comparison.matrices[m].values for m in (METRIC_LEXICAL, METRIC_HAUSDORFF, METRIC_MATCH)]
        for i in range(4):
            for j in range(4):
                if i != j:
                    want = _oracle_cell(provider, entity_sets[i], entity_sets[j])
                    got = [matrix[i][j] for matrix in matrices]
                    assert got == pytest.approx(want, rel=0, abs=1e-12), (i, j)

    @pytest.mark.parametrize("seed", [11, 13])
    def test_row_averages_are_the_row_major_upper_triangle_mean(self, seed):
        n = 4
        comparison = pairwise_report(
            _runs_from_sets(self._entity_sets(n, seed)), StructuralCategory.NAMED_ENTITIES,
            provider=_TableProvider(self.POOL),
        )
        row = comparison.row
        for metric_id, average in (
            (METRIC_LEXICAL, row.avg_jaccard), (METRIC_HAUSDORFF, row.avg_hausdorff), (METRIC_MATCH, row.avg_match_pct)
        ):
            values = comparison.matrices[metric_id].values
            cells = [values[i][j] for i in range(n) for j in range(i + 1, n)]
            assert average.hex() == (sum(cells) / len(cells)).hex(), metric_id

    def test_identical_runs_need_no_product(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "pairwise_cosine_similarity", lambda a, b: calls.append((a, b)))
        runs = _runs_from_sets([set(self.POOL)] * 4)
        row = pairwise_report(runs, StructuralCategory.NAMED_ENTITIES, provider=_TableProvider(self.POOL)).row
        assert (row.avg_jaccard, row.avg_hausdorff, row.avg_match_pct) == (1.0, 1.0, 100.0)
        assert calls == []

    def test_bucket_rows_average_the_oracle_cells(self, monkeypatch):
        entity_sets = self._entity_sets(3, seed=12)
        provider = _TableProvider(self.POOL)
        ordered = [sorted(s) for s in entity_sets]
        assignments = [
            {"Q1": set(ordered[0][:3]) | {"twin-a"}, "Q4": set(ordered[0][3:6])},
            {"Q1": set(ordered[1][:2]) | {"twin-b"}, "Q4": set()},
            {"Q1": set(ordered[2][1:4]), "Q4": set(ordered[2][:1])},
        ]
        tables = _count_tables(monkeypatch)
        rows = bucketed_report(_runs_from_sets(entity_sets), _assignments(*assignments), provider=provider)
        assert tables == [3 + 5]
        for row in rows:
            cells = [
                _oracle_cell(provider, per_run[row.bucket], entity_sets[j])
                for i, per_run in enumerate(assignments)
                if per_run[row.bucket]
                for j in range(3)
                if j != i
            ]
            want = [sum(column) / len(cells) for column in zip(*cells)]
            assert row.pair_count == len(cells)
            got = [row.avg_jaccard, row.avg_hausdorff, row.avg_match_pct]
            assert got == pytest.approx(want, rel=0, abs=1e-12), row.bucket
        assert [row.flags for row in rows] == [[], ["empty_bucket_skipped:r1"]]


class _CountingProvider:
    def __init__(self):
        self.inner = TrigramHashEmbedder(dim=32)
        self.provider_id = self.inner.provider_id
        self.seen: list[str] = []

    def embed(self, texts):
        self.seen.extend(texts)
        return self.inner.embed(texts)


class TestOneEmbeddingPerLabel:
    def _runs(self):
        extra = [
            [],
            [("Ur", "instanceOf", "City", TermKind.NAMED_ENTITY, 1)],
            [
                ("Ur", "locatedIn", "Sumer", TermKind.NAMED_ENTITY, 1),
                ("Ur", "founded", "3800 BC", TermKind.LITERAL, 1),
            ],
        ]
        runs = []
        for i, rows in enumerate(extra):
            kb = KnowledgeBase([*build_fixture_kb().triples, *(make_triple(*row) for row in rows)])
            runs.append(FakeRun(f"r{i}", kb))
        return runs

    def test_each_label_reaches_the_provider_once_per_report(self, monkeypatch):
        derive_calls = []
        derive = metrics.derive_categories

        def counting_derive(kb):
            derive_calls.append(kb)
            return derive(kb)

        monkeypatch.setattr(metrics, "derive_categories", counting_derive)
        runs = self._runs()
        provider = _CountingProvider()
        categories = list(StructuralCategory)
        assignments = _assignments(*({"Q4": {"Hammurabi", "Babylon"}, "Q1": {"Marduk"}} for _ in runs))
        report = build_stability_report(runs, categories, provider=provider, assignments=assignments)

        assert len(derive_calls) == len(runs)
        assert len(provider.seen) == len(set(provider.seen))
        per_category = [derive(r.kb) for r in runs]
        assert set(provider.seen) == set().union(*(c[cat] for c in per_category for cat in categories))
        assert len(report.rows) == len(categories) and len(report.bucket_rows) == 2

        # The same report as one pairwise_report call per category.
        for row, category in zip(report.rows, categories):
            alone = pairwise_report(runs, category, provider=TrigramHashEmbedder(dim=32)).row
            assert row == alone

    def test_buckets_join_the_named_entities_table(self, monkeypatch):
        runs = self._runs()
        assignments = _assignments(*({"Q4": {"Hammurabi", "Babylon"}, "Q1": {"Marduk"}, "Q2": set()} for _ in runs))
        tables = _count_tables(monkeypatch)
        report = build_stability_report(runs, list(StructuralCategory), assignments=assignments)
        # One table per category; the named entities' holds the runs and their 2 non-empty slices each.
        assert tables == [len(runs) + 2 * len(runs), *[len(runs)] * 4]
        assert [row.pair_count for row in report.bucket_rows] == [6, 6, 0]

    def test_buckets_without_a_named_entities_row(self):
        runs = self._runs()
        assignments = _assignments(*({"Q4": {"Hammurabi", "Babylon"}, "Q1": {"Marduk"}} for _ in runs))
        alone = build_stability_report(runs, [StructuralCategory.PREDICATES], assignments=assignments)
        both = build_stability_report(
            runs, [StructuralCategory.NAMED_ENTITIES, StructuralCategory.PREDICATES], assignments=assignments
        )
        assert [row.category for row in alone.rows] == [StructuralCategory.PREDICATES]
        assert len(alone.matrices) == 3
        assert {m.category for m in alone.matrices} == {StructuralCategory.PREDICATES}
        assert alone.bucket_rows and alone.bucket_rows == both.bucket_rows

    def test_distinct_labels_with_one_vector_score_as_verbatim(self):
        class OneVector:
            provider_id = "one-vector"

            def embed(self, texts):
                return np.ones((len(texts), 4))

        runs = [
            FakeRun("a", _kb_from([("X", "knows", "Y", TermKind.NAMED_ENTITY, 0)])),
            FakeRun("b", _kb_from([("P", "knows", "Q", TermKind.NAMED_ENTITY, 0)])),
        ]
        row = pairwise_report(runs, StructuralCategory.NAMED_ENTITIES, provider=OneVector()).row
        assert row.avg_jaccard == 0.0
        assert row.avg_hausdorff == 1.0
        assert row.avg_match_pct == 100.0


class TestReportSerialization:
    def test_write_report_files(self, tmp_path):
        runs = [_fixture_run(f"r{i}") for i in range(2)]
        report = build_stability_report(
            runs,
            [StructuralCategory.NAMED_ENTITIES, StructuralCategory.CLASSES],
            suite_id="demo",
            assignments=_assignments({"Q4": {"Hammurabi"}}, {"Q4": {"Hammurabi"}}),
        )
        json_path, csv_path = write_report(report, tmp_path)

        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["suite_id"] == "demo"
        assert payload["tau"] == 0.95
        assert payload["provider_id"].startswith("trigram-")
        assert {row["category"] for row in payload["rows"]} == {"named_entities", "classes"}
        assert len(payload["matrices"]) == 6
        assert payload["bucket_rows"][0]["bucket"] == "Q4"

        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("scope,name,runs,")
        assert any(line.startswith("category,named_entities,2,") for line in lines)
        assert any(line.startswith("bucket,Q4,2,") for line in lines)

    def test_csv_bytes_with_null_cells(self, tmp_path):
        # Classes are empty in both runs (zero mean yield, so no yield_cv),
        # and bucket Q1 is empty in every run (no averages).
        class FixedVectors:
            provider_id = "fixed"
            vectors = {"X": [1.0, 0.0], "Y": [0.0, 1.0], "Z": [0.6, 0.8]}

            def embed(self, texts):
                return np.array([self.vectors[t] for t in texts])

        runs = [
            FakeRun("a", _kb_from([("X", "knows", "Y", TermKind.NAMED_ENTITY, 0)])),
            FakeRun("b", _kb_from([("X", "knows", "Y", TermKind.NAMED_ENTITY, 0),
                                   ("X", "knows", "Z", TermKind.NAMED_ENTITY, 0)])),
        ]
        report = build_stability_report(
            runs,
            [StructuralCategory.NAMED_ENTITIES, StructuralCategory.CLASSES],
            tau=0.7,
            provider=FixedVectors(),
            assignments=_assignments({"Q4": {"X"}, "Q1": set()}, {"Q4": {"X", "Z"}, "Q1": set()}),
        )
        _, csv_path = write_report(report, tmp_path)
        assert csv_path.read_bytes() == (
            b"scope,name,runs,yield_mean,yield_std,yield_cv,avg_jaccard,avg_hausdorff,avg_match_pct,flags\r\n"
            b"category,named_entities,2,2.5,0.5,0.2,0.6666666666666666,0.9666666666666667,100.0,\r\n"
            b"category,classes,2,0.0,0.0,,1.0,1.0,100.0,empty_set_convention;zero_mean_yield\r\n"
            b"bucket,Q4,2,,,,0.3333333333333333,0.8333333333333334,83.33333333333334,\r\n"
            b"bucket,Q1,0,,,,,,,empty_bucket_skipped:a;empty_bucket_skipped:b;empty_for_all_runs\r\n"
        )

    def test_a_failed_csv_write_keeps_the_previous_report(self, tmp_path, request):
        report = build_stability_report(
            [_fixture_run(f"r{i}") for i in range(2)],
            [StructuralCategory.NAMED_ENTITIES, StructuralCategory.CLASSES, StructuralCategory.LITERALS],
        )
        _, csv_path = write_report(report, tmp_path)
        before = csv_path.read_bytes()
        request.getfixturevalue("failing_csv_writer")
        with pytest.raises(OSError, match="disk full"):
            write_report(report, tmp_path)
        assert csv_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json"]

    def test_json_keys_are_the_dataclass_fields(self, tmp_path):
        runs = [
            FakeRun("a", _kb_from([("X", "knows", "Y", TermKind.NAMED_ENTITY, 0)])),
            FakeRun("b", _kb_from([])),
        ]
        report = build_stability_report(
            runs,
            [StructuralCategory.NAMED_ENTITIES, StructuralCategory.LITERALS],
            assignments=_assignments({"Q4": {"X"}, "Q1": set()}, {"Q4": set(), "Q1": set()}),
        )
        json_path, _ = write_report(report, tmp_path)
        payload = json.loads(json_path.read_text(encoding="utf-8"))

        assert set(payload) == field_names(metrics.StabilityReport)
        for key, cls in (("rows", metrics.CategoryRow), ("matrices", metrics.PairwiseMatrix),
                         ("bucket_rows", metrics.BucketRow)):
            assert payload[key] and all(set(item) == field_names(cls) for item in payload[key])
        assert [row["category"] for row in payload["rows"]] == ["named_entities", "literals"]
        assert {m["category"] for m in payload["matrices"]} == {"named_entities", "literals"}
        flag_lists = [item["flags"] for key in ("rows", "bucket_rows") for item in payload[key]]
        assert any(len(flags) > 1 for flags in flag_lists)
        assert all(flags == sorted(flags) for flags in flag_lists)
