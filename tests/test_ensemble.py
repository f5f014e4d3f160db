import json
import random
from dataclasses import dataclass

import pytest

from kbforge.ensemble import (
    SharedTripleCurve,
    build_ensemble_kb,
    elbow_k,
    save_ensemble,
    shared_triple_curve,
)
from kbforge.model import KnowledgeBase, TermKind, make_triple

import oracles
from conftest import FIXTURE_ROWS


def curve_from_counts(counts):
    """Build a curve directly from shared counts listed for k = 1..n."""
    curve = SharedTripleCurve(points=[(k, c) for k, c in enumerate(counts, start=1)])
    curve.validate()
    return curve


@dataclass
class FakeRun:
    run_id: str
    kb: KnowledgeBase


def _run(run_id, rows):
    return FakeRun(run_id, KnowledgeBase(make_triple(*row) for row in rows))


NE = TermKind.NAMED_ENTITY
LIT = TermKind.LITERAL


def _three_overlapping_runs():
    shared = ("Hammurabi", "ruledOver", "Babylon", NE, 0)
    pair = ("Hammurabi", "issued", "Code", NE, 1)
    only_a = ("Hammurabi", "reignStart", "1792 BC", LIT, 0)
    only_c = ("Babylon", "onRiver", "Euphrates", NE, 2)
    a = _run("a", [shared, pair, only_a])
    b = _run("b", [shared, pair])
    c = _run("c", [shared, only_c])
    return [a, b, c]


def _shared_keys(runs, k):
    """Keys of the triples held by at least ``k`` of ``runs``."""
    return {t.key() for t in build_ensemble_kb(runs, k).triples}


class TestSharedTriples:
    def test_k1_is_the_union(self):
        runs = _three_overlapping_runs()
        union = {t.key() for run in runs for t in run.kb.triples}
        assert _shared_keys(runs, 1) == union

    def test_kn_is_the_intersection(self):
        runs = _three_overlapping_runs()
        assert _shared_keys(runs, 3) == {("Hammurabi", "ruledOver", "Babylon")}

    def test_k_out_of_range(self):
        runs = _three_overlapping_runs()
        for bad in (0, 4, -1):
            with pytest.raises(ValueError):
                _shared_keys(runs, bad)
        with pytest.raises(ValueError):
            _shared_keys([], 1)


class TestSharedTripleCurve:
    def test_hand_counted_curve(self):
        curve = shared_triple_curve(_three_overlapping_runs())
        assert curve.points == [(1, 4), (2, 2), (3, 1)]

    def test_fixture_curve_counts_facts_not_kinds_or_layers(self):
        # Run b restates its first fact with another kind and layer, and
        # changes the kind and layer of the rows it shares with a.
        a = _run("a", FIXTURE_ROWS)
        relabelled = [(s, p, o, LIT if kind is NE else NE, layer + 1) for s, p, o, kind, layer in FIXTURE_ROWS]
        b = _run("b", FIXTURE_ROWS[:8] + relabelled[:1])
        c = _run("c", relabelled[6:])
        assert len(b.kb) == 8
        assert shared_triple_curve([a, b, c]).points == [(1, 12), (2, 12), (3, 2)]
        assert _shared_keys([a, b, c], 3) == {row[:3] for row in FIXTURE_ROWS[6:8]}

    def test_counts_never_increase_with_k(self):
        rng = random.Random(99)
        facts = [(f"s{i}", "p", f"o{i}", NE, 0) for i in range(12)]
        runs = [
            _run(f"r{j}", rng.sample(facts, rng.randint(1, len(facts))))
            for j in range(5)
        ]
        curve = shared_triple_curve(runs)
        assert [k for k, _ in curve.points] == [1, 2, 3, 4, 5]
        counts = [c for _, c in curve.points]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_matches_occurrence_oracle(self):
        rng = random.Random(5)
        facts = [(f"s{i}", "p", f"o{i}", NE, 0) for i in range(9)]
        runs = [
            _run(f"r{j}", rng.sample(facts, rng.randint(1, len(facts))))
            for j in range(4)
        ]
        expected_counts = oracles.occurrence_counts(runs)
        curve = shared_triple_curve(runs)
        for k, count in curve.points:
            assert count == sum(1 for c in expected_counts.values() if c >= k)

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SharedTripleCurve(points=[]).validate()
        with pytest.raises(ValueError):
            SharedTripleCurve(points=[(1, 5), (3, 4)]).validate()
        with pytest.raises(ValueError):
            SharedTripleCurve(points=[(1, 5), (2, 9)]).validate()


class TestElbow:
    @pytest.mark.parametrize(
        "counts",
        [
            [53320, 20859, 12738, 9033, 6532, 4877, 3635, 2670, 1884, 1160],
            [4631, 1925, 1295, 932, 754, 602, 455, 339, 268, 171],
            [5999, 2976, 2056, 1527, 1139, 874, 690, 548, 444, 302],
        ],
        ids=["babylon", "tbbt", "dax40"],
    )
    def test_reference_curves_bend_at_three(self, counts):
        assert elbow_k(curve_from_counts(counts)) == 3

    def test_straight_line_ties_to_smallest_k(self):
        assert elbow_k(curve_from_counts([30, 20, 10])) == 1

    def test_sharp_corner(self):
        assert elbow_k(curve_from_counts([100, 10, 9, 8])) == 2

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            elbow_k(curve_from_counts([5, 3]))


class TestBuildEnsemble:
    def test_kn_keeps_only_unanimous_triples(self):
        runs = _three_overlapping_runs()
        kb = build_ensemble_kb(runs, 3)
        assert [t.key() for t in kb.triples] == [("Hammurabi", "ruledOver", "Babylon")]

    def test_k1_keeps_everything_sorted(self):
        runs = _three_overlapping_runs()
        kb = build_ensemble_kb(runs, 1)
        keys = [t.key() for t in kb.triples]
        assert len(keys) == 4
        assert keys == sorted(keys)

    def test_object_kind_majority_vote(self):
        rows = ("X", "p", "O", LIT, 0)
        as_ne = ("X", "p", "O", NE, 0)
        runs = [_run("a", [rows]), _run("b", [rows]), _run("c", [as_ne])]
        kb = build_ensemble_kb(runs, 1)
        assert kb.triples[0].object_kind is LIT

    def test_object_kind_tie_goes_to_entity(self):
        runs = [_run("a", [("X", "p", "O", LIT, 0)]), _run("b", [("X", "p", "O", NE, 0)])]
        kb = build_ensemble_kb(runs, 1)
        assert kb.triples[0].object_kind is NE

    def test_layer_takes_the_minimum(self):
        runs = [
            _run("a", [("X", "p", "O", NE, 2)]),
            _run("b", [("X", "p", "O", NE, 0)]),
            _run("c", [("X", "p", "O", NE, 1)]),
        ]
        kb = build_ensemble_kb(runs, 2)
        assert kb.triples[0].layer == 0

    def test_identical_runs_reproduce_the_run(self, fixture_kb):
        runs = [FakeRun(f"r{i}", fixture_kb) for i in range(3)]
        kb = build_ensemble_kb(runs, 3)
        assert {t.key() for t in kb.triples} == {t.key() for t in fixture_kb.triples}
        by_key = {t.key(): t for t in fixture_kb.triples}
        for t in kb.triples:
            original = by_key[t.key()]
            assert t.object_kind is original.object_kind
            assert t.layer == original.layer


def _save_curve(out_dir, counts):
    """``save_ensemble`` of a curve with ``counts``, its k = 1 and an empty KB."""
    save_ensemble(out_dir, curve_from_counts(counts), 1, False, len(counts), KnowledgeBase())


class TestCurveFiles:
    def test_elbow_csv_shape(self, tmp_path):
        _save_curve(tmp_path, [9, 4, 1])
        assert (tmp_path / "elbow.csv").read_bytes() == b"k,shared_count\r\n1,9\r\n2,4\r\n3,1\r\n"

    def test_a_failed_elbow_write_keeps_the_previous_file(self, tmp_path, request):
        _save_curve(tmp_path, [9, 4, 1])
        path = tmp_path / "elbow.csv"
        before = path.read_bytes()
        request.getfixturevalue("failing_csv_writer")
        with pytest.raises(OSError, match="disk full"):
            _save_curve(tmp_path, [8, 5, 2])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "curve.json", "elbow.csv", "ensemble.json", "triples.ndjson"
        ]

    def test_curve_json_shape(self, tmp_path):
        _save_curve(tmp_path, [9, 4, 1])
        payload = json.loads((tmp_path / "curve.json").read_text(encoding="utf-8"))
        assert payload == {"k": [1, 2, 3], "shared_count": [9, 4, 1]}
