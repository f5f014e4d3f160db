"""End-to-end gate: eight must-hold checks, one test each, summarized per run.

Each test wraps its assertions in the shared `criterion` context so the
terminal summary prints one PASS/FAIL line per check regardless of how the
rest of the suite fares.
"""

import random
import string
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kbforge.crawler import crawl, detect_q_identifier, run_suite
from kbforge.embeddings import TrigramHashEmbedder
from kbforge.ensemble import build_ensemble_kb, elbow_k, shared_triple_curve
from kbforge.export import IriPolicy, read_csv, to_csv, to_html, to_sql_dump, to_turtle
from kbforge.metrics import (
    METRIC_LEXICAL,
    hausdorff_similarity,
    jaccard,
    pairwise_report,
    semantic_match_pct,
)
from kbforge.model import (
    Caps,
    KnowledgeBase,
    RunConfig,
    StructuralCategory,
    Termination,
    TermKind,
    derive_categories,
    make_triple,
    save_run,
)
from kbforge.gateway import MockWorldGateway

import oracles
from acceptance_log import criterion
from test_ensemble import curve_from_counts
from test_export import _HrefCollector
from turtle_check import parse_turtle

import sqlite3

DATA = Path(__file__).parent / "data"


def test_criterion_1_worked_example_metrics():
    with criterion(1, "worked-example metrics are exact"):
        started = time.perf_counter()

        sets = [
            {"Hammurabi", "Marduk Temple", "Nebuchadnezzar"},
            {"Hammurabi", "Temple of Marduk"},
        ]
        runs = [_Suite("a", KnowledgeBase()), _Suite("b", KnowledgeBase())]
        row = pairwise_report(runs, StructuralCategory.NAMED_ENTITIES, element_sets=sets).row
        assert row.avg_jaccard == 0.25

        # Yields 3 and 2: population deviation 0.5 over mean 2.5.
        assert row.yields == [3, 2]
        assert row.yield_cv == 0.2

        # Three one-hot rows against two: 2/3 match one way, 2/2 the other.
        a = np.eye(3)
        b = np.eye(3)[:2]
        result = semantic_match_pct(a, b, tau=0.95)
        assert abs(result.average - 83.33) <= 0.01

        assert time.perf_counter() - started < 1.0


def test_criterion_2_elbow_reproduction():
    with criterion(2, "elbow lands on k=3 for all three reference curves"):
        started = time.perf_counter()
        series = [
            [53320, 20859, 12738, 9033, 6532, 4877, 3635, 2670, 1884, 1160],
            [4631, 1925, 1295, 932, 754, 602, 455, 339, 268, 171],
            [5999, 2976, 2056, 1527, 1139, 874, 690, 548, 444, 302],
        ]
        for counts in series:
            assert elbow_k(curve_from_counts(counts)) == 3
        assert time.perf_counter() - started < 1.0


def test_criterion_3_crawl_matches_oracle(tmp_path):
    with criterion(3, "fixture crawl is organic, oracle-equal, and stable"):
        started = time.perf_counter()
        world = DATA / "babylon_world.json"
        gateway = MockWorldGateway(world)
        config = RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=2)

        record = crawl(config, gateway, run_id="acc")
        expected_entities, _ = oracles.world_closure(world, "Hammurabi")
        assert len(expected_entities) >= 30
        assert record.termination is Termination.ORGANIC
        names = derive_categories(record.kb)[StructuralCategory.NAMED_ENTITIES]
        assert names == expected_entities

        rerun = crawl(config, gateway, run_id="acc")
        save_run(record, tmp_path / "one")
        save_run(rerun, tmp_path / "two")
        assert (tmp_path / "one" / "triples.ndjson").read_bytes() == (
            tmp_path / "two" / "triples.ndjson"
        ).read_bytes()

        records = run_suite([config] * 3, gateway, tmp_path / "suite")
        comparison = pairwise_report(records, StructuralCategory.NAMED_ENTITIES)
        assert comparison.row.avg_jaccard == 1.0
        assert comparison.row.avg_hausdorff == 1.0
        assert comparison.row.avg_match_pct == 100.0
        assert comparison.row.yield_cv == 0.0

        assert time.perf_counter() - started < 10.0


def test_criterion_4_degeneracy_containment():
    with criterion(4, "loop injection stays capped and flagged"):
        started = time.perf_counter()
        assert detect_q_identifier("Q768509") is True

        gateway = MockWorldGateway(DATA / "loop_world.json")
        config = RunConfig(
            topic="babylon",
            seed_entity="Nabu-mukin-zeri",
            caps=Caps(max_layers=5),
            parallelism=2,
        )
        record = crawl(config, gateway)
        assert record.termination is Termination.CAPPED_LAYERS
        loops = [e for e in record.degeneracy_events if e.kind == "repetition_loop"]
        assert len(loops) >= 1

        assert time.perf_counter() - started < 5.0


def test_criterion_5_metric_oracle_equivalence():
    with criterion(5, "metrics equal the brute-force oracle on 200 random pairs"):
        rng = np.random.default_rng(20260822)
        pool = [
            "".join(rng.choice(list(string.ascii_lowercase), size=int(rng.integers(3, 11))))
            for _ in range(40)
        ]
        embedder = TrigramHashEmbedder()
        taus = [0.3, 0.5, 0.7, 0.9, 0.95, 1.0]

        for trial in range(200):
            a_labels = sorted(rng.choice(pool, size=int(rng.integers(1, 9)), replace=False))
            b_labels = sorted(rng.choice(pool, size=int(rng.integers(1, 9)), replace=False))
            a = embedder.embed(a_labels)
            b = embedder.embed(b_labels)

            want = oracles.hausdorff_similarity(a.tolist(), b.tolist())
            got = hausdorff_similarity(a, b)
            assert abs(got - want) <= 1e-12, trial

            want_ab, want_ba, want_avg = oracles.semantic_match_pct(
                a.tolist(), b.tolist(), tau=0.95
            )
            got_match = semantic_match_pct(a, b, tau=0.95)
            assert abs(got_match.a_to_b - want_ab) <= 1e-12
            assert abs(got_match.b_to_a - want_ba) <= 1e-12
            assert abs(got_match.average - want_avg) <= 1e-12

            lex = jaccard(set(a_labels), set(b_labels))
            assert 0.0 <= lex <= 1.0
            assert lex == jaccard(set(b_labels), set(a_labels))

            if trial < 50:
                averages = [semantic_match_pct(a, b, tau=t).average for t in taus]
                assert all(x >= y for x, y in zip(averages, averages[1:]))


@dataclass
class _Suite:
    run_id: str
    kb: KnowledgeBase


def _noisy_runs(n_runs=6, core_size=12, noise_size=6):
    """Runs sharing a stable core, each polluted with run-unique noise."""
    runs = []
    for i in range(n_runs):
        rng = random.Random(1000 + i)
        triples = [
            make_triple(f"Core-{j}", "relatesTo", f"Target-{j}", TermKind.NAMED_ENTITY, 1)
            for j in range(core_size)
        ]
        for j in range(noise_size):
            noise = "".join(rng.choice("qxzvwkjf") for _ in range(10))
            triples.append(
                make_triple(
                    f"{noise}-{i}-{j}", "relatesTo", f"{noise[::-1]}{i}{j}",
                    TermKind.NAMED_ENTITY, 2,
                )
            )
        runs.append(_Suite(f"r{i}", KnowledgeBase(triples)))
    return runs


def _entity_match_pct(kb_a, kb_b, embedder):
    names_a = sorted(derive_categories(kb_a)[StructuralCategory.NAMED_ENTITIES])
    names_b = sorted(derive_categories(kb_b)[StructuralCategory.NAMED_ENTITIES])
    return semantic_match_pct(
        embedder.embed(names_a), embedder.embed(names_b), tau=0.95
    ).average


def test_criterion_6_ensemble_monotone_and_directional():
    with criterion(6, "shared counts fall with k; ensembling never hurts match %"):
        rng = random.Random(42)
        facts = [(f"s{i}", "p", f"o{i}", TermKind.NAMED_ENTITY, 0) for i in range(15)]
        for _ in range(20):
            runs = []
            for j in range(rng.randint(3, 6)):
                rows = rng.sample(facts, rng.randint(1, len(facts)))
                runs.append(_Suite(f"r{j}", KnowledgeBase(make_triple(*row) for row in rows)))
            counts = [c for _, c in shared_triple_curve(runs).points]
            assert all(x >= y for x, y in zip(counts, counts[1:]))

        runs = _noisy_runs()
        embedder = TrigramHashEmbedder()
        raw_scores = [
            _entity_match_pct(runs[i].kb, runs[j].kb, embedder)
            for i in range(len(runs))
            for j in range(i + 1, len(runs))
        ]
        raw_mean = sum(raw_scores) / len(raw_scores)

        group_a = build_ensemble_kb(runs[:3], k=3)
        group_b = build_ensemble_kb(runs[3:], k=3)
        ensembled = _entity_match_pct(group_a, group_b, embedder)
        assert ensembled >= raw_mean
        assert ensembled >= max(raw_scores)


def test_criterion_7_export_validity(tmp_path):
    with criterion(7, "exports parse, round-trip, and keep their counts"):
        world = DATA / "babylon_world.json"
        record = crawl(
            RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=2),
            MockWorldGateway(world),
        )
        kb = record.kb
        entity_count = len(derive_categories(kb)[StructuralCategory.NAMED_ENTITIES])

        ttl = to_turtle(kb, IriPolicy(), tmp_path / "kb.ttl")
        statements = parse_turtle(ttl.read_text(encoding="utf-8"))
        assert len(statements) == len(kb)

        loaded = read_csv(to_csv(kb, tmp_path / "kb.csv"))
        assert sorted((t.key(), t.object_kind, t.layer) for t in loaded.triples) == sorted(
            (t.key(), t.object_kind, t.layer) for t in kb.triples
        )

        html_dir = to_html(kb, tmp_path / "html")
        pages = list(html_dir.glob("*.html"))
        assert len(pages) == entity_count + 1
        for page in pages:
            collector = _HrefCollector()
            collector.feed(page.read_text(encoding="utf-8"))
            for href in collector.hrefs:
                assert (html_dir / href).is_file(), (page.name, href)

        script = to_sql_dump(kb, tmp_path / "kb.sql").read_text(encoding="utf-8")
        conn = sqlite3.connect(":memory:")
        conn.executescript(script)
        (triple_rows,) = conn.execute("SELECT COUNT(*) FROM triples").fetchone()
        assert triple_rows == len(kb)
        (ne_rows,) = conn.execute(
            "SELECT COUNT(*) FROM entities WHERE kind = 'ne'"
        ).fetchone()
        assert ne_rows == entity_count


def test_criterion_8_scale_limits_are_documented():
    with criterion(8, "README states which published figures are out of reach"):
        readme = Path(__file__).parent.parent / "README.md"
        assert readme.exists(), "README.md is missing"
        text = readme.read_text(encoding="utf-8")
        # Collapse markdown emphasis and hard wraps before phrase matching.
        lowered = " ".join(text.lower().replace("*", " ").split())

        assert "not reproducible at desk scale" in lowered
        for marker in ("1669.5", "202.1", "0.33", "0.89", "58.3"):
            assert marker in text, f"README must cite the reference figure {marker}"

        # The optional live smoke recipe with its order-of-magnitude anchor.
        assert "smoke" in lowered
        assert "tbbt" in lowered
        assert "163.1" in text and "29.42" in text
