"""Output checks for every benchmark run, against independent references.

The references share no code with kbforge's implementations of what they
check: category derivation, the trigram embedding, best-match metrics,
popularity buckets, the shared-triple curve, the elbow and the ensemble KB
are recomputed here from their definitions, and the crawl is checked against
``tests/oracles.world_closure``. Numeric report values must agree within
1e-12, the tolerance of acceptance criterion 5.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import sqlite3
import statistics
from collections import Counter
from contextlib import closing
from pathlib import Path
from urllib.parse import quote

import numpy as np

from kbforge import crawler
from kbforge.gateway import MockWorldGateway
from kbforge.model import RunConfig, TermKind

import oracles
import turtle_check

TOLERANCE = 1e-12
TAU = 0.95
DIM = 384
SEP = "␟"
IRI_BASE = "https://kbforge.invalid/resource/"


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _rows(record) -> list[tuple]:
    return [(t.subject, t.predicate, t.object, t.object_kind, t.layer) for t in record.kb.triples]


# --- crawl ------------------------------------------------------------------

def check_crawl(bench, out) -> None:
    """Each run equals the world's closure; a remote run equals a mock crawl.

    A remote run is compared, in order and with kind and layer, with a
    ``MockWorldGateway`` crawl of the same world whose malformed subjects
    answer nothing, since the crawler absorbs those as empty.
    """
    world = bench.world
    check_dir = out.run_dir / "check"
    check_dir.mkdir(parents=True, exist_ok=True)
    for index, (record, path) in enumerate(zip(out.records, world.run_paths)):
        if out.loaded:
            _require(_rows(out.loaded[index]) == _rows(record), f"{record.run_id}: loaded run differs from the saved one")
        data = json.loads(path.read_text(encoding="utf-8"))
        for subject in world.malformed:
            data["facts"].pop(subject, None)
        ref_path = check_dir / f"world-{index:03d}.json"
        ref_path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        _, closure = oracles.world_closure(ref_path, world.seed_entity)
        got = {(t.subject, t.predicate, t.object, t.object_kind is TermKind.NAMED_ENTITY) for t in record.kb.triples}
        _require(got == closure, f"{record.run_id}: triples differ from the world closure")
        if bench.workload.remote:
            config = RunConfig(topic=record.config.topic, seed_entity=world.seed_entity, parallelism=2)
            ref = crawler.crawl(config, MockWorldGateway(ref_path), run_id=record.run_id)
            _require(_rows(record) == _rows(ref), f"{record.run_id}: triples differ from a mock crawl")


def remote_faults(bench, out, stats: dict) -> dict:
    """Failed and attempted operations of a remote crawl, checked against
    what the server injected: every persistent fault fails its elicitation
    and every transient fault is recovered by a retry."""
    with (out.run_dir / "audit.ndjson").open(encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle if line.strip()]
    elicits = [e for e in entries if e["kind"] == "elicit"]
    failed = sum(1 for e in elicits if e["status"] != "ok")
    runs = len(out.records)
    expected = runs * len(bench.world.malformed)
    _require(failed == expected, f"{failed} failed elicitations, {expected} persistent faults injected")
    _require(stats["transient_injected"] > 0, "no transient faults were injected")
    _require(
        stats["transient_recovered"] == stats["transient_injected"],
        f"{stats['transient_injected'] - stats['transient_recovered']} transient faults never recovered",
    )
    retries = stats["requests"] - len(entries)
    _require(
        retries == stats["transient_injected"] + 2 * failed,
        f"{retries} retries for {stats['transient_injected']} transient and {failed} persistent faults",
    )
    attempted = len(entries) + runs
    return {"failed": failed, "attempted": attempted, "retries": retries}


# --- compare ----------------------------------------------------------------

def categories(record) -> dict[str, set[str]]:
    named, literals, predicates, classes, flat = set(), set(), set(), set(), set()
    for t in record.kb.triples:
        named.add(t.subject)
        predicates.add(t.predicate)
        (named if t.object_kind is TermKind.NAMED_ENTITY else literals).add(t.object)
        if t.predicate == "instanceOf":
            classes.add(t.object)
        flat.add(SEP.join((t.subject, t.predicate, t.object)))
    return {"named_entities": named, "literals": literals, "predicates": predicates,
            "classes": classes, "triples": flat}


class TrigramRows:
    """The seed code's hashed character-trigram embedding, memoized."""

    def __init__(self):
        self._buckets: dict[str, int] = {}

    def _bucket(self, gram: str) -> int:
        if gram not in self._buckets:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            self._buckets[gram] = int.from_bytes(digest, "big") % DIM
        return self._buckets[gram]

    def __call__(self, labels: list[str]) -> np.ndarray:
        out = np.zeros((len(labels), DIM), dtype=np.float64)
        for row, text in enumerate(labels):
            padded = "\x02" + text + "\x03"
            for i in range(max(1, len(padded) - 2)):
                out[row, self._bucket(padded[i:i + 3])] += 1.0
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        np.divide(out, norms, out=out, where=norms > 0)
        return out


EMBED = TrigramRows()


def _unit(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)


def best_cosine(a: np.ndarray, b: np.ndarray, block: int = 1024) -> np.ndarray:
    """Per row of a, its best cosine into b; 1.0 for rows found verbatim in b."""
    b_rows = {row.tobytes() for row in b}
    best = np.ones(a.shape[0])
    todo = np.array([i for i, row in enumerate(a) if row.tobytes() not in b_rows], dtype=np.intp)
    au, bu = _unit(a), _unit(b)
    for start in range(0, len(todo), block):
        rows = todo[start:start + block]
        best[rows] = np.clip((au[rows] @ bu.T).max(axis=1), -1.0, 1.0)
    return best


def pair_values(a_labels, a, b_labels, b) -> tuple[float, float, float]:
    """Jaccard, Hausdorff similarity and match % of two non-empty sets."""
    sa, sb = set(a_labels), set(b_labels)
    _require(bool(sa) and bool(sb), "reference expects non-empty sets")
    ab, ba = best_cosine(a, b), best_cosine(b, a)
    hausdorff = 1.0 - (float((1.0 - ab).mean()) + float((1.0 - ba).mean())) / 2.0
    pct_ab = 100.0 * float((ab >= TAU).sum()) / len(ab)
    pct_ba = 100.0 * float((ba >= TAU).sum()) / len(ba)
    return len(sa & sb) / len(sa | sb), hausdorff, (pct_ab + pct_ba) / 2.0


def reference_buckets(named: set[str], counts: dict[str, int]) -> dict[str, set[str]]:
    found = sorted((counts[label], label) for label in named if label in counts)
    buckets = {"NotFound": {label for label in named if label not in counts}}
    base, extra = divmod(len(found), 4)
    cursor = 0
    for q in range(4):
        size = base + (1 if q < extra else 0)
        buckets[f"Q{q + 1}"] = {label for _, label in found[cursor:cursor + size]}
        cursor += size
    return buckets


def _close(got, want, where: str) -> None:
    ok = got is None if want is None else got is not None and abs(got - want) <= TOLERANCE
    _require(ok, f"{where}: {got!r} != {want!r}")


# The references below are pure functions of the compared label sets, so
# they are memoized: passes whose runs hold the same labels share them, while
# each pass's report is still compared value by value.

@functools.lru_cache(maxsize=16)
def reference_matrices(labels: tuple[tuple[str, ...], ...]) -> dict[str, list[list[float]]]:
    """Jaccard, Hausdorff and match % matrices over one category's label sets."""
    n = len(labels)
    vectors = [EMBED(list(ls)) for ls in labels]
    matrices = {m: [[(100.0 if m == "semantic_match_pct" else 1.0)] * n for _ in range(n)]
                for m in ("lexical_jaccard", "hausdorff_similarity", "semantic_match_pct")}
    for i in range(n):
        for j in range(i + 1, n):
            values = pair_values(labels[i], vectors[i], labels[j], vectors[j])
            for metric, value in zip(matrices, values):
                matrices[metric][i][j] = matrices[metric][j][i] = value
    return matrices


@functools.lru_cache(maxsize=4)
def reference_bucket_values(named: tuple[tuple[str, ...], ...], counts: tuple[tuple[str, int], ...]):
    """Per popularity bucket, the pair values of its members against every other run."""
    counts = dict(counts)
    full = [EMBED(list(ls)) for ls in named]
    index = [{label: k for k, label in enumerate(ls)} for ls in named]
    buckets = [reference_buckets(set(ls), counts) for ls in named]
    per_bucket = {}
    for name in buckets[0]:
        values = []
        for i, per in enumerate(buckets):
            members = sorted(per[name])
            if not members:
                continue
            sub = full[i][[index[i][label] for label in members]]
            values += [pair_values(members, sub, named[j], full[j]) for j in range(len(named)) if j != i]
        per_bucket[name] = values
    return per_bucket


def check_report(bench, out) -> None:
    """report.json against reference values recomputed from the definitions."""
    report = json.loads((out.run_dir / "report" / "report.json").read_text(encoding="utf-8"))
    per_run = [categories(r) for r in out.loaded]
    n = len(per_run)
    rows = {row["category"]: row for row in report["rows"]}
    cells = {(m["category"], m["metric_id"]): m["values"] for m in report["matrices"]}
    _require([c.value for c in bench.workload.categories] == [r["category"] for r in report["rows"]],
             "report rows do not match the compared categories")
    for category in rows:
        labels = [sorted(c[category]) for c in per_run]
        matrices = reference_matrices(tuple(map(tuple, labels)))
        for metric, want in matrices.items():
            got = cells[(category, metric)]
            for i in range(n):
                for j in range(n):
                    _close(got[i][j], want[i][j], f"{category} {metric}[{i}][{j}]")
        yields = [len(ls) for ls in labels]
        mean = statistics.fmean(yields)
        std = statistics.pstdev(yields)
        row = rows[category]
        _require(row["yields"] == yields, f"{category}: yields {row['yields']} != {yields}")
        _close(row["yield_mean"], mean, f"{category} yield_mean")
        _close(row["yield_std"], std, f"{category} yield_std")
        _close(row["yield_cv"], std / mean, f"{category} yield_cv")
        for key, metric in (("avg_jaccard", "lexical_jaccard"), ("avg_hausdorff", "hausdorff_similarity"),
                            ("avg_match_pct", "semantic_match_pct")):
            upper = [want for i, r in enumerate(matrices[metric]) for j, want in enumerate(r) if j > i]
            _close(row[key], sum(upper) / len(upper), f"{category} {key}")
    if bench.workload.buckets:
        _check_buckets(bench, report, per_run)


def _check_buckets(bench, report, per_run) -> None:
    with bench.world.popularity_path.open(encoding="utf-8") as handle:
        counts = {e["entity"]: e["statement_count"] for e in map(json.loads, handle)}
    named = tuple(tuple(sorted(c["named_entities"])) for c in per_run)
    want_rows = reference_bucket_values(named, tuple(sorted(counts.items())))
    got = {row["bucket"]: row for row in report["bucket_rows"]}
    _require(list(got) == list(want_rows), f"bucket rows {list(got)} != {list(want_rows)}")
    for name, values in want_rows.items():
        row = got[name]
        _require(row["pair_count"] == len(values), f"bucket {name}: pair_count {row['pair_count']} != {len(values)}")
        for pos, key in enumerate(("avg_jaccard", "avg_hausdorff", "avg_match_pct")):
            want = sum(v[pos] for v in values) / len(values) if values else None
            _close(row[key], want, f"bucket {name} {key}")


# --- ensemble and export ----------------------------------------------------

def expected_ensemble(loaded) -> tuple[list[tuple[int, int]], int, list[tuple]]:
    """Curve by Counter recount, elbow k, and the ensemble KB's rows."""
    occurrences = Counter(t.key() for r in loaded for t in r.kb.triples)
    n = len(loaded)
    curve = [(k, sum(1 for c in occurrences.values() if c >= k)) for k in range(1, n + 1)]
    (x1, y1), (x2, y2) = curve[0], curve[-1]
    dx, dy = x2 - x1, y2 - y1
    distances = [abs(dx * (y1 - y) - (x1 - x) * dy) / math.hypot(dx, dy) for x, y in curve]
    k = curve[distances.index(max(distances))][0]
    votes: dict[tuple, list] = {}
    for r in loaded:
        for t in r.kb.triples:
            if occurrences[t.key()] >= k:
                votes.setdefault(t.key(), []).append((t.object_kind, t.layer))
    rows = []
    for key in sorted(votes):
        ne = sum(1 for kind, _ in votes[key] if kind is TermKind.NAMED_ENTITY)
        kind = TermKind.NAMED_ENTITY if 2 * ne >= len(votes[key]) else TermKind.LITERAL
        rows.append(key + (kind, min(layer for _, layer in votes[key])))
    return curve, k, rows


def check_ensemble(out) -> list[tuple]:
    curve, k, rows = expected_ensemble(out.loaded)
    _require(out.curve.points == curve, f"curve {out.curve.points} != recount {curve}")
    _require(out.k == k, f"elbow k {out.k} != {k}")
    _require([t.key() + (t.object_kind, t.layer) for t in out.kb.triples] == rows, "ensemble KB differs")
    return rows


def _mint(label: str) -> str:
    return IRI_BASE + quote(label, safe="")


def check_exports(out, rows: list[tuple]) -> None:
    """All four formats hold exactly the ensemble KB's triples."""
    export_dir = out.run_dir / "export"
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["subject", "predicate", "object", "object_kind", "layer"])
    for s, p, o, kind, layer in rows:
        writer.writerow([s, p, o, kind.value, layer])
    _require((export_dir / "kb.csv").read_bytes() == buffer.getvalue().encode("utf-8"), "kb.csv bytes differ")

    with closing(sqlite3.connect(":memory:")) as db:
        db.executescript((export_dir / "kb.sql").read_text(encoding="utf-8"))
        got = db.execute("SELECT subject, predicate, object, object_kind, layer FROM triples").fetchall()
        entities = db.execute("SELECT COUNT(*) FROM entities").fetchone()[0]
    want = sorted((s, p, o, kind.value, layer) for s, p, o, kind, layer in rows)
    _require(sorted(got) == want, "kb.sql triples differ")
    named = {s for s, *_ in rows} | {o for _, _, o, kind, _ in rows if kind is TermKind.NAMED_ENTITY}
    literals = {o for _, _, o, kind, _ in rows if kind is TermKind.LITERAL} - named
    _require(entities == len(named) + len(literals), "kb.sql entity table differs")

    parsed = turtle_check.parse_turtle((export_dir / "kb.ttl").read_text(encoding="utf-8"))
    want_ttl = [
        (_mint(s), turtle_check.A_PREDICATE if p == "instanceOf" else _mint(p),
         ("iri", _mint(o)) if kind is TermKind.NAMED_ENTITY else ("lit", o))
        for s, p, o, kind, _ in rows
    ]
    _require(parsed == want_ttl, "kb.ttl statements differ")

    pages = list((export_dir / "html").iterdir())
    _require(len(pages) == len(named) + 1, f"{len(pages)} HTML pages for {len(named)} entities")
    fact_rows = sum(page.read_text(encoding="utf-8").count("<tr><td>") for page in pages)
    _require(fact_rows == len(rows), f"HTML pages hold {fact_rows} facts, KB has {len(rows)}")


def export_digest(export_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in export_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(export_dir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_all(bench, out) -> None:
    check_crawl(bench, out)
    if out.loaded:
        check_report(bench, out)
        check_exports(out, check_ensemble(out))
