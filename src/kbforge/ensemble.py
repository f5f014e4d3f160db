"""Intersection ensembling over repeated runs of the same topic.

A triple survives at threshold k when it appears in at least k of the n
runs. The shared-triple curve over k = 1..n is monotonically non-increasing;
the elbow heuristic picks the k whose point lies farthest from the straight
line through the curve's endpoints.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .model import KnowledgeBase, RunRecord, TermKind, Triple, csv_lines, write_atomic, write_triples

TripleKey = tuple[str, str, str]


@dataclass
class SharedTripleCurve:
    """Points (k, count of triples shared by >= k runs) for k = 1..n."""

    points: list[tuple[int, int]]

    def validate(self) -> None:
        if not self.points:
            raise ValueError("curve has no points")
        ks = [k for k, _ in self.points]
        if ks != list(range(1, len(ks) + 1)):
            raise ValueError("curve must cover k = 1..n contiguously")
        counts = [c for _, c in self.points]
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise ValueError("shared counts must be non-increasing in k")


def _occurrences(records: Sequence[RunRecord]) -> Counter:
    # Counted as (s, p, o) tuples, which hash in C; a Triple's hash is Python code.
    counts: Counter = Counter()
    for record in records:
        counts.update(t.key() for t in record.kb.triples)
    return counts


def shared_triple_curve(records: Sequence[RunRecord]) -> SharedTripleCurve:
    if not records:
        raise ValueError("no runs given")
    counts = _occurrences(records)
    tally = Counter(counts.values())
    n = len(records)
    points = []
    running = 0
    # Counting down lets each point be a suffix sum of the occurrence tally.
    per_k = [0] * (n + 1)
    for occurrence, how_many in tally.items():
        per_k[min(occurrence, n)] += how_many
    for k in range(n, 0, -1):
        running += per_k[k]
        points.append((k, running))
    points.reverse()
    return SharedTripleCurve(points=points)


def elbow_k(curve: SharedTripleCurve) -> int:
    """The k whose curve point lies farthest from the endpoint chord.

    Distance is perpendicular distance to the line through the first and
    last points; ties (including a perfectly straight curve) go to the
    smallest k.
    """
    curve.validate()
    points = curve.points
    if len(points) < 3:
        raise ValueError("elbow needs at least three points")
    (x1, y1), (x2, y2) = points[0], points[-1]
    dx, dy = x2 - x1, y2 - y1
    length = math.hypot(dx, dy)
    best_k = points[0][0]
    best_distance = -1.0
    for x, y in points:
        distance = abs(dx * (y1 - y) - (x1 - x) * dy) / length
        if distance > best_distance:
            best_distance = distance
            best_k = x
    return best_k


def build_ensemble_kb(records: Sequence[RunRecord], k: int) -> KnowledgeBase:
    """KB of all triples shared by >= k runs, with reconciled attributes.

    object_kind takes the majority vote across contributing runs (ties go
    to NamedEntity); layer takes the minimum across contributing runs.
    """
    if not records:
        raise ValueError("no runs given")
    if not 1 <= k <= len(records):
        raise ValueError(f"k must lie in 1..{len(records)}, got {k}")
    # key -> [runs holding it, NamedEntity votes among them, minimum layer]
    tally: dict[TripleKey, list[int]] = {}
    for record in records:
        for triple in record.kb.triples:
            key = triple.key()
            entry = tally.get(key)
            named = triple.object_kind is TermKind.NAMED_ENTITY
            if entry is None:
                tally[key] = [1, named, triple.layer]
            else:
                entry[0] += 1
                entry[1] += named
                if triple.layer < entry[2]:
                    entry[2] = triple.layer

    def shared() -> Iterator[Triple]:
        for key in sorted(key for key, entry in tally.items() if entry[0] >= k):
            count, ne_votes, layer = tally[key]
            kind = TermKind.NAMED_ENTITY if 2 * ne_votes >= count else TermKind.LITERAL
            yield Triple(*key, kind, layer)

    return KnowledgeBase(shared())


def save_ensemble(
    out_dir: Path, curve: SharedTripleCurve, k: int, auto: bool, n_runs: int, kb: KnowledgeBase
) -> None:
    """Write an ensemble directory: the curve as ``elbow.csv`` and, for
    plotting, ``curve.json``; the ensemble KB's ``triples.ndjson``; and
    ``ensemble.json``, which sums them up and is written last."""
    out_dir = Path(out_dir)
    write_atomic(out_dir / "elbow.csv", csv_lines([("k", "shared_count"), *curve.points]))
    plot = {"k": [k for k, _ in curve.points], "shared_count": [c for _, c in curve.points]}
    write_atomic(out_dir / "curve.json", [json.dumps(plot, indent=2) + "\n"])
    write_triples(out_dir / "triples.ndjson", kb.triples)
    summary = {
        "k": k,
        "auto": auto,
        "n_runs": n_runs,
        "triple_count": len(kb),
        "curve": [list(point) for point in curve.points],
    }
    write_atomic(out_dir / "ensemble.json", [json.dumps(summary, indent=2) + "\n"])
