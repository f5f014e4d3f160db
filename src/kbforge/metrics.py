"""Run-to-run stability metrics: yield, lexical overlap, semantic similarity.

Everything here is pure computation over run records. Lexical similarity is
exact-match Jaccard over a structural category's element strings; semantic
similarity embeds those strings and compares sets either by averaged minimum
cosine distance (a Hausdorff-style score) or by thresholded best-match
percentages. Reports aggregate pairwise values over the off-diagonal only.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .embeddings import EmbeddingCache, EmbeddingProvider, TrigramHashEmbedder, embed_batch, pairwise_cosine_similarity
from .model import RunRecord, StructuralCategory, derive_categories

DEFAULT_TAU = 0.95

METRIC_LEXICAL = "lexical_jaccard"
METRIC_HAUSDORFF = "hausdorff_similarity"
METRIC_MATCH = "semantic_match_pct"

# Each metric's ceiling, the value of a run against itself. By convention
# two empty sets are maximally similar too (identical runs stay at ceiling
# even when a category is empty); empty versus non-empty is maximally
# dissimilar. Cells that used an empty-set convention are flagged in the
# report row.
_DIAGONAL = {METRIC_LEXICAL: 1.0, METRIC_HAUSDORFF: 1.0, METRIC_MATCH: 100.0}
_ONE_EMPTY = {METRIC_LEXICAL: 0.0, METRIC_HAUSDORFF: 0.0, METRIC_MATCH: 0.0}


def yield_counts(record) -> dict[StructuralCategory, int]:
    """Element count per structural category for one run."""
    kb = getattr(record, "kb", record)
    return {cat: len(members) for cat, members in derive_categories(kb).items()}


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population standard deviation over the mean."""
    if not values:
        raise ValueError("coefficient of variation needs at least one value")
    mean = statistics.fmean(values)
    if mean == 0:
        raise ValueError("coefficient of variation undefined for zero mean")
    return statistics.pstdev(values) / mean


def jaccard(a: set, b: set) -> float:
    """Set overlap in [0, 1]; two empty sets count as identical."""
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


def avg_jaccard(sets: Sequence[set]) -> float:
    """Mean Jaccard over all unordered pairs of the given sets."""
    n = len(sets)
    if n < 2:
        raise ValueError("avg_jaccard needs at least two sets")
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += jaccard(sets[i], sets[j])
            pairs += 1
    return total / pairs


def _as_rows(matrix: np.ndarray, name: str) -> np.ndarray:
    rows = np.ascontiguousarray(matrix, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 2-D matrix")
    return rows


def _best_matches(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best cosine similarity into the other set: (A to B, B to A).

    A row that occurs verbatim in the other matrix scores exactly 1.0, so
    equal row sets reach the ceiling regardless of float noise.
    """
    a = _as_rows(a, "A")
    b = _as_rows(b, "B")
    if a.shape[1] != b.shape[1]:
        raise ValueError("matrices must share one embedding dimension")
    sim = pairwise_cosine_similarity(a, b)
    best_ab = sim.max(axis=1)
    best_ba = sim.max(axis=0)
    b_rows = {row.tobytes() for row in b}
    a_rows = {row.tobytes() for row in a}
    for i in range(a.shape[0]):
        if a[i].tobytes() in b_rows:
            best_ab[i] = 1.0
    for j in range(b.shape[0]):
        if b[j].tobytes() in a_rows:
            best_ba[j] = 1.0
    return best_ab, best_ba


def hausdorff_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """One minus the symmetric average of directed mean-min cosine distances.

    Rows that occur verbatim in the other matrix contribute an exact zero
    distance, so equal row sets score exactly 1.0 regardless of float noise.
    The result is not clamped; strongly anti-aligned sets can go negative.
    """
    best_ab, best_ba = _best_matches(a, b)
    return 1.0 - (float((1.0 - best_ab).mean()) + float((1.0 - best_ba).mean())) / 2.0


class MatchPct(NamedTuple):
    a_to_b: float
    b_to_a: float
    average: float


def semantic_match_pct(a: np.ndarray, b: np.ndarray, tau: float = DEFAULT_TAU) -> MatchPct:
    """Percentage of rows whose best cosine match into the other set is >= tau.

    Returned per direction plus the bidirectional average. Verbatim row
    matches count at similarity exactly 1.0, so they pass any tau <= 1.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    best_ab, best_ba = _best_matches(a, b)
    pct_ab = 100.0 * float((best_ab >= tau).sum()) / best_ab.shape[0]
    pct_ba = 100.0 * float((best_ba >= tau).sum()) / best_ba.shape[0]
    return MatchPct(pct_ab, pct_ba, (pct_ab + pct_ba) / 2.0)


@dataclass
class PairwiseMatrix:
    """Symmetric run-by-run matrix for one metric over one category."""

    run_ids: list[str]
    values: list[list[float]]
    metric_id: str
    category: StructuralCategory

    def validate(self) -> None:
        n = len(self.run_ids)
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError("matrix dimensions must match run_ids")
        for i in range(n):
            for j in range(n):
                if self.values[i][j] != self.values[j][i]:
                    raise ValueError("pairwise matrix must be symmetric")

    def off_diagonal_mean(self) -> float:
        n = len(self.run_ids)
        cells = [self.values[i][j] for i in range(n) for j in range(i + 1, n)]
        if not cells:
            raise ValueError("no off-diagonal cells to average")
        return sum(cells) / len(cells)

    def to_dict(self) -> dict:
        return {
            "run_ids": self.run_ids,
            "values": self.values,
            "metric_id": self.metric_id,
            "category": self.category.value,
        }


@dataclass
class CategoryRow:
    """One aggregate report row: a category compared across all runs."""

    category: StructuralCategory
    run_ids: list[str]
    yields: list[int]
    yield_mean: float
    yield_std: float
    yield_cv: Optional[float]
    avg_jaccard: float
    avg_hausdorff: float
    avg_match_pct: float
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "category": self.category.value,
            "run_ids": self.run_ids,
            "yields": self.yields,
            "yield_mean": self.yield_mean,
            "yield_std": self.yield_std,
            "yield_cv": self.yield_cv,
            "avg_jaccard": self.avg_jaccard,
            "avg_hausdorff": self.avg_hausdorff,
            "avg_match_pct": self.avg_match_pct,
            "flags": sorted(self.flags),
        }


@dataclass
class BucketRow:
    """Aggregate over ordered run pairs for one popularity bucket."""

    bucket: str
    pair_count: int
    avg_jaccard: Optional[float]
    avg_hausdorff: Optional[float]
    avg_match_pct: Optional[float]
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "bucket": self.bucket,
            "pair_count": self.pair_count,
            "avg_jaccard": self.avg_jaccard,
            "avg_hausdorff": self.avg_hausdorff,
            "avg_match_pct": self.avg_match_pct,
            "flags": sorted(self.flags),
        }


@dataclass
class CategoryComparison:
    matrices: dict[str, PairwiseMatrix]
    row: CategoryRow


@dataclass
class StabilityReport:
    suite_id: str
    tau: float
    provider_id: str
    rows: list[CategoryRow]
    matrices: list[PairwiseMatrix]
    bucket_rows: list[BucketRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "suite_id": self.suite_id,
            "tau": self.tau,
            "provider_id": self.provider_id,
            "rows": [row.to_dict() for row in self.rows],
            "matrices": [m.to_dict() for m in self.matrices],
            "bucket_rows": [row.to_dict() for row in self.bucket_rows],
        }


def category_elements(record, category: StructuralCategory) -> set[str]:
    kb = getattr(record, "kb", record)
    return derive_categories(kb)[category]


def _embed_sets(
    element_sets: Sequence[set[str]],
    provider: EmbeddingProvider,
    cache: Optional[EmbeddingCache],
) -> list[tuple[list[str], np.ndarray]]:
    out = []
    for members in element_sets:
        ordered = sorted(members)
        out.append((ordered, embed_batch(ordered, provider, cache)))
    return out


def _cells(
    metric_id: str,
    left: tuple[list[str], np.ndarray],
    right: tuple[list[str], np.ndarray],
    tau: float,
    flags: set[str],
) -> float:
    a_labels, a_m = left
    b_labels, b_m = right
    if not a_labels and not b_labels:
        flags.add("empty_set_convention")
        return _DIAGONAL[metric_id]
    if not a_labels or not b_labels:
        flags.add("empty_set_convention")
        return _ONE_EMPTY[metric_id]
    if metric_id == METRIC_LEXICAL:
        return jaccard(set(a_labels), set(b_labels))
    if metric_id == METRIC_HAUSDORFF:
        return hausdorff_similarity(a_m, b_m)
    if metric_id == METRIC_MATCH:
        return semantic_match_pct(a_m, b_m, tau).average
    raise ValueError(f"unknown metric {metric_id!r}")


def pairwise_report(
    records: Sequence[RunRecord],
    category: StructuralCategory,
    tau: float = DEFAULT_TAU,
    provider: Optional[EmbeddingProvider] = None,
    cache: Optional[EmbeddingCache] = None,
) -> CategoryComparison:
    """Compare one structural category across runs, every pair once."""
    if len(records) < 2:
        raise ValueError("pairwise comparison needs at least two runs")
    provider = provider or TrigramHashEmbedder()
    run_ids = [r.run_id for r in records]
    element_sets = [category_elements(r, category) for r in records]
    embedded = _embed_sets(element_sets, provider, cache)

    flags: set[str] = set()
    matrices: dict[str, PairwiseMatrix] = {}
    n = len(records)
    for metric_id in (METRIC_LEXICAL, METRIC_HAUSDORFF, METRIC_MATCH):
        values = [[_DIAGONAL[metric_id]] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                cell = _cells(metric_id, embedded[i], embedded[j], tau, flags)
                values[i][j] = cell
                values[j][i] = cell
        matrix = PairwiseMatrix(run_ids, values, metric_id, category)
        matrix.validate()
        matrices[metric_id] = matrix

    yields = [len(s) for s in element_sets]
    yield_mean = statistics.fmean(yields)
    yield_std = statistics.pstdev(yields)
    if yield_mean == 0:
        yield_cv: Optional[float] = None
        flags.add("zero_mean_yield")
    else:
        yield_cv = yield_std / yield_mean

    row = CategoryRow(
        category=category,
        run_ids=run_ids,
        yields=yields,
        yield_mean=yield_mean,
        yield_std=yield_std,
        yield_cv=yield_cv,
        avg_jaccard=matrices[METRIC_LEXICAL].off_diagonal_mean(),
        avg_hausdorff=matrices[METRIC_HAUSDORFF].off_diagonal_mean(),
        avg_match_pct=matrices[METRIC_MATCH].off_diagonal_mean(),
        flags=sorted(flags),
    )
    return CategoryComparison(matrices=matrices, row=row)


def bucketed_report(
    records: Sequence[RunRecord],
    assignments: Sequence,
    tau: float = DEFAULT_TAU,
    provider: Optional[EmbeddingProvider] = None,
    cache: Optional[EmbeddingCache] = None,
    category: StructuralCategory = StructuralCategory.NAMED_ENTITIES,
) -> list[BucketRow]:
    """Popularity-bucketed comparison: bucket slice of run i vs ALL of run j.

    Pairs are ordered (the bucket side and the full side differ), and a pair
    is skipped when the bucket is empty for run i. Buckets empty everywhere
    produce a flagged row with null metrics.
    """
    if category is not StructuralCategory.NAMED_ENTITIES:
        raise ValueError("bucketed comparison is defined over named entities")
    if len(records) != len(assignments):
        raise ValueError("one bucket assignment per run is required")
    if len(records) < 2:
        raise ValueError("bucketed comparison needs at least two runs")
    provider = provider or TrigramHashEmbedder()

    full_sets = [category_elements(r, category) for r in records]
    full_embedded = _embed_sets(full_sets, provider, cache)
    buckets_per_run = [getattr(a, "buckets", a) for a in assignments]
    bucket_names: list[str] = []
    for per_run in buckets_per_run:
        for name in per_run:
            if name not in bucket_names:
                bucket_names.append(name)

    rows: list[BucketRow] = []
    for name in bucket_names:
        flags: set[str] = set()
        lex: list[float] = []
        haus: list[float] = []
        match: list[float] = []
        for i in range(len(records)):
            members = buckets_per_run[i].get(name, set())
            if not members:
                flags.add(f"empty_bucket_skipped:{records[i].run_id}")
                continue
            ordered = sorted(members)
            full_labels, full_matrix = full_embedded[i]
            index = {label: k for k, label in enumerate(full_labels)}
            missing = [label for label in ordered if label not in index]
            if missing:
                raise ValueError(
                    f"bucket {name!r} of run {records[i].run_id} has labels "
                    f"outside the run's named entities: {missing[:3]}"
                )
            sub_matrix = full_matrix[[index[label] for label in ordered]]
            left = (ordered, sub_matrix)
            for j in range(len(records)):
                if i == j:
                    continue
                cell_flags: set[str] = set()
                lex.append(_cells(METRIC_LEXICAL, left, full_embedded[j], tau, cell_flags))
                haus.append(_cells(METRIC_HAUSDORFF, left, full_embedded[j], tau, cell_flags))
                match.append(_cells(METRIC_MATCH, left, full_embedded[j], tau, cell_flags))
                flags |= cell_flags
        if lex:
            rows.append(
                BucketRow(
                    bucket=name,
                    pair_count=len(lex),
                    avg_jaccard=sum(lex) / len(lex),
                    avg_hausdorff=sum(haus) / len(haus),
                    avg_match_pct=sum(match) / len(match),
                    flags=sorted(flags),
                )
            )
        else:
            flags.add("empty_for_all_runs")
            rows.append(
                BucketRow(
                    bucket=name,
                    pair_count=0,
                    avg_jaccard=None,
                    avg_hausdorff=None,
                    avg_match_pct=None,
                    flags=sorted(flags),
                )
            )
    return rows


def build_stability_report(
    records: Sequence[RunRecord],
    categories: Sequence[StructuralCategory],
    tau: float = DEFAULT_TAU,
    provider: Optional[EmbeddingProvider] = None,
    cache: Optional[EmbeddingCache] = None,
    suite_id: str = "",
    assignments: Optional[Sequence] = None,
) -> StabilityReport:
    provider = provider or TrigramHashEmbedder()
    rows: list[CategoryRow] = []
    matrices: list[PairwiseMatrix] = []
    for category in categories:
        comparison = pairwise_report(records, category, tau, provider, cache)
        rows.append(comparison.row)
        matrices.extend(comparison.matrices.values())
    bucket_rows: list[BucketRow] = []
    if assignments is not None:
        bucket_rows = bucketed_report(records, assignments, tau, provider, cache)
    return StabilityReport(
        suite_id=suite_id,
        tau=tau,
        provider_id=provider.provider_id,
        rows=rows,
        matrices=matrices,
        bucket_rows=bucket_rows,
    )


REPORT_JSON = "report.json"
REPORT_CSV = "report.csv"

_CSV_COLUMNS = [
    "scope",
    "name",
    "runs",
    "yield_mean",
    "yield_std",
    "yield_cv",
    "avg_jaccard",
    "avg_hausdorff",
    "avg_match_pct",
    "flags",
]


def write_report(report: StabilityReport, out_dir: Path) -> tuple[Path, Path]:
    """Emit report.json (full matrices) and report.csv (one row per scope)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / REPORT_JSON
    csv_path = out_dir / REPORT_CSV
    json_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    with csv_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        for row in report.rows:
            writer.writerow(
                [
                    "category",
                    row.category.value,
                    len(row.run_ids),
                    repr(row.yield_mean),
                    repr(row.yield_std),
                    "" if row.yield_cv is None else repr(row.yield_cv),
                    repr(row.avg_jaccard),
                    repr(row.avg_hausdorff),
                    repr(row.avg_match_pct),
                    ";".join(sorted(row.flags)),
                ]
            )
        for bucket in report.bucket_rows:
            writer.writerow(
                [
                    "bucket",
                    bucket.bucket,
                    bucket.pair_count,
                    "",
                    "",
                    "",
                    "" if bucket.avg_jaccard is None else repr(bucket.avg_jaccard),
                    "" if bucket.avg_hausdorff is None else repr(bucket.avg_hausdorff),
                    "" if bucket.avg_match_pct is None else repr(bucket.avg_match_pct),
                    ";".join(sorted(bucket.flags)),
                ]
            )
    return json_path, csv_path
