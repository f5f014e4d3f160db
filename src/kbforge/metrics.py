"""Run-to-run stability metrics: yield, lexical overlap, semantic similarity.

Everything here is pure computation over run records. Lexical similarity is
exact-match Jaccard over a structural category's element strings; semantic
similarity embeds those strings and compares sets either by averaged minimum
cosine distance (a Hausdorff-style score) or by thresholded best-match
percentages. Reports aggregate pairwise values over the off-diagonal only.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .embeddings import (
    EmbeddingCache,
    EmbeddingProvider,
    TrigramHashEmbedder,
    embed_batch,
    normalise_rows,
    pairwise_cosine_similarity,
)
from .model import RunRecord, StructuralCategory, csv_lines, derive_categories, write_atomic
from .popularity import BucketAssignment

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


def yield_counts(record: RunRecord) -> dict[StructuralCategory, int]:
    """Element count per structural category for one run."""
    return {cat: len(members) for cat, members in derive_categories(record.kb).items()}


def jaccard(a: set, b: set) -> float:
    """Set overlap in [0, 1]; two empty sets count as identical."""
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


def _as_rows(matrix: np.ndarray, name: str) -> np.ndarray:
    rows = np.ascontiguousarray(matrix, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 2-D matrix")
    return rows


# Rows per similarity product, which holds at most this many rows times the
# category's distinct rows, next to the table's one normalised copy; and rows
# per neighbour comparison in ``_distinct``.
_BLOCK_ROWS = 256


def _distinct(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The byte-distinct rows of ``vectors``: ``(rows, first, inverse)``.

    ``rows`` is ``vectors[first]``, a new array the caller owns, and
    ``inverse`` maps each row of ``vectors`` to its index in ``rows``.
    ``vectors`` is only read. All three equal what ``np.unique`` returns for
    the rows' bytes as void keys with ``return_index`` and ``return_inverse``:
    this is its algorithm, a stable sort and a comparison of sorted
    neighbours, run on indices so that it copies no more of ``vectors`` than
    ``rows`` and one block of neighbours. Bytes, not values, are compared,
    so ``0.0`` and ``-0.0`` are distinct.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    keys = vectors.view(np.dtype((np.void, 8 * vectors.shape[1]))).ravel()
    order = keys.argsort(kind="mergesort")
    starts = np.empty(keys.shape[0], dtype=bool)
    starts[:1] = True
    for start in range(1, keys.shape[0], _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, keys.shape[0])
        starts[start:stop] = keys[order[start:stop]] != keys[order[start - 1 : stop - 1]]
    first = order[starts]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return vectors[first], first, inverse


def _best_into(unit: np.ndarray, sets: Sequence[np.ndarray]) -> np.ndarray:
    """``best[s, r]``: distinct row ``r``'s best cosine similarity into set ``s``.

    ``unit`` holds the distinct rows scaled to unit length, as
    ``normalise_rows`` leaves them; it is only read. Each set lists its
    members as indices into ``unit``. A row scores exactly 1.0 in a set that
    holds it, so equal sets reach the ceiling regardless of float noise.
    Rows held by every set go through no product; the others go against
    all rows, ``_BLOCK_ROWS`` at a time. Columns are grouped by membership
    pattern (which sets hold the column's row): each pattern's maximum is
    taken once, over its columns, and a set's value is the maximum over the
    patterns that include it. Besides the new ``best``, this holds one
    block's product and one pattern's gather from it at a time.

    The columns keep their order: BLAS kernels compute a product's last few
    columns on a separate path, so moving a row there can change its
    similarities in the last bit.
    """
    held = np.zeros((len(sets), unit.shape[0]), dtype=bool)
    for s, members in enumerate(sets):
        held[s, members] = True
    best = np.zeros(held.shape)
    patterns, pattern_of = np.unique(held.T, axis=0, return_inverse=True)
    order = np.argsort(pattern_of, kind="stable")
    columns = np.split(order, np.flatnonzero(np.diff(pattern_of[order])) + 1)
    todo = np.flatnonzero(~held.all(axis=0))
    for start in range(0, todo.shape[0], _BLOCK_ROWS):
        block = todo[start : start + _BLOCK_ROWS]
        sim = pairwise_cosine_similarity(unit[block], unit)
        per_pattern = np.stack([sim[:, cols].max(axis=1) for cols in columns], axis=1)
        # Freed here, or the next block's product would be allocated beside it.
        del sim
        for s, holds in enumerate(patterns.T):
            if holds.any():
                best[s, block] = per_pattern[:, holds].max(axis=1)
    best[held] = 1.0
    return best


def _best_matches(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best cosine similarity into the other set: (A to B, B to A)."""
    a = _as_rows(a, "A")
    b = _as_rows(b, "B")
    if a.shape[1] != b.shape[1]:
        raise ValueError("matrices must share one embedding dimension")
    rows, _, inverse = _distinct(np.vstack([a, b]))
    members = [inverse[: a.shape[0]], inverse[a.shape[0] :]]
    best = _best_into(normalise_rows(rows), members)
    return best[1, members[0]], best[0, members[1]]


def _hausdorff(best_ab: np.ndarray, best_ba: np.ndarray) -> float:
    return 1.0 - (float((1.0 - best_ab).mean()) + float((1.0 - best_ba).mean())) / 2.0


def hausdorff_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """One minus the symmetric average of directed mean-min cosine distances.

    Rows that occur verbatim in the other matrix contribute an exact zero
    distance, so equal row sets score exactly 1.0 regardless of float noise.
    The result is not clamped; strongly anti-aligned sets can go negative.
    """
    return _hausdorff(*_best_matches(a, b))


class MatchPct(NamedTuple):
    a_to_b: float
    b_to_a: float
    average: float


def _check_tau(tau: float) -> None:
    """Refuse a match threshold outside (0, 1], where it enters a comparison."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")


def _match_pct(best_ab: np.ndarray, best_ba: np.ndarray, tau: float) -> MatchPct:
    pct_ab = 100.0 * float((best_ab >= tau).sum()) / best_ab.shape[0]
    pct_ba = 100.0 * float((best_ba >= tau).sum()) / best_ba.shape[0]
    return MatchPct(pct_ab, pct_ba, (pct_ab + pct_ba) / 2.0)


def semantic_match_pct(a: np.ndarray, b: np.ndarray, tau: float = DEFAULT_TAU) -> MatchPct:
    """Percentage of rows whose best cosine match into the other set is >= tau.

    Returned per direction plus the bidirectional average. Verbatim row
    matches count at similarity exactly 1.0, so they pass any tau <= 1.
    """
    _check_tau(tau)
    return _match_pct(*_best_matches(a, b), tau)


@dataclass
class PairwiseMatrix:
    """Symmetric run-by-run matrix for one metric over one category."""

    run_ids: list[str]
    values: list[list[float]]
    metric_id: str
    category: StructuralCategory


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


@dataclass
class BucketRow:
    """Aggregate over ordered run pairs for one popularity bucket."""

    bucket: str
    pair_count: int
    avg_jaccard: Optional[float]
    avg_hausdorff: Optional[float]
    avg_match_pct: Optional[float]
    flags: list[str] = field(default_factory=list)


@dataclass
class CategoryComparison:
    matrices: dict[str, PairwiseMatrix]
    row: CategoryRow
    bucket_rows: list[BucketRow] = field(default_factory=list)


@dataclass
class StabilityReport:
    suite_id: str
    tau: float
    provider_id: str
    rows: list[CategoryRow]
    matrices: list[PairwiseMatrix]
    bucket_rows: list[BucketRow] = field(default_factory=list)


def category_elements(record: RunRecord, category: StructuralCategory) -> set[str]:
    return derive_categories(record.kb)[category]


class _Table(NamedTuple):
    """Label sets, each set's sorted labels as distinct rows, and ``best`` over them."""

    sets: list[set[str]]
    members: list[np.ndarray]
    best: np.ndarray


def _table(sets: list[set[str]], provider: EmbeddingProvider, cache) -> _Table:
    """Embed every distinct label of the sets once and fill one best-match table.

    The provider's rows (which the cache may keep) are only read; the table
    normalises its own copy of the distinct rows in place.
    """
    union = sorted(set().union(*sets))
    rows, _, inverse = _distinct(embed_batch(union, provider, cache))
    row_of = dict(zip(union, inverse.tolist()))
    members = [np.array([row_of[label] for label in sorted(s)], dtype=np.intp) for s in sets]
    return _Table(sets, members, _best_into(normalise_rows(rows), members))


def _cells(table: _Table, i: int, j: int, tau: float, flags: set[str]) -> dict[str, float]:
    """Jaccard, Hausdorff similarity and match % of sets ``i`` and ``j`` of a table."""
    a, b = table.sets[i], table.sets[j]
    if not a and not b:
        flags.add("empty_set_convention")
        return dict(_DIAGONAL)
    if not a or not b:
        flags.add("empty_set_convention")
        return dict(_ONE_EMPTY)
    best_ab, best_ba = table.best[j, table.members[i]], table.best[i, table.members[j]]
    return {
        METRIC_LEXICAL: jaccard(a, b),
        METRIC_HAUSDORFF: _hausdorff(best_ab, best_ba),
        METRIC_MATCH: _match_pct(best_ab, best_ba, tau).average,
    }


# The field of a report row that holds each metric's mean over the row's cells.
_MEAN_FIELDS = {METRIC_LEXICAL: "avg_jaccard", METRIC_HAUSDORFF: "avg_hausdorff", METRIC_MATCH: "avg_match_pct"}


def _means(cells: list[dict[str, float]]) -> dict[str, Optional[float]]:
    """Each metric's row field and mean over ``cells``, summed in list order; None without cells."""
    return {name: sum(c[m] for c in cells) / len(cells) if cells else None for m, name in _MEAN_FIELDS.items()}


def pairwise_report(
    records: Sequence[RunRecord],
    category: StructuralCategory,
    tau: float = DEFAULT_TAU,
    provider: Optional[EmbeddingProvider] = None,
    cache: Optional[EmbeddingCache] = None,
    *,
    element_sets: Optional[Sequence[set[str]]] = None,
    assignments: Optional[Sequence[BucketAssignment]] = None,
) -> CategoryComparison:
    """Compare one structural category across runs, every pair once.

    ``element_sets`` holds each run's elements of ``category`` when the
    caller has derived them already; by default they are derived here.
    ``assignments`` (named entities only) holds one popularity bucket
    assignment per run. Each run's non-empty slice of each bucket is one
    more set in the category's one table, and ``bucket_rows`` averages each
    bucket over its ordered pairs (slice of run i, all of run j), skipping
    the runs whose slice is empty; a bucket empty for every run gets a
    flagged row with null metrics.
    """
    if len(records) < 2:
        raise ValueError("pairwise comparison needs at least two runs")
    _check_tau(tau)
    provider = provider or TrigramHashEmbedder()
    run_ids = [r.run_id for r in records]
    if element_sets is None:
        element_sets = [category_elements(r, category) for r in records]
    n = len(records)
    sets = list(element_sets)
    # Per bucket, in first-seen order: its flags and its ordered pairs of
    # (slice of run i, all of run j); each slice is one more set in the table.
    plan: list[tuple[str, set[str], list[tuple[int, int]]]] = []
    if assignments is not None:
        if category is not StructuralCategory.NAMED_ENTITIES:
            raise ValueError("popularity buckets split named entities only")
        if len(assignments) != n:
            raise ValueError("one bucket assignment per run is required")
        for name in dict.fromkeys(bucket for a in assignments for bucket in a.buckets):
            bucket_flags: set[str] = set()
            pairs: list[tuple[int, int]] = []
            for i, assignment in enumerate(assignments):
                members = set(assignment.buckets.get(name, ()))
                if not members:
                    bucket_flags.add(f"empty_bucket_skipped:{run_ids[i]}")
                    continue
                missing = sorted(members - sets[i])
                if missing:
                    raise ValueError(
                        f"bucket {name!r} of run {run_ids[i]} has labels "
                        f"outside the run's named entities: {missing[:3]}"
                    )
                pairs.extend((len(sets), j) for j in range(n) if j != i)
                sets.append(members)
            plan.append((name, bucket_flags, pairs))
    table = _table(sets, provider, cache)

    flags: set[str] = set()
    # Every pair once, in row-major order of the upper triangle.
    cells = {(i, j): _cells(table, i, j, tau, flags) for i in range(n) for j in range(i + 1, n)}
    values = {metric_id: [[diagonal] * n for _ in range(n)] for metric_id, diagonal in _DIAGONAL.items()}
    for (i, j), cell in cells.items():
        for metric_id, value in cell.items():
            values[metric_id][i][j] = values[metric_id][j][i] = value
    matrices = {m: PairwiseMatrix(run_ids, rows, m, category) for m, rows in values.items()}

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
        **_means(list(cells.values())),
        flags=sorted(flags),
    )
    bucket_rows: list[BucketRow] = []
    for name, bucket_flags, pairs in plan:
        bucket_cells = [_cells(table, k, j, tau, bucket_flags) for k, j in pairs]
        if not bucket_cells:
            bucket_flags.add("empty_for_all_runs")
        bucket_rows.append(BucketRow(name, len(bucket_cells), **_means(bucket_cells), flags=sorted(bucket_flags)))
    return CategoryComparison(matrices=matrices, row=row, bucket_rows=bucket_rows)


def bucketed_report(
    records: Sequence[RunRecord],
    assignments: Sequence[BucketAssignment],
    tau: float = DEFAULT_TAU,
    provider: Optional[EmbeddingProvider] = None,
    cache: Optional[EmbeddingCache] = None,
) -> list[BucketRow]:
    """Popularity-bucketed comparison: bucket slice of run i vs ALL of run j.

    The bucket rows of the named entities' ``pairwise_report``, whose one
    table holds the slices beside the runs' sets.
    """
    return pairwise_report(
        records, StructuralCategory.NAMED_ENTITIES, tau, provider, cache, assignments=assignments
    ).bucket_rows


def build_stability_report(
    records: Sequence[RunRecord],
    categories: Sequence[StructuralCategory],
    tau: float = DEFAULT_TAU,
    provider: Optional[EmbeddingProvider] = None,
    cache: Optional[EmbeddingCache] = None,
    suite_id: str = "",
    assignments: Optional[Sequence[BucketAssignment]] = None,
) -> StabilityReport:
    """Compare every category, and the popularity buckets if given.

    Each run's categories are derived once, each distinct label is embedded
    once for the whole report, and each compared category fills one table.
    The bucket rows come from the named entities' table, which is compared
    for them even when named entities are not among ``categories``; the
    report then holds no row or matrix of its own for them.
    """
    provider = provider or TrigramHashEmbedder()
    # Without a caller's cache, an in-memory one still embeds a label
    # compared in several categories once.
    vectors = cache if cache is not None else EmbeddingCache()
    named = StructuralCategory.NAMED_ENTITIES
    compared = list(categories)
    if assignments is not None and named not in compared:
        compared.append(named)
    # Only the compared sets are kept, so the others are freed at once.
    derived = []
    for record in records:
        sets = derive_categories(record.kb)
        derived.append({category: sets[category] for category in compared})
    rows: list[CategoryRow] = []
    matrices: list[PairwiseMatrix] = []
    bucket_rows: list[BucketRow] = []
    for category in compared:
        comparison = pairwise_report(
            records, category, tau, provider, vectors,
            element_sets=[d[category] for d in derived],
            assignments=assignments if category is named else None,
        )
        if category in categories:
            rows.append(comparison.row)
            matrices.extend(comparison.matrices.values())
        if category is named:
            bucket_rows = comparison.bucket_rows
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


def _json_fields(fields: list[tuple[str, object]]) -> dict:
    """A report dataclass as a JSON object: enum fields become their values."""
    return {name: value.value if isinstance(value, Enum) else value for name, value in fields}


def write_report(report: StabilityReport, out_dir: Path) -> tuple[Path, Path]:
    """Emit report.json (full matrices) and report.csv (one row per scope).

    Each file is replaced whole (see ``write_atomic``).
    """
    out_dir = Path(out_dir)
    json_path = out_dir / REPORT_JSON
    csv_path = out_dir / REPORT_CSV
    write_atomic(
        json_path,
        [json.dumps(asdict(report, dict_factory=_json_fields), indent=2, sort_keys=True, ensure_ascii=False) + "\n"],
    )
    scopes = [
        ("category", row.category.value, len(row.run_ids), row.yield_mean, row.yield_std,
         row.yield_cv, row.avg_jaccard, row.avg_hausdorff, row.avg_match_pct, row.flags)
        for row in report.rows
    ] + [
        ("bucket", row.bucket, row.pair_count, None, None,
         None, row.avg_jaccard, row.avg_hausdorff, row.avg_match_pct, row.flags)
        for row in report.bucket_rows
    ]
    rows = (
        [scope, name, runs, *("" if v is None else repr(v) for v in values), ";".join(flags)]
        for scope, name, runs, *values, flags in scopes
    )
    write_atomic(csv_path, csv_lines([_CSV_COLUMNS, *rows]))
    return json_path, csv_path
