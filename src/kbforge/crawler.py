"""Recursive knowledge materialization: BFS over subjects elicited from a model.

Layer 0 holds the seed entity. Each layer elicits facts for every frontier
subject, classifies unseen object labels, and admits new named entities to
the next frontier unless they look degenerate (bare Q-identifiers,
trailing-syllable repetition, absurdly long labels). The crawl ends
organically when the frontier empties, or with the first cap that fires.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path
from typing import Callable, Optional, Sequence

from .gateway import (
    ElicitationRequest,
    ElicitationResponse,
    MalformedOutputError,
    NerRequest,
)
from .model import (
    Caps,
    DegeneracyEvent,
    KnowledgeBase,
    LayerStats,
    RunConfig,
    RunRecord,
    Termination,
    TermKind,
    Triple,
    normalize_label,
    save_run,
    utcnow,
)

logger = logging.getLogger(__name__)

SUITE_DIMENSIONS = ("base", "seed", "language", "temperature", "model")

Q_IDENTIFIER = re.compile(r"Q[0-9]+")
_TOKEN_SPLIT = re.compile(r"[-\s]+")

# Detector thresholds. Labels may legitimately repeat a syllable twice
# (reduplicated names exist); three consecutive trailing repeats is the
# point where generation loops, not language, is the credible explanation.
MAX_REPEATS = 3
OVERLONG_THRESHOLD = 200

# Phrases per NER request, on either backend.
NER_BATCH = 100


def detect_q_identifier(label: str) -> bool:
    """True for a bare Wikidata-style identifier: 'Q' plus digits, nothing else."""
    return Q_IDENTIFIER.fullmatch(label) is not None


def detect_repetition_loop(label: str) -> bool:
    """True when the label ends in >= MAX_REPEATS consecutive copies of a token.

    Tokens are split on hyphens and whitespace; only the trailing run counts.
    """
    tokens = [t for t in _TOKEN_SPLIT.split(label) if t]
    if not tokens:
        return False
    run = 1
    for prev, cur in zip(reversed(tokens[:-1]), reversed(tokens[1:])):
        if prev != cur:
            break
        run += 1
    return run >= MAX_REPEATS


def detect_overlong_label(label: str) -> bool:
    return len(label) > OVERLONG_THRESHOLD


def classify_degeneracy(label: str) -> Optional[str]:
    """Name the first degeneracy a label exhibits, or None for a clean label."""
    if detect_q_identifier(label):
        return "q_identifier"
    if detect_repetition_loop(label):
        return "repetition_loop"
    if detect_overlong_label(label):
        return "overlong_label"
    return None


def default_run_id(config: RunConfig) -> str:
    digest = hashlib.sha1(
        "|".join(
            [
                config.topic,
                config.seed_entity,
                config.prompt_language,
                str(config.temperature),
                config.model_id,
            ]
        ).encode("utf-8")
    ).hexdigest()
    return f"run-{digest[:10]}"


def crawl(
    config: RunConfig,
    gateway,
    run_id: str = "",
    clock: Callable[[], float] = time.monotonic,
) -> RunRecord:
    """Run one bounded knowledge crawl and return its full record.

    Caps are checked at every layer boundary; the wall clock is additionally
    checked before each request, so a timed-out run loses at most the
    remainder of its current layer. A subject whose elicitation output stays
    malformed after retries contributes zero triples but counts as visited,
    and a NER batch whose output stays malformed makes its labels literals.
    Degenerate entity names keep their triples but never enter the frontier.

    A gateway that waits on a network (one with ``for_run``) gets one pool
    of ``config.parallelism`` threads for the whole run, so that many
    requests are in flight at once. An in-process gateway never waits, and
    its crawl runs on the calling thread.
    """
    config.validate()
    run_id = run_id or default_run_id(config)
    if not hasattr(gateway, "for_run"):
        return _crawl(config, gateway, map, run_id, clock)
    # A remote gateway sends this run's model and temperature, not its own,
    # over a connection pool that lives as long as the run, as do the threads.
    with (
        closing(gateway.for_run(config, run_id)) as bound,
        ThreadPoolExecutor(max_workers=config.parallelism) as pool,
    ):
        return _crawl(config, bound, pool.map, run_id, clock)


def _crawl(
    config: RunConfig,
    gateway,
    map_: Callable,
    run_id: str,
    clock: Callable[[], float],
) -> RunRecord:
    """The BFS of ``crawl``. ``map_(fetch, frontier)`` elicits one layer's
    subjects, on the calling thread or on the run's pool, in frontier order."""
    started_at = utcnow()
    start = clock()
    deadline = start + config.caps.max_wall_seconds

    kb = KnowledgeBase()
    kinds: dict[str, TermKind] = {}
    events: list[DegeneracyEvent] = []
    per_layer: list[LayerStats] = []

    seed = normalize_label(config.seed_entity)
    kinds[seed] = TermKind.NAMED_ENTITY
    # The not-yet-expanded subjects of the current layer, in discovery order.
    layer = 0
    frontier = [seed]
    termination: Optional[Termination] = None
    deepest_layer = 0

    def fetch(subject: str) -> Optional[ElicitationResponse]:
        if clock() >= deadline:
            return None
        try:
            return gateway.elicit(
                ElicitationRequest(subject, config.topic, config.prompt_language)
            )
        except MalformedOutputError as exc:
            logger.warning("subject %r failed elicitation: %s", subject, exc)
            return ElicitationResponse([])

    def classify(batch: list[str]) -> list[bool]:
        request = NerRequest(batch, config.topic, config.prompt_language)
        try:
            return gateway.classify_ner(request).verdicts
        except MalformedOutputError as exc:
            # Conservative fallback: an unparseable batch stops expansion
            # instead of admitting unvetted phrases to the frontier.
            logger.warning("NER batch of %d defaulted to non-entity: %s", len(batch), exc)
            return [False] * len(batch)

    while frontier:
        if clock() >= deadline:
            termination = Termination.CAPPED_TIME
            break
        if len(kb) >= config.caps.max_triples:
            termination = Termination.CAPPED_TRIPLES
            break
        if layer >= config.caps.max_layers:
            termination = Termination.CAPPED_LAYERS
            break

        deepest_layer = layer
        responses = list(map_(fetch, frontier))

        timed_out = False
        pending: list[tuple[str, str, str]] = []
        new_labels: list[str] = []
        seen_now: set[str] = set()
        for subject, response in zip(frontier, responses):
            if response is None:
                timed_out = True
                continue
            kb.visited_subjects.add(subject)
            # The BFS graph stays well-formed only if every returned fact hangs
            # off the requested subject: divergent subjects are overwritten,
            # not dropped.
            for _, p, o in response.triples:
                p2, o2 = normalize_label(p), normalize_label(o)
                if not p2 or not o2:
                    continue
                pending.append((subject, p2, o2))
                if o2 not in kinds and o2 not in seen_now:
                    seen_now.add(o2)
                    new_labels.append(o2)

        if new_labels:
            if clock() >= deadline:
                timed_out = True
                for label in new_labels:
                    kinds[label] = TermKind.LITERAL
            else:
                for start in range(0, len(new_labels), NER_BATCH):
                    batch = new_labels[start : start + NER_BATCH]
                    for label, verdict in zip(batch, classify(batch)):
                        kinds[label] = TermKind.NAMED_ENTITY if verdict else TermKind.LITERAL

        added = kb.add_all(
            Triple(
                subject=s,
                predicate=p,
                object=o,
                object_kind=kinds[o],
                layer=layer,
            )
            for s, p, o in pending
        )

        next_subjects: list[str] = []
        for label in new_labels:
            if kinds[label] is not TermKind.NAMED_ENTITY:
                continue
            if label in kb.visited_subjects:
                continue
            kind = classify_degeneracy(label)
            if kind is not None:
                events.append(DegeneracyEvent(kind=kind, entity=label, layer=layer + 1))
                continue
            next_subjects.append(label)

        per_layer.append(
            LayerStats(layer=layer, new_entities=len(next_subjects), new_triples=added)
        )
        if timed_out:
            termination = Termination.CAPPED_TIME
            break
        layer += 1
        frontier = next_subjects

    if termination is None:
        termination = Termination.ORGANIC

    return RunRecord(
        run_id=run_id,
        config=config,
        kb=kb,
        termination=termination,
        wall_seconds=clock() - start,
        deepest_layer=deepest_layer,
        per_layer_counts=per_layer,
        degeneracy_events=events,
        started_at=started_at,
        finished_at=utcnow(),
    )


SUITE_MANIFEST = "suite.json"


def run_suite(
    configs: Sequence[RunConfig],
    gateway,
    suite_dir: Path,
    dimension: str = "base",
    clock: Callable[[], float] = time.monotonic,
) -> list[Optional[RunRecord]]:
    """Execute several crawls independently and persist them under one suite.

    Runs share nothing but the gateway. A gateway that waits on a network
    (one with ``for_run``) crawls all runs at the same time, one thread per
    run, each with its own ``parallelism`` workers, so up to the sum of the
    runs' ``parallelism`` requests are in flight. An in-process gateway never
    waits, so its runs go one after another on the calling thread, where
    extra threads would only add memory. Each run's wall-clock cap counts
    time shared with its siblings.

    A run that raises is recorded as failed in the suite manifest (and with
    a FAILED marker in its directory) without aborting its siblings. The
    records, the manifest's ``run_ids`` and its ``failed`` entries follow
    the order of ``configs``. An interrupt such as Ctrl-C ends every run at
    its next clock check, with a FAILED marker, and writes no manifest.
    """
    if not configs:
        raise ValueError("suite needs at least one run config")
    if dimension not in SUITE_DIMENSIONS:
        raise ValueError(f"unknown suite dimension {dimension!r}")
    suite_dir = Path(suite_dir)
    suite_dir.mkdir(parents=True, exist_ok=True)
    started_at = utcnow()
    run_ids = [f"run-{index:03d}" for index in range(len(configs))]
    interrupted = threading.Event()

    def run_clock() -> float:
        # Once the suite is interrupted, each run ends at its next clock check.
        if interrupted.is_set():
            raise RuntimeError("suite interrupted")
        return clock()

    def run(config: RunConfig, run_id: str) -> tuple[Optional[RunRecord], str]:
        """The run's record, or None and the error that failed it."""
        run_dir = suite_dir / run_id
        try:
            record = crawl(config, gateway, run_id=run_id, clock=run_clock)
            save_run(record, run_dir)
            return record, ""
        except Exception as exc:  # noqa: BLE001 - a bad run must not kill the suite
            logger.error("run %s failed: %s", run_id, exc)
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "FAILED").write_text(f"{exc}\n", encoding="utf-8")
            return None, str(exc)

    if hasattr(gateway, "for_run"):
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            try:
                outcomes = list(pool.map(run, configs, run_ids))
            except BaseException:
                # Ctrl-C: stop the runs rather than wait for them to finish.
                interrupted.set()
                raise
    else:
        outcomes = list(map(run, configs, run_ids))

    manifest = {
        "dimension": dimension,
        "run_ids": run_ids,
        "failed": {
            run_id: error
            for run_id, (record, error) in zip(run_ids, outcomes)
            if record is None
        },
        "started_at": started_at,
        "finished_at": utcnow(),
    }
    (suite_dir / SUITE_MANIFEST).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return [record for record, _ in outcomes]
