"""Recursive knowledge materialization: BFS over subjects elicited from a model.

Layer 0 holds the seed entity. Each layer elicits facts for every frontier
subject, classifies unseen object labels, and admits new named entities to
the next frontier unless they look degenerate (bare Q-identifiers,
trailing-syllable repetition, absurdly long labels). The crawl ends
organically when the frontier empties, or with the first cap that fires.
"""

from __future__ import annotations

import hashlib
import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from .gateway import ElicitationRequest, MalformedOutputError, NerRequest
from .model import (
    FAILED_NAME,
    DegeneracyEvent,
    KnowledgeBase,
    LabelTable,
    LayerStats,
    RunConfig,
    RunRecord,
    Termination,
    TermKind,
    Triple,
    normalize_label,
    save_run,
    save_suite,
    utcnow,
    write_atomic,
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

    The record's KB holds the facts found, and its ``visited_count`` counts
    the subjects whose answers the crawl read, those that yielded no triples
    included; responses fetched ahead and never read do not count.

    Caps are checked at every layer boundary; the wall clock is additionally
    checked before each request, so a timed-out run loses at most the
    remainder of its current layer and the next-layer responses it fetched
    ahead. A subject whose elicitation output stays malformed after retries
    contributes zero triples but counts as visited, and a NER batch whose
    output stays malformed makes its labels literals. Degenerate entity
    names keep their triples but never enter the frontier.

    A layer has no barrier: each NER batch goes out as soon as the
    responses read so far, in frontier order, fill it, and the subjects it
    admits are elicited at once. A gateway that waits on a network (one
    with ``for_run``) elicits on one pool of ``config.parallelism`` threads
    for the whole run while the run's own thread sends the NER batches, so
    a run has up to ``parallelism`` + 1 requests, and connections, in
    flight. A run that stops early cancels the elicitations still queued.
    An in-process gateway never waits, and its crawl runs on the calling
    thread, each elicitation when its response is read.
    """
    config.validate()
    run_id = run_id or default_run_id(config)
    if not hasattr(gateway, "for_run"):
        return _crawl(config, gateway, partial, run_id, clock)
    # A remote gateway sends this run's model and temperature, not its own,
    # over a connection pool that lives as long as the run, as do the threads.
    with closing(gateway.for_run(config, run_id)) as bound:
        pool = ThreadPoolExecutor(max_workers=config.parallelism)
        try:
            return _crawl(config, bound, lambda fetch, subject: pool.submit(fetch, subject).result, run_id, clock)
        finally:
            # Subjects fetched ahead for a layer the run never reaches are dropped.
            pool.shutdown(cancel_futures=True)


def _crawl(
    config: RunConfig,
    gateway,
    submit: Callable,
    run_id: str,
    clock: Callable[[], float],
) -> RunRecord:
    """The BFS of ``crawl``. ``submit(fetch, subject)`` starts one subject's
    elicitation, on the run's pool or deferred to the calling thread, and
    returns the call that reads its response."""
    started_at = utcnow()
    start = clock()
    deadline = start + config.caps.max_wall_seconds

    # The crawl's facts in the order found, each once: a fact a response
    # repeats keeps its first copy. The returned KB holds only their list.
    facts: dict[Triple, None] = {}
    # Each frontier subject is new, so a count of the answers read counts subjects.
    visited = 0
    kinds: dict[str, TermKind] = {}
    events: list[DegeneracyEvent] = []
    per_layer: list[LayerStats] = []

    # Each distinct label the crawl meets is one string, however many
    # triples and layers hold it: the config's for the seed, otherwise the
    # first one the gateway served, since ``normalize_label`` returns a
    # normalized label as it is. So the runs of an in-process gateway share
    # its strings.
    labels = LabelTable()
    seed = labels[normalize_label(config.seed_entity)]
    kinds[seed] = TermKind.NAMED_ENTITY
    layer = 0
    termination: Optional[Termination] = None
    deepest_layer = 0

    def fetch(subject: str) -> Optional[list[tuple[str, str, str]]]:
        if clock() >= deadline:
            return None
        try:
            return gateway.elicit(
                ElicitationRequest(subject, config.topic, config.prompt_language)
            )
        except MalformedOutputError as exc:
            logger.warning("subject %r failed elicitation: %s", subject, exc)
            return []

    def admit(batch: list[str], next_frontier: list) -> bool:
        """Classify one batch of the layer's new labels and start fetching
        the named entities it admits to ``next_frontier``. False, leaving
        the labels literals, when the deadline has passed."""
        if clock() >= deadline:
            return False
        request = NerRequest(batch, config.topic, config.prompt_language)
        try:
            verdicts = gateway.classify_ner(request)
        except MalformedOutputError as exc:
            # Conservative fallback: an unparseable batch stops expansion
            # instead of admitting unvetted phrases to the frontier.
            logger.warning("NER batch of %d defaulted to non-entity: %s", len(batch), exc)
            return True
        # No request goes out for a layer past the layer cap.
        ahead = layer + 1 < config.caps.max_layers
        for label, verdict in zip(batch, verdicts):
            if not verdict:
                continue
            kinds[label] = TermKind.NAMED_ENTITY
            kind = classify_degeneracy(label)
            if kind is not None:
                events.append(DegeneracyEvent(kind=kind, entity=label, layer=layer + 1))
            else:
                next_frontier.append((label, submit(fetch, label) if ahead else None))
        return True

    # The current layer's subjects in discovery order, each with the call
    # that reads its response.
    frontier = [(seed, submit(fetch, seed))]
    while frontier:
        if clock() >= deadline:
            termination = Termination.CAPPED_TIME
            break
        if len(facts) >= config.caps.max_triples:
            termination = Termination.CAPPED_TRIPLES
            break
        if layer >= config.caps.max_layers:
            termination = Termination.CAPPED_LAYERS
            break

        deepest_layer = layer
        timed_out = False
        pending: list[tuple[str, str, str]] = []
        # The layer's new object labels whose NER batch has not gone yet.
        unsent: list[str] = []
        next_frontier: list[tuple[str, Optional[Callable]]] = []
        for subject, read in frontier:
            answer = read()
            if answer is None:
                timed_out = True
                continue
            visited += 1
            # The BFS graph stays well-formed only if every returned fact hangs
            # off the requested subject: divergent subjects are overwritten,
            # not dropped.
            for _, p, o in answer:
                p2, o2 = labels[normalize_label(p)], labels[normalize_label(o)]
                if not p2 or not o2:
                    continue
                pending.append((subject, p2, o2))
                if o2 not in kinds:
                    # A literal unless its NER batch says otherwise.
                    kinds[o2] = TermKind.LITERAL
                    unsent.append(o2)
            while len(unsent) >= NER_BATCH:
                timed_out |= not admit(unsent[:NER_BATCH], next_frontier)
                del unsent[:NER_BATCH]
        if unsent:
            timed_out |= not admit(unsent, next_frontier)

        before = len(facts)
        for s, p, o in pending:
            facts[Triple(s, p, o, kinds[o], layer)] = None
        added = len(facts) - before

        per_layer.append(
            LayerStats(layer=layer, new_entities=len(next_frontier), new_triples=added)
        )
        if timed_out:
            termination = Termination.CAPPED_TIME
            break
        layer += 1
        frontier = next_frontier

    if termination is None:
        termination = Termination.ORGANIC
    # The dict is dropped before the KB's own dedupe pass, so that two
    # dicts of the whole crawl are never held at once.
    triples = list(facts)
    facts.clear()

    return RunRecord(
        run_id=run_id,
        config=config,
        kb=KnowledgeBase(triples),
        termination=termination,
        wall_seconds=clock() - start,
        deepest_layer=deepest_layer,
        per_layer_counts=per_layer,
        degeneracy_events=events,
        started_at=started_at,
        finished_at=utcnow(),
        visited_count=visited,
    )


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
    run, each with its own ``parallelism`` workers and a NER batch of its
    own, so up to the sum of the runs' ``parallelism`` + 1 requests are in
    flight. An in-process gateway never waits, so its runs go one after
    another on the calling thread, where extra threads would only add
    memory. Each run's wall-clock cap counts time shared with its siblings.

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
            write_atomic(run_dir / FAILED_NAME, [f"{exc}\n"])
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

    failed = {run_id: error for run_id, (record, error) in zip(run_ids, outcomes) if record is None}
    save_suite(suite_dir, dimension, run_ids, failed, started_at)
    return [record for record, _ in outcomes]
