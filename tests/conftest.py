import csv
import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from kbforge.gateway import MockWorldGateway
from kbforge.model import Caps, KnowledgeBase, RunConfig, TermKind, Triple

import acceptance_log

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def babylon_world_path() -> Path:
    return DATA_DIR / "babylon_world.json"


@pytest.fixture
def loop_world_path() -> Path:
    return DATA_DIR / "loop_world.json"


@pytest.fixture
def babylon_gateway(babylon_world_path) -> MockWorldGateway:
    return MockWorldGateway(babylon_world_path)


@pytest.fixture
def babylon_config() -> RunConfig:
    return RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=2)


@pytest.fixture
def loop_config() -> RunConfig:
    return RunConfig(
        topic="babylon",
        seed_entity="Nabu-mukin-zeri",
        caps=Caps(max_layers=5),
        parallelism=2,
    )


# Twelve triples whose category memberships are easy to enumerate by hand:
# 10 named entities, 3 literals, 8 predicates, 5 classes ("Title" is both a
# class and a literal on purpose).
FIXTURE_ROWS = [
    ("Hammurabi", "instanceOf", "King", TermKind.NAMED_ENTITY, 0),
    ("Hammurabi", "ruledOver", "Babylon", TermKind.NAMED_ENTITY, 0),
    ("Hammurabi", "reignStart", "1792 BC", TermKind.LITERAL, 0),
    ("Babylon", "instanceOf", "City", TermKind.NAMED_ENTITY, 1),
    ("Babylon", "locatedIn", "Mesopotamia", TermKind.NAMED_ENTITY, 1),
    ("Babylon", "patronDeity", "Marduk", TermKind.NAMED_ENTITY, 1),
    ("Babylon", "onRiver", "Euphrates", TermKind.NAMED_ENTITY, 1),
    ("King", "instanceOf", "Title", TermKind.LITERAL, 1),
    ("Marduk", "instanceOf", "Deity", TermKind.NAMED_ENTITY, 2),
    ("Marduk", "defeated", "Tiamat", TermKind.NAMED_ENTITY, 2),
    ("Mesopotamia", "instanceOf", "Region", TermKind.NAMED_ENTITY, 2),
    ("Tiamat", "epithet", "the primordial sea", TermKind.LITERAL, 3),
]


def build_fixture_kb() -> KnowledgeBase:
    return KnowledgeBase(
        Triple(subject=s, predicate=p, object=o, object_kind=kind, layer=layer)
        for s, p, o, kind, layer in FIXTURE_ROWS
    )


@pytest.fixture
def fixture_kb() -> KnowledgeBase:
    return build_fixture_kb()


def synthetic_kb(size: int, seed: int = 5) -> KnowledgeBase:
    """A KB of ``size`` distinct random facts over 600 entities, 30
    predicates and 1,500 literals; half the objects are entities."""
    rng = random.Random(seed)
    entities = [f"Entity {rng.randrange(10**6)} of Babylon" for _ in range(600)]
    predicates = [f"predicate{i}" for i in range(30)]
    literals = [f"literal value {i}" for i in range(1500)]
    facts: dict[Triple, None] = {}
    while len(facts) < size:
        named = rng.random() < 0.5
        facts[Triple(
            rng.choice(entities), rng.choice(predicates),
            rng.choice(entities if named else literals),
            TermKind.NAMED_ENTITY if named else TermKind.LITERAL, rng.randrange(5),
        )] = None
    return KnowledgeBase(facts)


def held_bytes(call):
    """``call()``'s result and the bytes it left allocated, as ``tracemalloc``
    counts them after a garbage collection."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def label_objects(kbs) -> dict[str, set[int]]:
    """Each label held by the KBs' triples -> the ids of the string objects
    that hold it; one id per label when equal labels share one string."""
    objects: dict[str, set[int]] = {}
    for kb in kbs:
        for t in kb.triples:
            for label in t.key():
                objects.setdefault(label, set()).add(id(label))
    return objects


@pytest.fixture
def failing_csv_writer(monkeypatch):
    """Make every ``csv.writer`` raise OSError on its third row, after two rows."""
    real_writer = csv.writer

    class Writer:
        def __init__(self, handle):
            self.inner = real_writer(handle)
            self.rows = 0

        def writerow(self, row):
            if self.rows == 2:
                raise OSError("disk full")
            self.rows += 1
            return self.inner.writerow(row)

    monkeypatch.setattr(csv, "writer", Writer)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_log.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(acceptance_log.RESULTS):
        status, description = acceptance_log.RESULTS[number]
        terminalreporter.write_line(f"CRITERION {number} {status}: {description}")
