"""Core data model: triples, knowledge bases, run configuration and run records.

A knowledge base is an ordered, deduplicated collection of (subject,
predicate, object) facts. Every other module works against the types
defined here; category derivation is pure and shared by the metrics and
export layers. The on-disk line format (NDJSON: one JSON object per line,
non-ASCII text unescaped) is also defined here, for run triples and for
every append-only store in the package.
"""

from __future__ import annotations

import datetime
import json
import re
import threading
from dataclasses import dataclass, field, asdict
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

# Separator used when a whole triple is flattened to a single set element.
# U+241F (symbol for unit separator) never occurs in natural labels, so the
# flattening stays injective.
TRIPLE_SEP = "␟"

INSTANCE_OF = "instanceOf"

_WS_RUN = re.compile(r"\s+")


def normalize_label(raw: str) -> str:
    """Strip surrounding whitespace and collapse internal runs to one space.

    Case is preserved. May return an empty string; callers decide whether
    empties are acceptable.
    """
    return _WS_RUN.sub(" ", raw.strip())


class TermKind(Enum):
    """Whether a triple object is a named entity or a literal value."""

    NAMED_ENTITY = "ne"
    LITERAL = "lit"

    @classmethod
    def from_code(cls, code: str) -> "TermKind":
        try:
            return cls._value2member_map_[code]
        except (KeyError, TypeError):
            raise ValueError(f"unknown term kind code: {code!r}") from None


class StructuralCategory(Enum):
    """The five element families a knowledge base decomposes into."""

    NAMED_ENTITIES = "named_entities"
    LITERALS = "literals"
    PREDICATES = "predicates"
    CLASSES = "classes"
    TRIPLES = "triples"


@dataclass(frozen=True, slots=True)
class Triple:
    """One (subject, predicate, object) fact and the crawl layer that found it.

    Slotted, without a ``__dict__``: a run holds tens of thousands of them.
    """

    subject: str
    predicate: str
    object: str
    object_kind: TermKind
    layer: int

    def __post_init__(self) -> None:
        if not self.subject or not self.predicate:
            raise ValueError("subject and predicate must be non-empty")
        if self.layer < 0:
            raise ValueError("layer must be non-negative")

    def key(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)

    def flat(self) -> str:
        return TRIPLE_SEP.join(self.key())


def make_triple(
    subject: str,
    predicate: str,
    obj: str,
    object_kind: TermKind,
    layer: int,
) -> Triple:
    """Build a Triple with all three labels whitespace-normalized."""
    return Triple(
        subject=normalize_label(subject),
        predicate=normalize_label(predicate),
        object=normalize_label(obj),
        object_kind=object_kind,
        layer=layer,
    )


class KnowledgeBase:
    """A run's accumulated facts, deduplicated on normalized (s, p, o).

    Mutation is single-writer: the crawl that owns the KB commits one layer
    at a time from the thread that runs it, never from its request workers.
    Reads and category derivation are safe once a layer has been committed.
    """

    def __init__(self) -> None:
        self.triples: list[Triple] = []
        self.visited_subjects: set[str] = set()
        self._keys: set[tuple[str, str, str]] = set()

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        return key in self._keys

    @property
    def layer_count(self) -> int:
        if not self.triples:
            return 0
        return max(t.layer for t in self.triples) + 1

    def add(self, triple: Triple) -> bool:
        """Insert a triple unless an identical (s, p, o) is already present.

        Returns True when the triple was actually added.
        """
        key = triple.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.triples.append(triple)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.add(t))

    def subjects(self) -> set[str]:
        return {t.subject for t in self.triples}


def derive_categories(kb: KnowledgeBase) -> dict[StructuralCategory, set[str]]:
    """Split a knowledge base into its five structural category sets.

    Named entities are all subjects plus objects marked as entities;
    literals are the remaining objects; classes are the distinct objects of
    "instanceOf" facts; the triples category holds each fact flattened to a
    single separator-joined string. Pure and insensitive to triple order.
    """
    named: set[str] = set()
    literals: set[str] = set()
    predicates: set[str] = set()
    classes: set[str] = set()
    flat: set[str] = set()
    for t in kb.triples:
        named.add(t.subject)
        predicates.add(t.predicate)
        if t.object_kind is TermKind.NAMED_ENTITY:
            named.add(t.object)
        else:
            literals.add(t.object)
        if t.predicate == INSTANCE_OF:
            classes.add(t.object)
        flat.add(t.flat())
    return {
        StructuralCategory.NAMED_ENTITIES: named,
        StructuralCategory.LITERALS: literals,
        StructuralCategory.PREDICATES: predicates,
        StructuralCategory.CLASSES: classes,
        StructuralCategory.TRIPLES: flat,
    }


def text_value(flat: dict, key: str, default: Optional[str]) -> Optional[str]:
    """``flat[key]``, or ``default`` when the key is absent; ValueError
    naming the key when its value is not a string."""
    value = flat.get(key, default)
    if key in flat and not isinstance(value, str):
        raise ValueError(f"{key} must be a string, not {value!r}")
    return value


@dataclass
class Caps:
    """Hard limits that bound a crawl."""

    max_layers: int = 30
    max_wall_seconds: int = 345_600
    max_triples: int = 5_000_000

    def validate(self) -> None:
        if self.max_layers <= 0 or self.max_wall_seconds <= 0 or self.max_triples <= 0:
            raise ValueError("all caps must be positive")


@dataclass
class RunConfig:
    """Parameters of one crawl run.

    ``parallelism`` is the number of elicitations in flight at once to a
    remote backend; a crawl of an in-process backend runs on one thread.
    """

    topic: str
    seed_entity: str
    prompt_language: str = "en"
    temperature: float = 0.0
    model_id: str = "gpt-4.1-mini"
    caps: Caps = field(default_factory=Caps)
    parallelism: int = 4

    def validate(self) -> None:
        if not normalize_label(self.seed_entity):
            raise ValueError("seed_entity must be non-empty")
        if not self.topic:
            raise ValueError("topic must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature outside accepted range [0, 2]")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        self.caps.validate()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_flat(cls, flat: dict) -> "RunConfig":
        """Build a config from the flat keys of a CLI config file or suite entry.

        Raises ValueError when a numeric key holds something that is not a
        number, or a text key something that is not a string; range checks
        are left to ``validate``.
        """

        def number(key: str, cast: Callable, default):
            value = flat.get(key, default)
            try:
                return cast(value)
            except (TypeError, ValueError):
                raise ValueError(f"{key} must be a number, not {value!r}") from None

        return cls(
            topic=text_value(flat, "topic", ""),
            seed_entity=text_value(flat, "seed", ""),
            prompt_language=text_value(flat, "language", cls.prompt_language),
            temperature=number("temperature", float, cls.temperature),
            model_id=text_value(flat, "model", cls.model_id),
            caps=Caps(
                max_layers=number("max_layers", int, Caps.max_layers),
                max_wall_seconds=number("max_seconds", int, Caps.max_wall_seconds),
                max_triples=number("max_triples", int, Caps.max_triples),
            ),
            parallelism=number("parallelism", int, cls.parallelism),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        caps = Caps(**data.get("caps", {}))
        fields = {k: v for k, v in data.items() if k != "caps"}
        return cls(caps=caps, **fields)


class Termination(Enum):
    """How a crawl ended: frontier exhaustion, or the first cap that fired."""

    ORGANIC = "organic"
    CAPPED_LAYERS = "capped_layers"
    CAPPED_TIME = "capped_time"
    CAPPED_TRIPLES = "capped_triples"


@dataclass
class DegeneracyEvent:
    """A pathological entity name rejected from the frontier."""

    kind: str  # one of "q_identifier", "repetition_loop", "overlong_label"
    entity: str
    layer: int


@dataclass
class LayerStats:
    layer: int
    new_entities: int
    new_triples: int


@dataclass
class RunRecord:
    """Outcome of one crawl: configuration, KB, and termination telemetry."""

    run_id: str
    config: RunConfig
    kb: KnowledgeBase
    termination: Termination
    wall_seconds: float
    deepest_layer: int
    per_layer_counts: list[LayerStats] = field(default_factory=list)
    degeneracy_events: list[DegeneracyEvent] = field(default_factory=list)
    started_at: str = ""
    finished_at: str = ""


MANIFEST_NAME = "manifest.json"
TRIPLES_NAME = "triples.ndjson"


def utcnow() -> str:
    """The current UTC time in ISO 8601, as every manifest and log line stamps it."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _ndjson_line(entry: dict) -> str:
    return json.dumps(entry, ensure_ascii=False) + "\n"


def read_ndjson(path: Path) -> Iterator[dict]:
    """Yield the JSON object on each line of an NDJSON file, skipping blank lines.

    Lines end at a line feed only: JSON leaves U+2028, U+2029 and U+0085
    unescaped inside strings, so ``str.splitlines`` would cut a record in
    two. A line that does not hold exactly one JSON value raises
    ``json.JSONDecodeError``.
    """
    decode = json.JSONDecoder().raw_decode
    with Path(path).open("r", encoding="utf-8", newline="\n") as fh:
        for line in fh:
            line = line.strip()
            if line:
                obj, end = decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                yield obj


class NdjsonStore:
    """An append-only NDJSON file.

    Each append holds a lock for the whole write, because gateway workers
    append from several threads and lines must never interleave.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def entries(self) -> Iterator[dict]:
        """Every stored entry in file order; none before the first append."""
        return read_ndjson(self.path) if self.path.exists() else iter(())

    def append(self, entries: Iterable[dict]) -> None:
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.writelines(map(_ndjson_line, entries))


def write_triples(path: Path, triples: Iterable[Triple]) -> None:
    """Write one JSON object per triple, the layout ``load_triples`` reads.

    Each line equals ``_ndjson_line`` of a dict keyed s, p, o, o_kind, layer
    in that order: the labels go through the string encoder of ``json.dumps``.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"s": {encode_basestring(t.subject)}, "p": {encode_basestring(t.predicate)}, '
            f'"o": {encode_basestring(t.object)}, "o_kind": "{t.object_kind.value}", '
            f'"layer": {t.layer}}}\n'
            for t in triples
        )


def save_run(record: RunRecord, run_dir: Path) -> None:
    """Persist a run as manifest.json plus one JSON object per triple.

    Timestamps live only in the manifest so the triples file stays stable
    across reruns of a deterministic backend.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "run_id": record.run_id,
        "config": record.config.to_dict(),
        "termination": record.termination.value,
        "wall_seconds": record.wall_seconds,
        "deepest_layer": record.deepest_layer,
        "per_layer_counts": [
            [s.layer, s.new_entities, s.new_triples] for s in record.per_layer_counts
        ],
        "degeneracy_events": [
            {"kind": e.kind, "entity": e.entity, "layer": e.layer}
            for e in record.degeneracy_events
        ],
        "visited_subjects": len(record.kb.visited_subjects),
        "triple_count": len(record.kb),
        "started_at": record.started_at,
        "finished_at": record.finished_at,
    }
    (run_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    write_triples(run_dir / TRIPLES_NAME, record.kb.triples)


def load_triples(path: Path) -> list[Triple]:
    kind = TermKind.from_code
    return [
        Triple(obj["s"], obj["p"], obj["o"], kind(obj["o_kind"]), int(obj["layer"]))
        for obj in read_ndjson(path)
    ]


def load_run(run_dir: Path) -> RunRecord:
    """Rebuild a RunRecord from a persisted run directory.

    The visited-subject set is not persisted per entity; for loaded runs it
    is approximated by the subjects that produced triples, which is all the
    downstream metrics need.
    """
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / MANIFEST_NAME).read_text(encoding="utf-8"))
    kb = KnowledgeBase()
    kb.add_all(load_triples(run_dir / TRIPLES_NAME))
    kb.visited_subjects = kb.subjects()
    return RunRecord(
        run_id=manifest["run_id"],
        config=RunConfig.from_dict(manifest["config"]),
        kb=kb,
        termination=Termination(manifest["termination"]),
        wall_seconds=manifest["wall_seconds"],
        deepest_layer=manifest["deepest_layer"],
        per_layer_counts=[
            LayerStats(layer=c[0], new_entities=c[1], new_triples=c[2])
            for c in manifest["per_layer_counts"]
        ],
        degeneracy_events=[
            DegeneracyEvent(kind=e["kind"], entity=e["entity"], layer=e["layer"])
            for e in manifest["degeneracy_events"]
        ],
        started_at=manifest.get("started_at", ""),
        finished_at=manifest.get("finished_at", ""),
    )


def run_failed(run_dir: Path) -> Optional[str]:
    """Return the error message if the directory records a failed run."""
    marker = Path(run_dir) / "FAILED"
    if marker.exists():
        return marker.read_text(encoding="utf-8").strip()
    return None
