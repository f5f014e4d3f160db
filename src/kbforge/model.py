"""Core data model: triples, knowledge bases, run configuration and run records.

A knowledge base is an ordered, deduplicated collection of (subject,
predicate, object) facts. Every other module works against the types
defined here; category derivation is pure and shared by the metrics and
export layers. The on-disk line format (NDJSON: one JSON object per line,
non-ASCII text unescaped) is also defined here, for run triples and for
every append-only store in the package, and so are the run and suite
directories and ``write_atomic``, which every whole file goes through.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import os
import re
import threading
from dataclasses import asdict, astuple, dataclass, field
from enum import Enum
from itertools import islice
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar

# Separator used when a whole triple is flattened to a single set element.
# U+241F (symbol for unit separator) never occurs in natural labels, so the
# flattening stays injective.
TRIPLE_SEP = "␟"

INSTANCE_OF = "instanceOf"

_SURROGATE = re.compile("[\ud800-\udfff]")


def is_unicode(text: str) -> bool:
    """False when ``text`` holds a lone surrogate, as a JSON escape such as
    "\\udc80" decodes to: it is not Unicode text, and no file can hold it."""
    return text.isascii() or _SURROGATE.search(text) is None


def normalize_label(raw: str) -> str:
    """Strip surrounding whitespace and collapse internal runs to one space.

    Case is preserved. May return an empty string; callers decide whether
    empties are acceptable. A label that is already normalized comes back as
    the same object, so a ``LabelTable`` keeps the string it was served.
    """
    cleaned = " ".join(raw.split())
    return raw if cleaned == raw else cleaned


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

    A triple is the fact it states: equality and hash cover (s, p, o) alone,
    so two triples that differ only in ``object_kind`` or ``layer`` are equal
    and a set or dict of triples is its own deduplication index. ``repr``
    still shows all five fields. Slotted, without a ``__dict__``: a run holds
    up to millions of them.
    """

    subject: str
    predicate: str
    object: str
    object_kind: TermKind = field(compare=False)
    layer: int = field(compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.subject, str) and isinstance(self.predicate, str)
                and isinstance(self.object, str)):
            raise ValueError(f"labels must be strings: {self!r}")
        if not self.subject or not self.predicate:
            raise ValueError("subject and predicate must be non-empty")
        if not isinstance(self.object_kind, TermKind):
            raise ValueError(f"object_kind must be a TermKind, not {self.object_kind!r}")
        if type(self.layer) is not int or self.layer < 0:
            raise ValueError(f"layer must be a non-negative int, not {self.layer!r}")

    def key(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)


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


class LabelTable(dict):
    """Looks each label up as the first equal string it was given.

    Where triples are built from outside text (a response, a file), every
    label is a fresh string; looking labels up here makes equal ones share
    one object. A table lives for one crawl, one file read or one
    ``load_suite``, and its strings are freed with the triples that hold them.
    ``sys.intern`` would share across suites too, but CPython 3.12 keeps
    interned strings until the process exits.
    """

    def __missing__(self, label: str) -> str:
        self[label] = label
        return label


class KnowledgeBase:
    """A run's facts, deduplicated on normalized (s, p, o).

    A KB is built whole: the constructor deduplicates its input in one pass
    and keeps only ``triples``, each fact once in the order it was first
    given. A later duplicate is dropped, so the first copy keeps its kind
    and layer. The crawl deduplicates as it goes and builds its KB at the end.
    What the crawl visited is its record's (``RunRecord.visited_count``).
    """

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        # Storing an equal key keeps the first one, so each fact keeps the
        # kind and layer of its first copy.
        self.triples: list[Triple] = list(dict.fromkeys(triples))

    def __len__(self) -> int:
        return len(self.triples)


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
    for t in kb.triples:
        named.add(t.subject)
        predicates.add(t.predicate)
        if t.object_kind is TermKind.NAMED_ENTITY:
            named.add(t.object)
        else:
            literals.add(t.object)
        if t.predicate == INSTANCE_OF:
            classes.add(t.object)
    return {
        StructuralCategory.NAMED_ENTITIES: named,
        StructuralCategory.LITERALS: literals,
        StructuralCategory.PREDICATES: predicates,
        StructuralCategory.CLASSES: classes,
        StructuralCategory.TRIPLES: {TRIPLE_SEP.join(t.key()) for t in kb.triples},
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
    """Outcome of one crawl: configuration, KB, and termination telemetry.

    ``visited_count`` counts the subjects whose answers the crawl read,
    including those that yielded no triples. The crawl sets it, ``save_run``
    writes it as the manifest's ``visited_subjects`` and ``load_run`` reads
    it back.
    """

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
    visited_count: int = 0


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
    append from several threads and lines must never interleave. The lines
    go to an ``O_APPEND`` descriptor in one ``os.write`` per 256 lines, so a
    one-line append, such as an audit line, costs one open, write and close.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def entries(self) -> Iterator[dict]:
        """Every stored entry in file order; none before the first append."""
        return read_ndjson(self.path) if self.path.exists() else iter(())

    def append(self, entries: Iterable[dict]) -> None:
        lines = map(_ndjson_line, entries)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        with self._lock:
            try:
                fd = os.open(self.path, flags, 0o666)
            except FileNotFoundError:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, flags, 0o666)
            try:
                # Up to 256 lines per write bound what a large append holds.
                while chunk := "".join(islice(lines, 256)).encode("utf-8"):
                    view = memoryview(chunk)
                    while view:
                        view = view[os.write(fd, view) :]
            finally:
                os.close(fd)


def write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` as UTF-8 to a temporary sibling, then rename it to ``path``.

    This is how kbforge writes every whole file but an HTML page. The parent
    directory is created first. A reader sees the old file or the whole new
    one, never part of one: a write that raises, also one raised while
    ``chunks`` are produced, removes the sibling and leaves ``path`` as it
    was. Line ends are written as given. Nothing is fsynced, so this
    survives a killed process, not a lost machine.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_lines(rows: Iterable[Iterable]) -> Iterator[str]:
    """Each row as the line ``csv.writer`` writes for it, ready for ``write_atomic``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for row in rows:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        yield buffer.getvalue()


def write_triples(path: Path, triples: Iterable[Triple]) -> None:
    """Write one JSON object per triple, the layout ``load_triples`` reads.

    Each line equals ``_ndjson_line`` of a dict keyed s, p, o, o_kind, layer
    in that order: the labels go through the string encoder of ``json.dumps``.
    """
    write_atomic(
        path,
        (
            f'{{"s": {encode_basestring(t.subject)}, "p": {encode_basestring(t.predicate)}, '
            f'"o": {encode_basestring(t.object)}, "o_kind": "{t.object_kind.value}", '
            f'"layer": {t.layer}}}\n'
            for t in triples
        ),
    )


T = TypeVar("T")


class InputError(Exception):
    """A missing or damaged input, or a setting that cannot be used. The
    message names it; the CLI prints it as its one error line."""


def read_input(what: str, path: Path, load: Callable[[Path], T]) -> T:
    """``load(path)``, with a missing or damaged file as an InputError naming it."""
    try:
        return load(path)
    except FileNotFoundError as exc:
        raise InputError(f"{what} not found: {exc.filename or path}") from exc
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{what} {path} is damaged: {exc!r}") from exc


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def save_run(record: RunRecord, run_dir: Path) -> None:
    """Persist a run as manifest.json plus one JSON object per triple.

    Timestamps live only in the manifest so the triples file stays stable
    across reruns of a deterministic backend. Each file is replaced whole,
    the triples first, so a manifest written by this call follows a complete
    triples file.
    """
    run_dir = Path(run_dir)
    manifest = {
        "run_id": record.run_id,
        "config": record.config.to_dict(),
        "termination": record.termination.value,
        "wall_seconds": record.wall_seconds,
        "deepest_layer": record.deepest_layer,
        "per_layer_counts": [astuple(s) for s in record.per_layer_counts],
        "degeneracy_events": [asdict(e) for e in record.degeneracy_events],
        "visited_subjects": record.visited_count,
        "triple_count": len(record.kb),
        "started_at": record.started_at,
        "finished_at": record.finished_at,
    }
    write_triples(run_dir / TRIPLES_NAME, record.kb.triples)
    write_atomic(run_dir / MANIFEST_NAME, [json.dumps(manifest, indent=2, ensure_ascii=False) + "\n"])


def load_triples(path: Path, labels: Optional[LabelTable] = None) -> list[Triple]:
    """The triples of a ``write_triples`` file, in file order.

    Equal labels share one string (see ``LabelTable``): within the file, and
    across every file read with the same ``labels``.
    A damaged line raises ``ValueError``, also where a field is missing, a
    label is not hashable and so fails its lookup before ``Triple`` sees it, or
    a label is not Unicode text (see ``is_unicode``).
    """
    kind = TermKind.from_code
    if labels is None:
        labels = LabelTable()
    known = len(labels)
    try:
        triples = [
            Triple(
                labels[obj["s"]], labels[obj["p"]], labels[obj["o"]],
                kind(obj["o_kind"]), obj["layer"],
            )
            for obj in read_ndjson(path)
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"damaged triple in {path}: {exc!r}") from exc
    # Only labels new to the table are checked; joined, all-ASCII text is one test.
    if not is_unicode("".join(islice(labels, known, None))):
        bad = next(label for label in islice(labels, known, None) if not is_unicode(label))
        raise ValueError(f"damaged triple in {path}: label {bad!r} is not Unicode text")
    return triples


def load_run(run_dir: Path, labels: Optional[LabelTable] = None) -> RunRecord:
    """Rebuild a RunRecord from a persisted run directory.

    The visited subjects are persisted as a count, which ``visited_count``
    keeps. ``labels`` is passed to ``load_triples``.
    """
    run_dir = Path(run_dir)
    manifest = read_json(run_dir / MANIFEST_NAME)
    return RunRecord(
        run_id=manifest["run_id"],
        config=RunConfig.from_dict(manifest["config"]),
        kb=KnowledgeBase(load_triples(run_dir / TRIPLES_NAME, labels)),
        termination=Termination(manifest["termination"]),
        wall_seconds=manifest["wall_seconds"],
        deepest_layer=manifest["deepest_layer"],
        per_layer_counts=[LayerStats(*c) for c in manifest["per_layer_counts"]],
        degeneracy_events=[DegeneracyEvent(**e) for e in manifest["degeneracy_events"]],
        started_at=manifest.get("started_at", ""),
        finished_at=manifest.get("finished_at", ""),
        visited_count=manifest.get("visited_subjects", 0),
    )


SUITE_NAME = "suite.json"
# A run of a suite that raised leaves this file, holding the error, in its directory.
FAILED_NAME = "FAILED"


def save_suite(
    suite_dir: Path, dimension: str, run_ids: list[str], failed: dict[str, str], started_at: str
) -> None:
    """Write the suite manifest: every run id in order, and the error of each
    failed run. ``load_suite`` reads it."""
    manifest = {
        "dimension": dimension,
        "run_ids": run_ids,
        "failed": failed,
        "started_at": started_at,
        "finished_at": utcnow(),
    }
    write_atomic(Path(suite_dir) / SUITE_NAME, [json.dumps(manifest, indent=2) + "\n"])


def load_suite(suite_dir: Path) -> list[RunRecord]:
    """The runs of a suite directory in manifest order, less those it lists as failed.

    The runs share one ``LabelTable``, so a label the suite holds is one
    string. A missing or damaged manifest or run raises InputError naming it.
    """
    suite_dir = Path(suite_dir)

    def run_dirs(path: Path) -> list[Path]:
        manifest = read_json(path)
        failed = manifest["failed"]
        return [suite_dir / run_id for run_id in manifest["run_ids"] if run_id not in failed]

    labels = LabelTable()
    return [
        read_input("run", run_dir, lambda d: load_run(d, labels))
        for run_dir in read_input("suite manifest", suite_dir / SUITE_NAME, run_dirs)
    ]
