"""Seeded synthetic worlds for the pipeline benchmark.

A base world is a tree of named entities hanging off one seed entity, plus
per-entity facts: one ``instanceOf`` class, literal values and links to other
entities. Each run's world drops a seeded share of the base world's facts, so
runs overlap only partly, as repeated LLM crawls do. Only facts whose loss
cannot cut off a subtree are dropped (tree links to inner entities stay), so
every run reaches about the same number of triples whatever the seed.

A few degenerate entity labels (bare Q-ids, trailing-syllable loops, labels
over 200 characters) are written as plain facts, so the crawler's degeneracy
detectors run. The world files have the shape ``MockWorldGateway`` reads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SYLLABLES = (
    "ka ri na to mu sa le bi do ge ha ji ko lu me ni po qu ra si ta ve wa xi "
    "yo za ban dur el fen gor hil isk jor kel lan mor nar osh pel rin sul tor "
    "ur vel wen zan"
).split()
INSTANCE_OF = "instanceOf"
TREE_PREDICATE = "hasMember"
DEGENERATE_PREDICATE = "alsoKnownAs"
CLASSES = 40
PREDICATES = 60
DEGENERATE_EACH = 2  # labels per degeneracy kind
TRANSIENT_SUBJECTS = 4  # per run, inner entities whose first request fails


@dataclass(frozen=True)
class WorldSpec:
    """Shape of a synthetic world and of the runs drawn from it."""

    entities: int
    facts_per_entity: int  # own facts per entity, besides links to tree children
    branching: int
    runs: int
    drop_share: float  # share of droppable facts each run loses
    link_share: float  # share of non-class own facts that link to another entity
    malformed_subjects: int = 0  # leaves a remote backend answers malformed
    literal_pool: int = 0  # distinct literal values to draw from; 0 makes each one fresh


@dataclass
class World:
    """The generated files of one world and what a checker needs to know."""

    seed_entity: str
    run_paths: list[Path]
    malformed: list[str]  # subjects answered malformed on every attempt
    transient: list[list[str]]  # per run: subjects whose first request fails
    popularity_path: Path | None = None


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()


def _unique(rng: random.Random, make, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        label = make(rng)
        if label not in taken:
            taken.add(label)
            out.append(label)
    return out


def _literal(rng: random.Random) -> str:
    form = rng.randrange(3)
    if form == 0:
        return f"{rng.randint(100, 3000)} BC"
    if form == 1:
        return f"{rng.randint(2, 90000)} {rng.choice(['cubits', 'shekels', 'talents', 'people'])}"
    return " ".join(_word(rng).lower() for _ in range(rng.randint(2, 4)))


def generate(spec: WorldSpec, seed: int, out_dir: Path, popularity_share: float = 0.0) -> World:
    """Write one world file per run under ``out_dir`` and describe them."""
    rng = random.Random(seed)
    taken: set[str] = set()
    names = _unique(rng, lambda r: f"{_word(r)} {_word(r)}", spec.entities, taken)
    classes = _unique(rng, _word, CLASSES, taken)
    predicates = [p[0].lower() + p[1:] for p in _unique(rng, lambda r: "has" + _word(r), PREDICATES, taken)]

    pool = [_literal(rng) for _ in range(spec.literal_pool)]

    def literal() -> str:
        return rng.choice(pool) if pool else _literal(rng)

    children = [[] for _ in names]
    for i in range(1, len(names)):
        children[(i - 1) // spec.branching].append(i)
    inner = [i for i in range(len(names)) if children[i]]
    leaves = [i for i in range(len(names)) if not children[i]]
    malformed = set(rng.sample(leaves, spec.malformed_subjects))

    # facts[i] holds (predicate, object, droppable) for entity i.
    facts: list[list[tuple[str, str, bool]]] = [[] for _ in names]
    for i, kids in enumerate(children):
        for k in kids:
            facts[i].append((TREE_PREDICATE, names[k], not children[k] and k not in malformed))
        facts[i].append((INSTANCE_OF, rng.choice(classes), True))
        seen = {(p, o) for p, o, _ in facts[i]}
        while len(facts[i]) < len(kids) + spec.facts_per_entity:
            pred = rng.choice(predicates)
            obj = names[rng.randrange(len(names))] if rng.random() < spec.link_share else literal()
            if obj != names[i] and (pred, obj) not in seen:
                seen.add((pred, obj))
                facts[i].append((pred, obj, True))

    degenerate = []
    for _ in range(DEGENERATE_EACH):
        degenerate.append(f"Q{rng.randint(10_000, 9_999_999)}")
        degenerate.append("-".join([_word(rng)] + [rng.choice(SYLLABLES)] * 3))
        degenerate.append(" ".join(_word(rng) for _ in range(40))[:210 + rng.randrange(20)].rstrip())
    for label in degenerate:
        facts[rng.choice(inner)].append((DEGENERATE_PREDICATE, label, False))

    entities = names + degenerate
    out_dir.mkdir(parents=True, exist_ok=True)
    droppable = [(i, j) for i, fs in enumerate(facts) for j, f in enumerate(fs) if f[2]]
    run_paths = []
    transient = []
    for run in range(spec.runs):
        dropped = set(rng.sample(droppable, round(spec.drop_share * len(droppable))))
        world = {
            "facts": {
                names[i]: [[p, o] for j, (p, o, _) in enumerate(fs) if (i, j) not in dropped]
                for i, fs in enumerate(facts)
            },
            "entities": entities,
        }
        path = out_dir / f"world-{run:03d}.json"
        path.write_text(json.dumps(world, ensure_ascii=False), encoding="utf-8")
        run_paths.append(path)
        transient.append([names[i] for i in rng.sample(inner[1:], TRANSIENT_SUBJECTS)])

    popularity_path = None
    if popularity_share:
        popularity_path = out_dir / "popularity.ndjson"
        known = rng.sample(names, round(popularity_share * len(names)))
        with popularity_path.open("w", encoding="utf-8") as handle:
            for n, label in enumerate(known):
                record = {
                    "entity": label,
                    "qid": f"Q{n + 1}",
                    "statement_count": int(rng.paretovariate(1.2) * 10),
                    "resolved_at": "2025-01-01T00:00:00+00:00",
                }
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")

    return World(
        seed_entity=names[0],
        run_paths=run_paths,
        malformed=sorted(names[i] for i in malformed),
        transient=transient,
        popularity_path=popularity_path,
    )
