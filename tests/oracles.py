"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the
production code (plain loops, no numpy, stack-based traversal) so that
agreement between the two routes is meaningful. The two per-item loops
``trigram_embed`` and ``best_into_gathered`` keep numpy's arithmetic,
because the package must match them bit for bit, and ``distinct_rows`` is
the ``np.unique`` call that ``metrics._distinct`` must equal. The last
function is the per-character loop that ``export._turtle_literal`` must
equal exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


def world_closure(world_path: Path, seed: str):
    """Expected crawl result computed straight from the world file.

    Returns (entity_set, triple_set) where triples are (s, p, o, is_entity)
    and entities are everything reachable from the seed through
    entity-valued objects. Uses a stack, not layers; knows nothing about
    the crawler.
    """
    world = json.loads(Path(world_path).read_text(encoding="utf-8"))
    truth = set(world.get("entities", []))
    facts = world.get("facts", {})
    entities = {seed}
    triples = set()
    stack = [seed]
    expanded = set()
    while stack:
        subject = stack.pop()
        if subject in expanded:
            continue
        expanded.add(subject)
        for predicate, obj in facts.get(subject, []):
            is_entity = obj in truth
            triples.add((subject, predicate, obj, is_entity))
            if is_entity and obj not in entities:
                entities.add(obj)
                stack.append(obj)
    return entities, triples


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _norm(u):
    return math.sqrt(sum(x * x for x in u))


def cosine_similarity(u, v) -> float:
    nu, nv = _norm(u), _norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    value = _dot(u, v) / (nu * nv)
    return max(-1.0, min(1.0, value))


def _rows(matrix):
    return [list(map(float, row)) for row in matrix]


def best_matches(a, b):
    """Double-loop reference for each row's best similarity into the other set."""
    a, b = _rows(a), _rows(b)

    def best(rows, others):
        out = []
        for row in rows:
            top = None
            for other in others:
                s = 1.0 if row == other else cosine_similarity(row, other)
                if top is None or s > top:
                    top = s
            out.append(top)
        return out

    return best(a, b), best(b, a)


def hausdorff_similarity(a, b) -> float:
    """Double-loop reference for the averaged-minimum-distance similarity."""
    a, b = _rows(a), _rows(b)
    if not a or not b:
        raise ValueError("empty matrix")

    def directed(rows, others):
        total = 0.0
        for row in rows:
            best = None
            for other in others:
                d = 0.0 if row == other else 1.0 - cosine_similarity(row, other)
                if best is None or d < best:
                    best = d
            total += best
        return total / len(rows)

    return 1.0 - (directed(a, b) + directed(b, a)) / 2.0


def semantic_match_pct(a, b, tau: float):
    """Double-loop reference for thresholded best-match percentages."""
    a, b = _rows(a), _rows(b)
    if not a or not b:
        raise ValueError("empty matrix")

    def matched(rows, others):
        count = 0
        for row in rows:
            best = 0.0
            for other in others:
                s = 1.0 if row == other else cosine_similarity(row, other)
                if s > best:
                    best = s
            if best >= tau:
                count += 1
        return count

    pct_ab = 100.0 * matched(a, b) / len(a)
    pct_ba = 100.0 * matched(b, a) / len(b)
    return pct_ab, pct_ba, (pct_ab + pct_ba) / 2.0


def occurrence_counts(runs):
    """Triple-key occurrence counts via a plain dict pass over run KBs."""
    counts = {}
    for record in runs:
        for triple in record.kb.triples:
            key = (triple.subject, triple.predicate, triple.object)
            counts[key] = counts.get(key, 0) + 1
    return counts


def trigram_embed(texts, dim):
    """Per-gram loop reference for ``TrigramHashEmbedder.embed``.

    Pads each text with \\x02 and \\x03, adds 1.0 to the blake2b bucket of
    each of its trigrams (or of the padding alone for an empty text), then
    scales each row to unit length.
    """
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for row, text in enumerate(texts):
        padded = "\x02" + text + "\x03"
        grams = [padded] if len(padded) < 3 else [padded[i : i + 3] for i in range(len(padded) - 2)]
        for gram in grams:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            out[row, int.from_bytes(digest, "big") % dim] += 1.0
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    return out


def best_into_gathered(rows, sets, block_rows):
    """Per-set gather reference for ``metrics._best_into``.

    Normalises the rows for every block, multiplies the block's rows that
    some set lacks against all rows, and takes each set's maximum over its
    members' columns.
    """
    held = np.zeros((len(sets), rows.shape[0]), dtype=bool)
    for s, members in enumerate(sets):
        held[s, members] = True
    best = np.zeros(held.shape)
    todo = np.flatnonzero(~held.all(axis=0))
    for start in range(0, todo.shape[0], block_rows):
        block = todo[start : start + block_rows]
        a, b = rows[block], rows
        na = np.linalg.norm(a, axis=1, keepdims=True)
        nb = np.linalg.norm(b, axis=1, keepdims=True)
        an = np.divide(a, na, out=np.zeros_like(a, dtype=np.float64), where=na > 0)
        bn = np.divide(b, nb, out=np.zeros_like(b, dtype=np.float64), where=nb > 0)
        sim = np.clip(an @ bn.T, -1.0, 1.0)
        for s, members in enumerate(sets):
            if members.shape[0]:
                best[s, block] = sim[:, members].max(axis=1)
    best[held] = 1.0
    return best


def distinct_rows(vectors):
    """``np.unique`` over each row's bytes, the reference for ``metrics._distinct``.

    Returns the distinct rows, each one's first index and each row's index
    among them.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    width = vectors.shape[1]
    keys = vectors.view(np.dtype((np.void, 8 * width))).ravel()
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return unique.view(np.float64).reshape(-1, width), first, inverse.ravel()


def turtle_literal_loop(value: str) -> str:
    """The per-character loop ``export._turtle_literal`` must equal."""
    out = []
    for ch in value:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'
