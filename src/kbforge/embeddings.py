"""Text embeddings for semantic comparison of knowledge bases.

Two providers share one interface: a deterministic offline embedder that
hashes character trigrams into a fixed-width bag vector, and a remote
embedder speaking the OpenAI embeddings wire format. Every embedding goes
through a cache, in memory or backed by a newline-delimited JSON file:
only texts it lacks reach the provider, so a label is embedded once per
cache and a repeat comparison against a file re-embeds nothing.

Cosine similarity comes in two steps: ``normalise_rows`` scales rows to
unit length in place, and ``pairwise_cosine_similarity`` multiplies unit
rows, so a caller comparing one table block by block normalises it once.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from typing import Optional, Protocol, Sequence

import numpy as np

from .gateway import MAX_RETRIES, REQUEST_TIMEOUT_S, Session, TransportError, auth_headers, with_retries
from .model import NdjsonStore

EMBED_DIM = 384

# Texts per embeddings request.
EMBED_BATCH = 256

# Rows per norm: ``np.linalg.norm`` makes a temporary the size of its input.
_NORM_ROWS = 256

# Texts per trigram count: a chunk's int64 temporaries are several times the
# float64 rows it fills.
_COUNT_ROWS = 256

# Sentinels mark label boundaries so "abc" and "xabcx" share fewer grams.
_START = "\x02"
_END = "\x03"


class EmbeddingProvider(Protocol):
    provider_id: str

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Return one float64 row per input text, in input order."""
        ...


# A trigram packs its three code points (each below 2**21) into one int64
# key; the one gram of an empty text, the 2-character padding, gets -1.
_POINT_BITS = 21
_POINT_MASK = (1 << _POINT_BITS) - 1
_EMPTY_KEY = -1


def _gram(key: int) -> str:
    if key == _EMPTY_KEY:
        return _START + _END
    return chr(key >> 2 * _POINT_BITS) + chr(key >> _POINT_BITS & _POINT_MASK) + chr(key & _POINT_MASK)


class TrigramHashEmbedder:
    """Offline, deterministic embedder: hashed character-trigram counts.

    Not a semantic model. Identical strings map to identical vectors and
    near-identical strings land close, which is what the offline test path
    needs; anything meaning-aware must come from a remote provider.
    """

    def __init__(self, dim: int = EMBED_DIM):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.provider_id = f"trigram-{dim}"
        # Each gram's bucket by its key, which costs less to look up than the
        # gram: a gram recurs in many chunks.
        self._buckets: dict[int, int] = {}

    def _bucket(self, key: int) -> int:
        bucket = self._buckets.get(key)
        if bucket is None:
            digest = hashlib.blake2b(_gram(key).encode("utf-8"), digest_size=8).digest()
            bucket = self._buckets[key] = int.from_bytes(digest, "big") % self.dim
        return bucket

    def _counts(self, texts: Sequence[str]) -> np.ndarray:
        """Each text's padded trigrams counted per hash bucket.

        Texts are counted ``_COUNT_ROWS`` at a time: each chunk is encoded at
        once and each distinct gram hashed once. The counts are small
        integers, exact in float64.
        """
        # Allocated before the temporaries below, so that freeing them can
        # return their memory rather than leave it stranded under ``out``.
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for start in range(0, len(texts), _COUNT_ROWS):
            chunk = texts[start : start + _COUNT_ROWS]
            lengths = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
            padded = _START + (_END + _START).join(chunk) + _END
            points = np.frombuffer(padded.encode("utf-32-le"), dtype="<u4").astype(np.int64)
            # A text of n characters has n grams; its first starts after the
            # previous texts' characters and two padding characters each.
            rows = np.repeat(np.arange(len(chunk)), lengths)
            starts = np.arange(rows.shape[0]) + 2 * rows
            keys = points[starts] << 2 * _POINT_BITS | points[starts + 1] << _POINT_BITS | points[starts + 2]
            empty = np.flatnonzero(lengths == 0)
            rows = np.concatenate([rows, empty])
            keys = np.concatenate([keys, np.full(empty.shape[0], _EMPTY_KEY, dtype=np.int64)])
            grams, gram_of = np.unique(keys, return_inverse=True)
            buckets = np.array([self._bucket(key) for key in grams.tolist()], dtype=np.int64)
            cells, counts = np.unique((start + rows) * self.dim + buckets[gram_of], return_counts=True)
            out.reshape(-1)[cells] = counts
        return out

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        return normalise_rows(self._counts(texts))


class RemoteEmbedder:
    """OpenAI-compatible /embeddings client. Rows come back in input order;
    a request is sent at most ``MAX_RETRIES + 1`` times."""

    def __init__(
        self,
        endpoint_url: str,
        model_id: str = "text-embedding-3-small",
        api_key: Optional[str] = None,
        sleep=time.sleep,
    ):
        self._headers = auth_headers(api_key)
        self._session = Session(endpoint_url.rstrip("/") + "/embeddings")
        self.model_id = model_id
        self.provider_id = f"remote-{model_id}"
        self._sleep = sleep

    def _post(self, batch: Sequence[str]) -> list[list[float]]:
        def attempt() -> list[list[float]]:
            resp = self._session.post(
                json={"model": self.model_id, "input": list(batch)},
                headers=self._headers,
                timeout=REQUEST_TIMEOUT_S,
            )
            try:
                rows = sorted(resp.json()["data"], key=lambda item: item["index"])
                indices = [row["index"] for row in rows]
                if indices != list(range(len(batch))):
                    raise ValueError(f"indices {indices} for {len(batch)} texts")
                return [row["embedding"] for row in rows]
            except (ValueError, KeyError, TypeError) as exc:
                raise TransportError(f"unexpected embeddings body: {exc!r}") from exc

        return with_retries(attempt, MAX_RETRIES, self._sleep)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, 0), dtype=np.float64)
        rows: list[list[float]] = []
        for start in range(0, len(texts), EMBED_BATCH):
            rows.extend(self._post(texts[start : start + EMBED_BATCH]))
        return np.asarray(rows, dtype=np.float64)


class EmbeddingCache:
    """Vectors keyed by (provider_id, text), held in memory; the one way
    kbforge embeds.

    With a path, they are also read from and appended to an NDJSON store;
    without one, the cache lives only as long as the object. A provider's
    vectors share one width: a file whose vectors for one provider differ
    in width is refused when it is read.
    """

    def __init__(self, path: Optional[Path] = None):
        self._store = NdjsonStore(path) if path is not None else None
        self._vectors: dict[tuple[str, str], np.ndarray] = {}
        self._widths: dict[str, int] = {}
        for entry in self._store.entries() if self._store is not None else ():
            provider_id, text = entry["provider"], entry["text"]
            vector = np.asarray(entry["vector"], dtype=np.float64)
            width = self._widths.setdefault(provider_id, len(vector))
            if vector.shape != (width,):
                raise ValueError(
                    f"vector of {text!r} has shape {vector.shape}, but {provider_id!r} vectors have width {width}"
                )
            self._vectors[provider_id, text] = vector

    def rows(self, texts: Sequence[str], provider: EmbeddingProvider) -> np.ndarray:
        """The rows of the distinct ``texts``, in order; only the texts the
        cache lacks reach the provider, in one call.

        The provider must return one row per text it is sent, as wide as
        its cached vectors. When every text misses (a table's sorted union
        against a cold cache), the result is the provider's own matrix, and
        the cache holds its rows as views. Otherwise it is a new matrix
        stacked from the cache. Either way the caller only reads it. No
        texts give a ``(0, EMBED_DIM)`` matrix without a provider call.
        """
        if not texts:
            return np.zeros((0, EMBED_DIM), dtype=np.float64)
        provider_id = provider.provider_id
        misses = [text for text in texts if (provider_id, text) not in self._vectors]
        if misses:
            fresh = np.asarray(provider.embed(misses), dtype=np.float64)
            width = self._widths.get(provider_id)
            if fresh.ndim != 2 or fresh.shape[0] != len(misses) or width not in (None, fresh.shape[1]):
                wanted = f"{len(misses)} rows"
                if width is not None:
                    source = "" if self._store is None else f" in {self._store.path}"
                    wanted += f" of width {width}, the width of its cached vectors{source}"
                raise ValueError(f"embedding provider {provider_id!r} returned shape {fresh.shape} for {wanted}")
            self._widths[provider_id] = fresh.shape[1]
            self._vectors.update(((provider_id, text), row) for text, row in zip(misses, fresh))
            if self._store is not None:
                self._store.append(
                    {"provider": provider_id, "text": text, "vector": row.tolist()} for text, row in zip(misses, fresh)
                )
            if len(misses) == len(texts):
                return fresh
        return np.vstack([self._vectors[provider_id, text] for text in texts])


def normalise_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each row of the float64 matrix ``rows`` to unit length in place.

    Rows of norm zero become zero. Returns ``rows``. The norms are taken
    ``_NORM_ROWS`` rows at a time; a row's norm does not depend on the
    others, so the bits are those of one norm over the whole matrix.
    """
    for start in range(0, rows.shape[0], _NORM_ROWS):
        block = rows[start : start + _NORM_ROWS]
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        np.divide(block, norms, out=block, where=norms > 0)
        block[~(norms[:, 0] > 0)] = 0.0
    return rows


def pairwise_cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity matrix of unit rows: out[i, j] = a[i] · b[j], clipped to [-1, 1].

    The rows must already be unit length or zero, as ``normalise_rows`` leaves them.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("expected 2-D row matrices")
    sim = a @ b.T
    return np.clip(sim, -1.0, 1.0, out=sim)
