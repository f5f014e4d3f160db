"""Text embeddings for semantic comparison of knowledge bases.

Two providers share one interface: a deterministic offline embedder that
hashes character trigrams into a fixed-width bag vector, and a remote
embedder speaking the OpenAI embeddings wire format. A cache, in memory
or backed by a newline-delimited JSON file, keeps repeat comparisons from
re-embedding unchanged rows.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import Iterable, Optional, Protocol, Sequence

import numpy as np

from .gateway import API_KEY_ENV, GatewayError, Session, TransportError, send, with_retries
from .model import NdjsonStore

EMBED_DIM = 384

# Sentinels mark label boundaries so "abc" and "xabcx" share fewer grams.
_START = "\x02"
_END = "\x03"


class EmbeddingProvider(Protocol):
    provider_id: str

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Return one float64 row per input text, in input order."""
        ...


def _trigrams(text: str) -> list[str]:
    padded = _START + text + _END
    if len(padded) < 3:
        return [padded]
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


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
        self._buckets: dict[str, int] = {}

    def _bucket(self, gram: str) -> int:
        bucket = self._buckets.get(gram)
        if bucket is None:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            bucket = self._buckets[gram] = int.from_bytes(digest, "big") % self.dim
        return bucket

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for row, text in enumerate(texts):
            for gram in _trigrams(text):
                out[row, self._bucket(gram)] += 1.0
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        np.divide(out, norms, out=out, where=norms > 0)
        return out


class RemoteEmbedder:
    """OpenAI-compatible /embeddings client. Rows come back in input order."""

    def __init__(
        self,
        endpoint_url: str,
        model_id: str = "text-embedding-3-small",
        api_key: Optional[str] = None,
        request_timeout_seconds: float = 60.0,
        max_retries: int = 2,
        batch_size: int = 256,
        sleep=time.sleep,
    ):
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not key:
            raise GatewayError(
                f"no API key: pass api_key or set {API_KEY_ENV} in the environment"
            )
        self.endpoint_url = endpoint_url.rstrip("/")
        self.model_id = model_id
        self.provider_id = f"remote-{model_id}"
        self.timeout = request_timeout_seconds
        self.max_retries = max_retries
        self.batch_size = batch_size
        self._sleep = sleep
        self._session = Session()
        self._session.headers["Authorization"] = f"Bearer {key}"

    def _post(self, batch: Sequence[str]) -> list[list[float]]:
        def attempt() -> list[list[float]]:
            resp = send(
                lambda: self._session.post(
                    f"{self.endpoint_url}/embeddings",
                    json={"model": self.model_id, "input": list(batch)},
                    timeout=self.timeout,
                )
            )
            try:
                rows = sorted(resp.json()["data"], key=lambda item: item["index"])
                return [row["embedding"] for row in rows]
            except (ValueError, KeyError, TypeError) as exc:
                raise TransportError(f"unexpected embeddings body: {exc!r}") from exc

        return with_retries(attempt, self.max_retries, self._sleep)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, 0), dtype=np.float64)
        rows: list[list[float]] = []
        for start in range(0, len(texts), self.batch_size):
            rows.extend(self._post(texts[start : start + self.batch_size]))
        return np.asarray(rows, dtype=np.float64)


class EmbeddingCache:
    """Vectors keyed by (provider_id, text), held in memory.

    With a path, they are also read from and appended to an NDJSON store;
    without one, the cache lives only as long as the object.
    """

    def __init__(self, path: Optional[Path] = None):
        self._store = NdjsonStore(path) if path is not None else None
        self._vectors: dict[tuple[str, str], np.ndarray] = {}
        for entry in self._store.entries() if self._store is not None else ():
            key = (entry["provider"], entry["text"])
            self._vectors[key] = np.asarray(entry["vector"], dtype=np.float64)

    def get(self, provider_id: str, text: str) -> Optional[np.ndarray]:
        return self._vectors.get((provider_id, text))

    def put_many(self, provider_id: str, items: Iterable[tuple[str, np.ndarray]]) -> None:
        fresh = [(text, np.asarray(vector, dtype=np.float64)) for text, vector in items]
        self._vectors.update(((provider_id, text), vector) for text, vector in fresh)
        if self._store is not None:
            self._store.append(
                {"provider": provider_id, "text": text, "vector": vector.tolist()} for text, vector in fresh
            )


def embed_batch(
    texts: Sequence[str],
    provider: EmbeddingProvider,
    cache: Optional[EmbeddingCache] = None,
) -> np.ndarray:
    """Embed texts through the cache; only misses reach the provider."""
    if not texts:
        dim = getattr(provider, "dim", EMBED_DIM)
        return np.zeros((0, dim), dtype=np.float64)
    if cache is None:
        return provider.embed(texts)

    misses: list[str] = []
    seen: set[str] = set()
    for text in texts:
        if text in seen:
            continue
        seen.add(text)
        if cache.get(provider.provider_id, text) is None:
            misses.append(text)
    if misses:
        fresh = provider.embed(misses)
        cache.put_many(provider.provider_id, zip(misses, fresh))

    rows = [cache.get(provider.provider_id, text) for text in texts]
    assert all(row is not None for row in rows)
    return np.vstack(rows)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two vectors; zero vectors compare as 0.0."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    value = float(np.dot(u, v) / (nu * nv))
    return max(-1.0, min(1.0, value))


def pairwise_cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Similarity matrix between row sets: out[i, j] = cos(a[i], b[j])."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("expected 2-D row matrices")
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    an = np.divide(a, na, out=np.zeros_like(a, dtype=np.float64), where=na > 0)
    bn = np.divide(b, nb, out=np.zeros_like(b, dtype=np.float64), where=nb > 0)
    sim = an @ bn.T
    return np.clip(sim, -1.0, 1.0, out=sim)
