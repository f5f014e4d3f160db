"""Entity popularity via Wikidata statement counts, bucketed into quintiles.

Each named entity is resolved label -> QID -> number of statements on the
entity page. Unresolved labels land in a NotFound bucket; resolved ones are
sorted by popularity and split into four quartile buckets. Lookups go
through a permanent on-disk cache so repeat reports cost no network calls.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .gateway import Session, TransportError, send, with_retries
from .model import NdjsonStore, utcnow

logger = logging.getLogger(__name__)

WIKIDATA_API = "https://www.wikidata.org/w/api.php"
BUCKET_NOT_FOUND = "NotFound"
QUARTILE_BUCKETS = ("Q1", "Q2", "Q3", "Q4")
BUCKET_NAMES = (BUCKET_NOT_FOUND,) + QUARTILE_BUCKETS

# Public API etiquette: stay under 5 requests/second.
MAX_REQUESTS_PER_SECOND = 5.0

# Socket timeout of a Wikidata request.
WIKIDATA_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class PopularityRecord:
    entity: str
    qid: Optional[str]
    statement_count: Optional[int]
    resolved_at: str

    def __post_init__(self):
        if (self.qid is None) != (self.statement_count is None):
            raise ValueError("qid and statement_count must be present together")
        if self.statement_count is not None and self.statement_count < 0:
            raise ValueError("statement_count must be non-negative")

    @property
    def found(self) -> bool:
        return self.qid is not None


@dataclass
class BucketAssignment:
    buckets: dict[str, set[str]] = field(default_factory=dict)

    def validate(self, universe: set[str]) -> None:
        seen: set[str] = set()
        for name, members in self.buckets.items():
            if name not in BUCKET_NAMES:
                raise ValueError(f"unknown bucket {name!r}")
            overlap = seen & members
            if overlap:
                raise ValueError(f"buckets overlap on {sorted(overlap)[:3]}")
            seen |= members
        if seen != universe:
            raise ValueError("buckets must partition the entity set exactly")


class RateLimiter:
    """Blocks callers so requests stay under MAX_REQUESTS_PER_SECOND."""

    def __init__(self, clock=time.monotonic, sleep=time.sleep):
        self._interval = 1.0 / MAX_REQUESTS_PER_SECOND
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_at = 0.0

    def wait(self) -> None:
        with self._lock:
            now = self._clock()
            delay = self._next_at - now
            if delay > 0:
                self._sleep(delay)
                now = self._next_at
            self._next_at = max(now, self._next_at) + self._interval


class WikidataClient:
    """Thin wrapper over the public search and entity-data endpoints."""

    def __init__(
        self,
        endpoint_url: str = WIKIDATA_API,
        max_retries: int = 3,
        rate_limiter: Optional[RateLimiter] = None,
        sleep=time.sleep,
    ):
        self.endpoint_url = endpoint_url
        self.max_retries = max_retries
        self._limiter = rate_limiter or RateLimiter()
        self._sleep = sleep
        self._session = Session()

    def _get(self, params: dict) -> dict:
        query = dict(params)
        query["format"] = "json"

        def attempt() -> dict:
            self._limiter.wait()
            resp = send(
                lambda: self._session.get(self.endpoint_url, params=query, timeout=WIKIDATA_TIMEOUT_S)
            )
            try:
                return resp.json()
            except ValueError as exc:
                raise TransportError(f"non-JSON response: {exc}") from exc

        return with_retries(attempt, self.max_retries, self._sleep)

    def search_qid(self, label: str) -> Optional[str]:
        """Top search hit for a label, or None when nothing matches."""
        payload = self._get(
            {
                "action": "wbsearchentities",
                "search": label,
                "language": "en",
                "uselang": "en",
                "type": "item",
                "limit": 5,
            }
        )
        hits = payload.get("search", [])
        if not hits:
            return None
        if len(hits) > 1:
            logger.info("label %r is ambiguous (%d hits); taking top hit", label, len(hits))
        return hits[0]["id"]

    def statement_count(self, qid: str) -> int:
        """Total number of statements on the entity page (sum over properties)."""
        payload = self._get({"action": "wbgetentities", "ids": qid, "props": "claims"})
        entity = payload.get("entities", {}).get(qid, {})
        claims = entity.get("claims", {})
        return sum(len(values) for values in claims.values())


CACHE_NAME = "popularity.ndjson"


class PopularityStore:
    """Append-only NDJSON cache of resolved popularity records."""

    def __init__(self, path: Path):
        self._store = NdjsonStore(path)
        self._records: dict[str, PopularityRecord] = {}
        for entry in self._store.entries():
            record = PopularityRecord(
                entity=entry["entity"],
                qid=entry["qid"],
                statement_count=entry["statement_count"],
                resolved_at=entry["resolved_at"],
            )
            self._records[record.entity] = record

    def get(self, entity: str) -> Optional[PopularityRecord]:
        return self._records.get(entity)

    def put(self, record: PopularityRecord) -> None:
        self._records[record.entity] = record
        # Field order is the line's key order.
        self._store.append([asdict(record)])

    def __len__(self) -> int:
        return len(self._records)


def resolve_popularity(
    entity: str,
    client: WikidataClient,
    store: Optional[PopularityStore] = None,
) -> PopularityRecord:
    """Resolve one label, consulting and feeding the cache when given."""
    if not entity:
        raise ValueError("entity label must be non-empty")
    if store is not None:
        cached = store.get(entity)
        if cached is not None:
            return cached
    qid = client.search_qid(entity)
    if qid is None:
        record = PopularityRecord(entity, None, None, utcnow())
    else:
        record = PopularityRecord(entity, qid, client.statement_count(qid), utcnow())
    if store is not None:
        store.put(record)
    return record


def resolve_many(
    entities: Iterable[str],
    client: Optional[WikidataClient],
    store: Optional[PopularityStore] = None,
    offline: bool = False,
) -> list[PopularityRecord]:
    """Resolve a batch of labels. Offline mode never touches the network:
    uncached labels come back NotFound (and are not written to the cache)."""
    records: list[PopularityRecord] = []
    for entity in entities:
        cached = store.get(entity) if store is not None else None
        if cached is not None:
            records.append(cached)
            continue
        if offline:
            logger.warning("offline: %r not in cache, treating as NotFound", entity)
            records.append(PopularityRecord(entity, None, None, utcnow()))
            continue
        if client is None:
            raise ValueError("online resolution requires a client")
        records.append(resolve_popularity(entity, client, store))
    return records


def bucketize(records: Sequence[PopularityRecord]) -> BucketAssignment:
    """Partition entities into NotFound plus four ascending-popularity quartiles.

    Resolved entities sort by (statement_count, label); the four buckets are
    contiguous index ranges with any remainder going to the lower quartiles.
    """
    buckets: dict[str, set[str]] = {name: set() for name in BUCKET_NAMES}
    resolved = []
    for record in records:
        if record.found:
            resolved.append(record)
        else:
            buckets[BUCKET_NOT_FOUND].add(record.entity)
    resolved.sort(key=lambda r: (r.statement_count, r.entity))

    n = len(resolved)
    base, remainder = divmod(n, 4)
    sizes = [base + (1 if i < remainder else 0) for i in range(4)]
    cursor = 0
    for name, size in zip(QUARTILE_BUCKETS, sizes):
        for record in resolved[cursor : cursor + size]:
            buckets[name].add(record.entity)
        cursor += size

    assignment = BucketAssignment(buckets=buckets)
    assignment.validate({r.entity for r in records})
    return assignment
