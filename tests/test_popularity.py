import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge import popularity
from kbforge.gateway import Session, TransportError
from kbforge.popularity import (
    BUCKET_NAMES,
    BUCKET_NOT_FOUND,
    QUARTILE_BUCKETS,
    PopularityRecord,
    PopularityStore,
    RateLimiter,
    WikidataClient,
    bucketize,
    resolve_many,
)

from fixture_server import LocalServer, wikidata_responder


def _record(entity, count):
    if count is None:
        return PopularityRecord(entity, None, None, "2026-01-01T00:00:00+00:00")
    return PopularityRecord(entity, f"Q{count}", count, "2026-01-01T00:00:00+00:00")


def _client(server_url, **kwargs):
    kwargs.setdefault("rate_limiter", RateLimiter(clock=lambda: 0.0, sleep=lambda s: None))
    kwargs.setdefault("sleep", lambda s: None)
    return WikidataClient(endpoint_url=server_url + "/w/api.php", **kwargs)


class TestPopularityRecord:
    def test_found_property(self):
        assert _record("a", 5).found
        assert not _record("a", None).found

    def test_count_and_qid_must_agree(self):
        with pytest.raises(ValueError):
            PopularityRecord("a", "Q5", None, "t")
        with pytest.raises(ValueError):
            PopularityRecord("a", None, 5, "t")
        with pytest.raises(ValueError):
            PopularityRecord("a", "Q5", -1, "t")


class TestBucketize:
    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.none() | st.integers(0, 20), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_buckets_partition_the_labels_into_ascending_quartiles(self, counts):
        buckets = bucketize([_record(label, count) for label, count in counts.items()]).buckets
        assert list(buckets) == list(BUCKET_NAMES)
        members = [label for name in BUCKET_NAMES for label in buckets[name]]
        assert sorted(members) == sorted(counts)
        assert buckets[BUCKET_NOT_FOUND] == {label for label, count in counts.items() if count is None}
        sizes = [len(buckets[name]) for name in QUARTILE_BUCKETS]
        # Sizes differ by at most one, and the larger ones are the lower quartiles.
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
        ranked = [sorted((counts[label], label) for label in buckets[name]) for name in QUARTILE_BUCKETS]
        assert sum(ranked, []) == sorted(sum(ranked, []))

    def test_even_split(self):
        records = [_record(f"e{i}", i * 10) for i in range(1, 9)]
        assignment = bucketize(records)
        assert assignment.buckets["Q1"] == {"e1", "e2"}
        assert assignment.buckets["Q2"] == {"e3", "e4"}
        assert assignment.buckets["Q3"] == {"e5", "e6"}
        assert assignment.buckets["Q4"] == {"e7", "e8"}
        assert assignment.buckets[BUCKET_NOT_FOUND] == set()

    def test_remainder_goes_to_lower_quartiles(self):
        records = [_record(f"e{i}", i * 10) for i in range(1, 6)]
        assignment = bucketize(records)
        sizes = [len(assignment.buckets[name]) for name in ("Q1", "Q2", "Q3", "Q4")]
        assert sizes == [2, 1, 1, 1]
        assert assignment.buckets["Q1"] == {"e1", "e2"}
        assert assignment.buckets["Q4"] == {"e5"}

    def test_unresolved_entities_land_in_not_found(self):
        records = [_record("known", 3), _record("ghost", None)]
        assignment = bucketize(records)
        assert assignment.buckets[BUCKET_NOT_FOUND] == {"ghost"}
        assert assignment.buckets["Q1"] == {"known"}

    def test_all_not_found(self):
        records = [_record(f"g{i}", None) for i in range(3)]
        assignment = bucketize(records)
        assert assignment.buckets[BUCKET_NOT_FOUND] == {"g0", "g1", "g2"}
        assert all(not assignment.buckets[q] for q in ("Q1", "Q2", "Q3", "Q4"))

    def test_ties_break_by_label(self):
        records = [_record(name, 7) for name in ("b", "a", "d", "c")]
        assignment = bucketize(records)
        assert assignment.buckets["Q1"] == {"a"}
        assert assignment.buckets["Q2"] == {"b"}
        assert assignment.buckets["Q3"] == {"c"}
        assert assignment.buckets["Q4"] == {"d"}


class TestRateLimiter:
    def test_spaces_requests(self):
        now = {"t": 0.0}
        slept = []

        def clock():
            return now["t"]

        def sleep(seconds):
            slept.append(seconds)
            now["t"] += seconds

        limiter = RateLimiter(clock=clock, sleep=sleep)
        limiter.wait()
        limiter.wait()
        limiter.wait()
        assert slept == [pytest.approx(0.2), pytest.approx(0.2)]

    def test_no_wait_when_calls_are_sparse(self):
        now = {"t": 0.0}
        slept = []

        def clock():
            return now["t"]

        limiter = RateLimiter(clock=clock, sleep=slept.append)
        limiter.wait()
        now["t"] += 10.0
        limiter.wait()
        assert slept == []


CATALOG = {
    "Hammurabi": ("Q36359", 37),
    "Babylon": ("Q5684", 120),
    "Marduk": ("Q130227", 8),
}


def _assert_retried_with_backoff(call, body, message):
    """Every answer is ``body``: the client's ``call`` is sent four times and
    then raises a ``TransportError`` whose text holds ``message``."""
    slept = []
    with LocalServer(lambda *request: (200, body)) as server:
        client = _client(server.url, sleep=slept.append)
        with pytest.raises(TransportError, match=message):
            getattr(client, call)("Q1")
        assert len(server.requests) == 4
    assert len(slept) == 3 and all(delay > 0 for delay in slept)


class TestWikidataClient:
    def test_resolves_label_to_statement_count(self):
        with LocalServer(wikidata_responder(CATALOG)) as server:
            client = _client(server.url)
            assert client.search_qid("Hammurabi") == "Q36359"
            assert client.statement_count("Q36359") == 37

    def test_unknown_label_resolves_to_none(self):
        with LocalServer(wikidata_responder(CATALOG)) as server:
            client = _client(server.url)
            assert client.search_qid("Zzyzx Nonsense") is None

    def test_missing_qid_counts_zero(self):
        with LocalServer(wikidata_responder(CATALOG)) as server:
            client = _client(server.url)
            assert client.statement_count("Q999999") == 0

    def test_rate_limit_responses_are_retried(self):
        with LocalServer(wikidata_responder(CATALOG, fail_first=2)) as server:
            client = _client(server.url)
            assert client.search_qid("Hammurabi") == "Q36359"
            assert len(server.requests) == 3

    def test_exhausted_retries_surface(self, monkeypatch):
        monkeypatch.setattr(popularity, "WIKIDATA_MAX_RETRIES", 1)
        with LocalServer(wikidata_responder(CATALOG, fail_first=10)) as server:
            client = _client(server.url)
            with pytest.raises(TransportError):
                client.search_qid("Hammurabi")

    def test_body_that_is_not_json_is_retried_with_backoff(self):
        _assert_retried_with_backoff("search_qid", b"not json", "non-JSON response")

    @pytest.mark.parametrize(
        "call, body",
        [
            ("search_qid", b"[]"),
            ("search_qid", b'{"search": ["Q1"]}'),
            ("search_qid", b'{"search": [{"label": "x"}]}'),
            ("search_qid", b'{"search": [{"id": 1}]}'),
            ("statement_count", b'{"entities": []}'),
            ("statement_count", b'{"entities": {"Q1": {"claims": {"P1": 3}}}}'),
            ("statement_count", b'{"entities": {"Q1": {"claims": {"P1": "abc"}}}}'),
        ],
    )
    def test_body_of_the_wrong_shape_is_retried_with_backoff(self, call, body):
        _assert_retried_with_backoff(call, body, "wrong shape")

    @pytest.mark.parametrize("body", [b"{}", b'{"entities": {"Q1": {"claims": []}}}'])
    def test_entity_without_claims_counts_zero(self, body):
        with LocalServer(lambda *request: (200, body)) as server:
            assert _client(server.url).statement_count("Q1") == 0
            assert len(server.requests) == 1

    def test_requests_carry_the_fixed_timeout_language_and_user_agent(self, monkeypatch):
        timeouts = []
        get = Session.get
        monkeypatch.setattr(Session, "get", lambda self, *a, **kw: timeouts.append(kw["timeout"]) or get(self, *a, **kw))
        with LocalServer(wikidata_responder(CATALOG)) as server:
            client = _client(server.url)
            client.statement_count(client.search_qid("Hammurabi"))
        assert timeouts == [30, 30]
        search = server.requests[0][2]
        assert (search["action"], search["language"], search["uselang"]) == ("wbsearchentities", "en", "en")
        assert all(r.headers["User-Agent"].startswith("kbforge/0.1 ") for r in server.received)


class TestResolveAndCache:
    def test_resolution_populates_cache(self, tmp_path):
        store = PopularityStore(tmp_path / "popularity.ndjson")
        with LocalServer(wikidata_responder(CATALOG)) as server:
            client = _client(server.url)
            (record,) = resolve_many(["Hammurabi"], client, store)
            assert record.qid == "Q36359"
            assert record.statement_count == 37
            before = len(server.requests)
            (again,) = resolve_many(["Hammurabi"], client, store)
            assert len(server.requests) == before
        assert again.qid == "Q36359"
        assert len(store) == 1

    def test_cache_survives_reload(self, tmp_path):
        path = tmp_path / "popularity.ndjson"
        store = PopularityStore(path)
        store.put(_record("Marduk", 8))
        reloaded = PopularityStore(path)
        cached = reloaded.get("Marduk")
        assert cached is not None and cached.statement_count == 8

    def test_not_found_is_cached_online(self, tmp_path):
        store = PopularityStore(tmp_path / "popularity.ndjson")
        with LocalServer(wikidata_responder(CATALOG)) as server:
            client = _client(server.url)
            (record,) = resolve_many(["Zzyzx Nonsense"], client, store)
        assert not record.found
        assert store.get("Zzyzx Nonsense") is not None

    def test_offline_mode_never_calls_out(self, tmp_path, caplog):
        store = PopularityStore(tmp_path / "popularity.ndjson")
        store.put(_record("Babylon", 120))
        with caplog.at_level("WARNING"):
            records = resolve_many(
                ["Babylon", "Uncached Thing"], client=None, store=store, offline=True
            )
        assert records[0].statement_count == 120
        assert not records[1].found
        # The offline miss is reported but never written to the cache.
        assert store.get("Uncached Thing") is None
        assert any("offline" in m for m in caplog.messages)

    def test_offline_misses_share_one_warning(self, tmp_path, caplog):
        store = PopularityStore(tmp_path / "popularity.ndjson")
        store.put(_record("Babylon", 120))
        with caplog.at_level("WARNING"):
            records = resolve_many(["Ur", "Babylon", "Uruk", "Lagash"], client=None, store=store, offline=True)
        assert [r.found for r in records] == [False, True, False, False]
        assert len(caplog.records) == 1
        assert "3 labels" in caplog.messages[0] and "'Lagash'" in caplog.messages[0]

    def test_online_without_client_is_an_error(self, tmp_path):
        store = PopularityStore(tmp_path / "popularity.ndjson")
        with pytest.raises(ValueError):
            resolve_many(["anything"], client=None, store=store, offline=False)

    def test_end_to_end_bucketing(self, tmp_path):
        store = PopularityStore(tmp_path / "popularity.ndjson")
        with LocalServer(wikidata_responder(CATALOG)) as server:
            client = _client(server.url)
            records = resolve_many(
                ["Hammurabi", "Babylon", "Marduk", "Zzyzx Nonsense"],
                client,
                store,
            )
        assignment = bucketize(records)
        assert assignment.buckets[BUCKET_NOT_FOUND] == {"Zzyzx Nonsense"}
        # Ascending popularity: Marduk (8) < Hammurabi (37) < Babylon (120).
        assert assignment.buckets["Q1"] == {"Marduk"}
        assert assignment.buckets["Q2"] == {"Hammurabi"}
        assert assignment.buckets["Q3"] == {"Babylon"}
        assert assignment.buckets["Q4"] == set()

    def test_reads_and_writes_the_original_line_layout(self, tmp_path):
        lines = (
            '{"entity": "Nabû", "qid": "Q1", "statement_count": 7, '
            '"resolved_at": "2026-01-01T00:00:00+00:00"}\n'
            '{"entity": "ghost", "qid": null, "statement_count": null, '
            '"resolved_at": "2026-01-01T00:00:00+00:00"}\n'
        )
        old = tmp_path / "old.ndjson"
        old.write_text(lines, encoding="utf-8")
        loaded = PopularityStore(old)
        assert loaded.get("Nabû") == PopularityRecord("Nabû", "Q1", 7, "2026-01-01T00:00:00+00:00")
        assert not loaded.get("ghost").found
        new = tmp_path / "new.ndjson"
        store = PopularityStore(new)
        store.put(loaded.get("Nabû"))
        store.put(loaded.get("ghost"))
        assert new.read_text(encoding="utf-8") == lines

    def test_cache_lines_are_json(self, tmp_path):
        path = tmp_path / "popularity.ndjson"
        store = PopularityStore(path)
        store.put(_record("Hammurabi", 37))
        store.put(_record("ghost", None))
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[0]["entity"] == "Hammurabi"
        assert rows[0]["statement_count"] == 37
        assert rows[1]["qid"] is None
