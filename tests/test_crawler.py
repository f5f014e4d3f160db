import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from kbforge.crawler import (
    NER_BATCH,
    classify_degeneracy,
    crawl,
    default_run_id,
    detect_overlong_label,
    detect_q_identifier,
    detect_repetition_loop,
    run_suite,
)
from kbforge.gateway import (
    BackendDescriptor,
    ElicitationRequest,
    MalformedOutputError,
    MockWorldGateway,
    NerRequest,
    RemoteChatGateway,
    parse_elicitation_payload,
    replay_audit,
)
from kbforge.model import (
    Caps,
    RunConfig,
    StructuralCategory,
    Termination,
    TermKind,
    derive_categories,
    load_triples,
    save_run,
)

from fixture_server import LocalServer, chat_ok, scripted_chat_responder
from oracles import world_closure


class TestQIdentifierDetector:
    @pytest.mark.parametrize("label", ["Q768509", "Q1", "Q0042"])
    def test_positive(self, label):
        assert detect_q_identifier(label)

    @pytest.mark.parametrize("label", ["Q", "Q42b", "P123", " Q42", "Q42 ", "Marduk"])
    def test_negative(self, label):
        assert not detect_q_identifier(label)


class TestRepetitionDetector:
    @pytest.mark.parametrize(
        "label",
        [
            "mu-mu-mu",
            "Nabu-mukin-zeri-mu-mu-mu",
            "word word word",
            "a-b-c c c c",
        ],
    )
    def test_positive(self, label):
        assert detect_repetition_loop(label)

    @pytest.mark.parametrize(
        "label",
        [
            "la-la-land",
            "Nabu-mukin-zeri-mu-mu",
            "a-b-a-b",
            "Walla Walla",
            "",
            "single",
        ],
    )
    def test_negative(self, label):
        assert not detect_repetition_loop(label)


class TestOverlongDetector:
    def test_boundary(self):
        assert not detect_overlong_label("x" * 200)
        assert detect_overlong_label("x" * 201)


class TestClassifyDegeneracy:
    def test_precedence_and_kinds(self):
        assert classify_degeneracy("Q" + "9" * 300) == "q_identifier"
        assert classify_degeneracy(("ha-" * 80) + "ha") == "repetition_loop"
        assert classify_degeneracy("x y " * 60) == "overlong_label"
        assert classify_degeneracy("Nebuchadnezzar II") is None


class TestDefaultRunId:
    def test_stable_and_config_sensitive(self, babylon_config):
        first = default_run_id(babylon_config)
        assert first == default_run_id(babylon_config)
        assert first.startswith("run-")
        other = RunConfig(topic="babylon", seed_entity="Marduk")
        assert default_run_id(other) != first


class TestFixtureCrawl:
    def test_matches_reachability_oracle(self, babylon_config, babylon_gateway, babylon_world_path):
        record = crawl(babylon_config, babylon_gateway)
        expected_entities, expected_triples = world_closure(babylon_world_path, "Hammurabi")

        assert record.termination is Termination.ORGANIC
        categories = derive_categories(record.kb)
        assert categories[StructuralCategory.NAMED_ENTITIES] == expected_entities
        assert len(expected_entities) >= 30

        got = {
            (t.subject, t.predicate, t.object, t.object_kind is TermKind.NAMED_ENTITY)
            for t in record.kb.triples
        }
        assert got == expected_triples

    def test_unreachable_decoys_stay_out(self, babylon_config, babylon_gateway):
        record = crawl(babylon_config, babylon_gateway)
        names = derive_categories(record.kb)[StructuralCategory.NAMED_ENTITIES]
        assert "Gilgamesh" not in names
        assert "Uruk" not in names

    def test_layer_bookkeeping(self, babylon_config, babylon_gateway):
        record = crawl(babylon_config, babylon_gateway)
        seed_layers = {t.layer for t in record.kb.triples if t.subject == "Hammurabi"}
        assert seed_layers == {0}
        # BFS gives every subject exactly one expansion layer.
        per_subject = {}
        for t in record.kb.triples:
            per_subject.setdefault(t.subject, set()).add(t.layer)
        assert all(len(layers) == 1 for layers in per_subject.values())
        # The deepest expanded layer may hold only leaf subjects with no facts.
        assert record.deepest_layer >= max(t.layer for t in record.kb.triples)
        assert record.deepest_layer == len(record.per_layer_counts) - 1
        assert sum(s.new_triples for s in record.per_layer_counts) == len(record.kb)
        assert record.degeneracy_events == []

    def test_visited_covers_every_entity(self, babylon_config, babylon_gateway, babylon_world_path):
        record = crawl(babylon_config, babylon_gateway)
        expected_entities, _ = world_closure(babylon_world_path, "Hammurabi")
        assert record.kb.visited_subjects == expected_entities

    def test_rerun_is_deterministic(self, babylon_config, babylon_gateway, tmp_path):
        first = crawl(babylon_config, babylon_gateway, run_id="r")
        second = crawl(babylon_config, babylon_gateway, run_id="r")
        assert [t.key() for t in first.kb.triples] == [t.key() for t in second.kb.triples]

        save_run(first, tmp_path / "a")
        save_run(second, tmp_path / "b")
        rows_a = (tmp_path / "a" / "triples.ndjson").read_bytes()
        rows_b = (tmp_path / "b" / "triples.ndjson").read_bytes()
        assert rows_a == rows_b


class _Clock:
    """A clock the test advances by hand."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class _ExpiringGateway:
    """Wraps a gateway; pushes the clock past any deadline after N calls of
    ``kind`` ("elicit" or "classify_ner")."""

    def __init__(self, inner, clock, detonate_after, kind="elicit"):
        self.inner = inner
        self.clock = clock
        self.left = detonate_after
        self.kind = kind

    def _call(self, kind, req):
        response = getattr(self.inner, kind)(req)
        if kind == self.kind:
            self.left -= 1
            if self.left <= 0:
                self.clock.now = 1e9
        return response

    def elicit(self, req):
        return self._call("elicit", req)

    def classify_ner(self, req):
        return self._call("classify_ner", req)


class TestCaps:
    def test_layer_cap(self, babylon_gateway):
        config = RunConfig(
            topic="babylon",
            seed_entity="Hammurabi",
            caps=Caps(max_layers=2),
            parallelism=2,
        )
        record = crawl(config, babylon_gateway)
        assert record.termination is Termination.CAPPED_LAYERS
        assert record.deepest_layer == 1
        assert {t.layer for t in record.kb.triples} <= {0, 1}

    def test_triple_cap(self, babylon_gateway):
        config = RunConfig(
            topic="babylon",
            seed_entity="Hammurabi",
            caps=Caps(max_triples=5),
            parallelism=2,
        )
        record = crawl(config, babylon_gateway)
        assert record.termination is Termination.CAPPED_TRIPLES
        assert len(record.kb) == 5

    def test_time_cap_at_layer_boundary(self, babylon_gateway):
        clock = _Clock()
        gateway = _ExpiringGateway(babylon_gateway, clock, detonate_after=1)
        config = RunConfig(
            topic="babylon",
            seed_entity="Hammurabi",
            caps=Caps(max_wall_seconds=100),
            parallelism=1,
        )
        record = crawl(config, gateway, clock=clock)
        assert record.termination is Termination.CAPPED_TIME
        # The seed layer completed before the clock ran out.
        assert len(record.kb) == 5
        assert record.kb.visited_subjects == {"Hammurabi"}

    def test_time_cap_after_a_committed_layer(self, babylon_gateway):
        # The clock runs out after layer 0's NER batch, so the layer is
        # committed with its verdicts and the next layer never starts.
        clock = _Clock()
        gateway = _ExpiringGateway(babylon_gateway, clock, detonate_after=1, kind="classify_ner")
        config = RunConfig(
            topic="babylon",
            seed_entity="Hammurabi",
            caps=Caps(max_wall_seconds=100),
            parallelism=1,
        )
        record = crawl(config, gateway, clock=clock)
        assert record.termination is Termination.CAPPED_TIME
        assert [(s.layer, s.new_entities, s.new_triples) for s in record.per_layer_counts] == [(0, 4, 5)]
        assert {t.layer for t in record.kb.triples} == {0}
        assert record.kb.visited_subjects == {"Hammurabi"}
        assert record.deepest_layer == 0

    def test_time_cap_mid_layer_skips_subjects(self, babylon_gateway):
        clock = _Clock()
        gateway = _ExpiringGateway(babylon_gateway, clock, detonate_after=2)
        config = RunConfig(
            topic="babylon",
            seed_entity="Hammurabi",
            caps=Caps(max_wall_seconds=100),
            parallelism=1,
        )
        record = crawl(config, gateway, clock=clock)
        assert record.termination is Termination.CAPPED_TIME
        # Layer 1 order is discovery order: King, Babylon, Code, Samsu-iluna.
        assert record.kb.visited_subjects == {"Hammurabi", "King"}
        assert "Babylon" not in record.kb.visited_subjects
        assert "Samsu-iluna" not in record.kb.visited_subjects
        assert record.deepest_layer == 1


class _BrokenSubjectGateway:
    """Serves the fixture world except one subject, which stays malformed."""

    def __init__(self, inner, broken):
        self.inner = inner
        self.broken = broken

    def elicit(self, req):
        if req.subject == self.broken:
            raise MalformedOutputError("model kept returning prose")
        return self.inner.elicit(req)

    def classify_ner(self, req):
        return self.inner.classify_ner(req)


class TestDegradedSubjects:
    def test_malformed_subject_is_visited_with_zero_triples(
        self, babylon_config, babylon_gateway
    ):
        gateway = _BrokenSubjectGateway(babylon_gateway, "Babylon")
        record = crawl(babylon_config, gateway)
        assert record.termination is Termination.ORGANIC
        assert "Babylon" in record.kb.visited_subjects
        assert not any(t.subject == "Babylon" for t in record.kb.triples)
        # Babylon still appears as an object elicited from the seed.
        names = derive_categories(record.kb)[StructuralCategory.NAMED_ENTITIES]
        assert "Babylon" in names


class TestLoopWorld:
    def test_degenerate_names_are_fenced_off(self, loop_config, loop_world_path):
        gateway = MockWorldGateway(loop_world_path)
        record = crawl(loop_config, gateway)

        assert record.termination is Termination.CAPPED_LAYERS
        assert record.deepest_layer == 4

        by_kind = {}
        for event in record.degeneracy_events:
            by_kind.setdefault(event.kind, []).append(event)
        q_events = by_kind.get("q_identifier", [])
        assert [e.entity for e in q_events] == ["Q768509"]
        assert q_events[0].layer == 1

        loop_events = by_kind.get("repetition_loop", [])
        assert loop_events, "expected trailing-syllable loops to be flagged"
        # Pure trailing chains first reach three repeats at layer 3; longer
        # chains keep getting flagged on every later layer.
        assert min(e.layer for e in loop_events) == 3
        flagged = {e.entity for e in record.degeneracy_events}
        assert "Nabu-mukin-zeri-mu-mu-mu" in flagged

        # Flagged names keep their triples but are never expanded.
        objects = {t.object for t in record.kb.triples}
        assert "Q768509" in objects
        assert not (flagged & record.kb.visited_subjects)
        assert not any(t.subject in flagged for t in record.kb.triples)


class TestRunSuite:
    def test_identical_runs_share_bytes(self, babylon_config, babylon_gateway, tmp_path):
        configs = [babylon_config] * 3
        records = run_suite(configs, babylon_gateway, tmp_path / "suite")
        assert all(r is not None for r in records)

        manifest = json.loads((tmp_path / "suite" / "suite.json").read_text())
        assert manifest["dimension"] == "base"
        assert manifest["run_ids"] == ["run-000", "run-001", "run-002"]
        assert manifest["failed"] == {}

        blobs = [
            (tmp_path / "suite" / rid / "triples.ndjson").read_bytes()
            for rid in manifest["run_ids"]
        ]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_failed_run_does_not_kill_siblings(self, babylon_config, babylon_gateway, tmp_path):
        bad = RunConfig(topic="babylon", seed_entity="   ")
        records = run_suite(
            [babylon_config, bad, babylon_config], babylon_gateway, tmp_path / "suite"
        )
        assert records[0] is not None and records[2] is not None
        assert records[1] is None
        assert (tmp_path / "suite" / "run-001" / "FAILED").exists()
        manifest = json.loads((tmp_path / "suite" / "suite.json").read_text())
        assert set(manifest["failed"]) == {"run-001"}
        assert (tmp_path / "suite" / "run-002" / "triples.ndjson").exists()

    def test_rejects_bad_arguments(self, babylon_config, babylon_gateway, tmp_path):
        with pytest.raises(ValueError):
            run_suite([], babylon_gateway, tmp_path / "s")
        with pytest.raises(ValueError):
            run_suite([babylon_config], babylon_gateway, tmp_path / "s", dimension="vibes")

    def test_loaded_triples_preserve_order(self, babylon_config, babylon_gateway, tmp_path):
        record = crawl(babylon_config, babylon_gateway)
        save_run(record, tmp_path / "run")
        loaded = load_triples(tmp_path / "run" / "triples.ndjson")
        assert [t.key() for t in loaded] == [t.key() for t in record.kb.triples]


def _world_responder(world_gateway, before=None, delay_s=0.0):
    """Serves chat completions from a mock world: elicitations by subject,
    NER batches by phrase. ``before`` sees each parsed request body first."""

    def responder(method, path, query, body):
        request = json.loads(body)
        if before:
            before(request)
        time.sleep(delay_s)
        payload = request["messages"][1]["content"]
        if request["response_format"]["json_schema"]["name"] == "elicitation_triples":
            triples = world_gateway.elicit(ElicitationRequest(payload, "babylon")).triples
            return chat_ok(json.dumps(
                {"triples": [{"subject": s, "predicate": p, "object": o} for s, p, o in triples]},
                ensure_ascii=False,
            ))
        verdicts = world_gateway.classify_ner(NerRequest(payload.split("\n"), "babylon")).verdicts
        return chat_ok(json.dumps({"verdicts": verdicts}))

    return responder


def _remote_gateway(url, audit_path=None):
    descriptor = BackendDescriptor(kind="remote", endpoint_url=url, max_retries=0)
    return RemoteChatGateway(descriptor, api_key="test-key", audit_path=audit_path)


def _model_configs(*models):
    return [RunConfig(topic="babylon", seed_entity="Hammurabi", model_id=m, parallelism=2) for m in models]


class TestRemoteSuite:
    def test_runs_crawl_at_the_same_time(self, babylon_gateway, tmp_path):
        second_run_started = threading.Event()
        held = []

        def before(request):
            if request["model"] == "m1":
                second_run_started.set()
            elif not held:
                # run-000's first elicitation waits for run-001's first request.
                held.append(second_run_started.wait(timeout=5))

        with LocalServer(_world_responder(babylon_gateway, before)) as server:
            records = run_suite(
                _model_configs("m0", "m1"), _remote_gateway(server.url), tmp_path / "suite"
            )
        assert held == [True]
        assert all(r is not None for r in records)

    def test_remote_runs_equal_the_mock_crawl(self, babylon_config, babylon_gateway, tmp_path):
        with LocalServer(_world_responder(babylon_gateway, delay_s=0.002)) as server:
            records = run_suite([babylon_config] * 3, _remote_gateway(server.url), tmp_path / "suite")
        reference = crawl(babylon_config, babylon_gateway, run_id="run-000")
        save_run(reference, tmp_path / "reference")
        expected = (tmp_path / "reference" / "triples.ndjson").read_bytes()
        for record in records:
            assert (tmp_path / "suite" / record.run_id / "triples.ndjson").read_bytes() == expected

    def test_interrupt_stops_every_run(self, babylon_gateway, tmp_path):
        served = []

        def before(request):
            served.append(request["model"])
            if request["model"] == "m1" and served.count("m1") == 1:
                # Ctrl-C once both runs are under way.
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        with LocalServer(_world_responder(babylon_gateway, before, delay_s=0.05)) as server:
            with pytest.raises(KeyboardInterrupt):
                run_suite(_model_configs("m0", "m1"), _remote_gateway(server.url), tmp_path / "suite")
        # A whole run sends dozens of requests; an interrupted one ends after
        # the requests it already had in flight.
        assert len(served) <= 4
        for run_id in ("run-000", "run-001"):
            assert (tmp_path / "suite" / run_id / "FAILED").read_text() == "suite interrupted\n"
        assert not (tmp_path / "suite" / "suite.json").exists()

    def test_failed_runs_keep_index_order(self, babylon_gateway, tmp_path):
        last_failure_sent = threading.Event()
        serve = _world_responder(babylon_gateway)

        def responder(method, path, query, body):
            model = json.loads(body)["model"]
            if model == "bad3":
                last_failure_sent.set()
            elif model == "bad1":
                # run-001 fails after run-003 has, so failures finish out of order.
                last_failure_sent.wait(timeout=5)
            if model.startswith("bad"):
                return 401, {"error": "bad key"}
            return serve(method, path, query, body)

        with LocalServer(responder) as server:
            records = run_suite(
                _model_configs("m0", "bad1", "m2", "bad3"),
                _remote_gateway(server.url),
                tmp_path / "suite",
            )
        assert [r is not None for r in records] == [True, False, True, False]
        manifest = json.loads((tmp_path / "suite" / "suite.json").read_text())
        assert manifest["run_ids"] == ["run-000", "run-001", "run-002", "run-003"]
        assert list(manifest["failed"]) == ["run-001", "run-003"]
        assert "HTTP 401" in manifest["failed"]["run-001"]
        for run_id in ("run-000", "run-002"):
            assert (tmp_path / "suite" / run_id / "triples.ndjson").exists()
        for run_id in ("run-001", "run-003"):
            assert (tmp_path / "suite" / run_id / "FAILED").exists()

    def test_audit_lines_name_their_run(self, babylon_gateway, tmp_path):
        audit_path = tmp_path / "audit.ndjson"
        with LocalServer(_world_responder(babylon_gateway, delay_s=0.002)) as server:
            run_suite(
                _model_configs("m0", "m1"),
                _remote_gateway(server.url, audit_path),
                tmp_path / "suite",
            )
        sent = {"run-000": [], "run-001": []}
        for _, _, _, body in server.requests:
            request = json.loads(body)
            run_id = {"m0": "run-000", "m1": "run-001"}[request["model"]]
            sent[run_id].append(request["messages"][1]["content"])
        logged = {"run-000": [], "run-001": []}
        entries = [json.loads(line) for line in audit_path.read_text(encoding="utf-8").splitlines()]
        for entry in entries:
            asked = entry["subject"] if entry["kind"] == "elicit" else "\n".join(entry["phrases"])
            logged[entry["run"]].append(asked)
        assert sent["run-000"] and sorted(sent["run-000"]) == sorted(sent["run-001"])
        for run_id in sent:
            assert sorted(logged[run_id]) == sorted(sent[run_id])
        elicited = [e for e in entries if e["kind"] == "elicit"]
        assert [r.triples for r in replay_audit(audit_path)] == [
            parse_elicitation_payload(e["response_text"]) for e in elicited
        ]

    def test_connection_pools_fit_the_requests_in_flight(self, tmp_path):
        # 16 subjects in layer 1: each of 3 runs keeps 4 requests in flight.
        children = [f"Child {i}" for i in range(16)]
        facts = {"Root": [["hasChild", c] for c in children]}
        facts.update({c: [["age", str(i)], ["name", f"child {i}"]] for i, c in enumerate(children)})
        world = tmp_path / "wide_world.json"
        world.write_text(
            json.dumps({"topic": "babylon", "entities": ["Root", *children], "facts": facts}),
            encoding="utf-8",
        )
        models = ("m0", "m1", "m2")
        configs = [
            RunConfig(topic="babylon", seed_entity="Root", model_id=m, parallelism=4) for m in models
        ]
        responder = _world_responder(MockWorldGateway(world), delay_s=0.02)
        with LocalServer(responder, http11=True) as server:
            records = run_suite(configs, _remote_gateway(server.url), tmp_path / "suite")
        assert [len(r.kb) for r in records] == [48, 48, 48]
        connections = {m: set() for m in models}
        for (_, _, _, body), received in zip(server.requests, server.received):
            connections[json.loads(body)["model"]].add(received.connection)
        for m in models:
            assert 1 <= len(connections[m]) <= 4
        # No connection carries two runs' requests.
        assert sum(len(c) for c in connections.values()) == len(set().union(*connections.values()))


class _ThreadRecordingGateway:
    """Serves a mock world and records the thread of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = set()

    def elicit(self, req):
        self.threads.add(threading.get_ident())
        return self.inner.elicit(req)

    def classify_ner(self, req):
        self.threads.add(threading.get_ident())
        return self.inner.classify_ner(req)


@pytest.fixture
def pools(monkeypatch):
    """Counts the thread pools the crawler creates."""
    created = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("kbforge.crawler.ThreadPoolExecutor", CountingPool)
    return created


def _is_elicitation(request):
    return request["response_format"]["json_schema"]["name"] == "elicitation_triples"


class TestCrawlThreads:
    def test_in_process_crawl_runs_on_the_calling_thread(self, babylon_gateway, pools):
        gateway = _ThreadRecordingGateway(babylon_gateway)
        config = RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=4)
        record = crawl(config, gateway)
        assert record.deepest_layer >= 2
        assert gateway.threads == {threading.get_ident()}
        assert pools == []

    def test_remote_crawl_keeps_parallelism_requests_in_flight(self, babylon_gateway):
        lock = threading.Lock()
        elicitations = []
        second_in_flight = threading.Event()
        held = []

        def before(request):
            if not _is_elicitation(request):
                return
            with lock:
                elicitations.append(request)
                ordinal = len(elicitations)
            # Layer 0 is the seed alone; the first request of layer 1 waits
            # until the next one arrives, which needs two workers.
            if ordinal == 2:
                held.append(second_in_flight.wait(timeout=5))
            elif ordinal == 3:
                second_in_flight.set()

        config = RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=2)
        with LocalServer(_world_responder(babylon_gateway, before)) as server:
            record = crawl(config, _remote_gateway(server.url))
        assert held == [True]
        assert record.termination is Termination.ORGANIC

    def test_remote_crawl_uses_one_pool_for_all_layers(self, babylon_gateway, pools):
        config = RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=2)
        with LocalServer(_world_responder(babylon_gateway)) as server:
            record = crawl(config, _remote_gateway(server.url))
        assert record.deepest_layer >= 2
        assert len(pools) == 1
        assert pools[0]._max_workers == 2
        reference = crawl(config, babylon_gateway)
        assert [t.key() for t in record.kb.triples] == [t.key() for t in reference.kb.triples]


class _NerSpy(MockWorldGateway):
    """A mock world that records the phrases of every NER request."""

    def __init__(self, world_path):
        super().__init__(world_path)
        self.batches = []

    def classify_ner(self, req):
        self.batches.append(list(req.phrases))
        return super().classify_ner(req)


def _ner_batches(server):
    return [
        json.loads(body)["messages"][1]["content"].split("\n")
        for _, _, _, body in server.requests
        if not _is_elicitation(json.loads(body))
    ]


class TestNerBatches:
    def test_both_backends_see_the_same_batches(self, tmp_path):
        # The seed's 250 facts give layer 0 250 new literal labels.
        labels = [f"value {i:03d}" for i in range(250)]
        world = tmp_path / "literal_world.json"
        world.write_text(
            json.dumps({"topic": "babylon", "entities": ["Root"], "facts": {"Root": [["has", v] for v in labels]}}),
            encoding="utf-8",
        )
        config = RunConfig(topic="babylon", seed_entity="Root", parallelism=2)
        spy = _NerSpy(world)
        save_run(crawl(config, spy, run_id="r"), tmp_path / "mock")
        with LocalServer(_world_responder(MockWorldGateway(world))) as server:
            record = crawl(config, _remote_gateway(server.url), run_id="r")
        save_run(record, tmp_path / "remote")
        assert NER_BATCH == 100
        expected = [labels[:100], labels[100:200], labels[200:]]
        assert spy.batches == expected
        assert _ner_batches(server) == expected
        assert record.termination is Termination.ORGANIC
        triples = [(tmp_path / side / "triples.ndjson").read_bytes() for side in ("mock", "remote")]
        assert triples[0] == triples[1]

    def test_malformed_batch_makes_literals_and_the_crawl_ends(self, babylon_config, babylon_gateway, tmp_path):
        serve = _world_responder(babylon_gateway)
        ner_requests = []

        def responder(method, path, query, body):
            if not _is_elicitation(json.loads(body)):
                ner_requests.append(body)
                if len(ner_requests) == 2:
                    return chat_ok("garbage")  # layer 1's batch
            return serve(method, path, query, body)

        audit_path = tmp_path / "audit.ndjson"
        with LocalServer(responder) as server:
            record = crawl(babylon_config, _remote_gateway(server.url, audit_path))
            _, layer_1 = _ner_batches(server)
        assert record.termination is Termination.ORGANIC
        assert record.deepest_layer == 1
        assert record.per_layer_counts[1].new_entities == 0
        kinds = {t.object_kind for t in record.kb.triples if t.object in layer_1}
        assert kinds == {TermKind.LITERAL}
        failed = [e for e in map(json.loads, audit_path.read_text(encoding="utf-8").splitlines()) if e["status"] != "ok"]
        assert [(e["kind"], e["phrases"], e["status"]) for e in failed] == [("ner", layer_1, "MalformedOutputError")]


class TestDivergentSubjects:
    def test_facts_are_filed_under_the_requested_subject(self):
        divergent = json.dumps(
            {"triples": [{"subject": "Somebody Else", "predicate": "knows", "object": "Things"}]}
        )
        script = [(200, divergent), (200, json.dumps({"verdicts": [False]}))]
        config = RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=1)
        with LocalServer(scripted_chat_responder(script)) as server:
            record = crawl(config, _remote_gateway(server.url))
        assert [(t.subject, t.predicate, t.object) for t in record.kb.triples] == [("Hammurabi", "knows", "Things")]
        assert record.kb.visited_subjects == {"Hammurabi"}
