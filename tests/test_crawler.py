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
    load_run,
    load_triples,
    read_ndjson,
    save_run,
)

from conftest import held_bytes, label_objects, synthetic_kb
from fixture_server import LocalServer, chat_ok, scripted_chat_responder, world_chat_responder
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
        spy = _CountingGateway(babylon_gateway)
        record = crawl(babylon_config, spy)
        expected_entities, _ = world_closure(babylon_world_path, "Hammurabi")
        assert sorted(spy.subjects) == sorted(expected_entities)
        assert record.visited_count == len(expected_entities)

    def test_equal_labels_are_one_string(self, babylon_config, babylon_gateway):
        objects = label_objects([crawl(babylon_config, babylon_gateway).kb])
        assert {label: len(ids) for label, ids in objects.items() if len(ids) > 1} == {}

    def test_a_suite_keeps_the_gateway_strings(self, babylon_gateway, tmp_path):
        # The strings the gateway serves: one object per label.
        served: dict[str, set[int]] = {}
        for subject in babylon_gateway.facts:
            for triple in babylon_gateway.elicit(ElicitationRequest(subject, "babylon")):
                for label in triple:
                    served.setdefault(label, set()).add(id(label))
        assert {label: len(ids) for label, ids in served.items() if len(ids) > 1} == {}
        # The seed is the one label a crawl takes from its config, not from
        # the gateway; give it the gateway's string.
        [seed] = [subject for subject in babylon_gateway.facts if subject == "Hammurabi"]
        config = RunConfig(topic="babylon", seed_entity=seed)
        records = run_suite([config, config], babylon_gateway, tmp_path / "suite")
        assert all(len(record.kb) > 0 for record in records)
        # Compared by id: both runs hold each label as the gateway's string.
        held = label_objects(record.kb for record in records)
        assert held == {label: served[label] for label in held}

    # The budgets of the loaded-run test in test_model.py. Set on CPython
    # 3.11, where a crawled KB measures 110 B per triple at 5.5k triples and
    # 89 B at 20k; with a dedupe index kept in the KB it measured 138 and
    # 119 B, and with an (s, p, o) tuple kept per triple 271 and 258 B.
    @pytest.mark.parametrize("size, budget", [(5500, 130), (20_000, 105)])
    def test_crawled_kb_fits_its_byte_budget(self, tmp_path, size, budget):
        facts, entities = {}, set()
        for t in synthetic_kb(size).triples:
            facts.setdefault(t.subject, []).append([t.predicate, t.object])
            entities.add(t.subject)
            if t.object_kind is TermKind.NAMED_ENTITY:
                entities.add(t.object)
        world = tmp_path / "world.json"
        world.write_text(json.dumps({"facts": facts, "entities": sorted(entities)}), encoding="utf-8")
        gateway = MockWorldGateway(world)
        config = RunConfig(topic="babylon", seed_entity=next(iter(facts)))
        record, used = held_bytes(lambda: crawl(config, gateway))
        assert len(record.kb) > 0.9 * size
        assert used / len(record.kb) < budget

    def test_a_repeated_fact_keeps_its_first_copy(self, tmp_path):
        # Each subject is elicited once and every fact hangs off the subject
        # asked for, so a fact can only come back twice within one response.
        world = tmp_path / "world.json"
        facts = {
            "Hammurabi": [["ruled", "Babylon"], ["born", "1810 BC"], ["ruled ", " Babylon"], ["ruled", "Babylon"]],
            "Babylon": [["on", "Euphrates"], ["on", "Euphrates"]],
        }
        world.write_text(json.dumps({"facts": facts, "entities": ["Hammurabi", "Babylon"]}), encoding="utf-8")
        record = crawl(RunConfig(topic="babylon", seed_entity="Hammurabi"), MockWorldGateway(world))
        assert [(t.key(), t.layer) for t in record.kb.triples] == [
            (("Hammurabi", "ruled", "Babylon"), 0),
            (("Hammurabi", "born", "1810 BC"), 0),
            (("Babylon", "on", "Euphrates"), 1),
        ]
        assert [s.new_triples for s in record.per_layer_counts] == [2, 1]

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

    def test_wall_seconds_is_the_clock_elapsed(self, babylon_config, babylon_world_path):
        readings = []

        def clock():
            readings.append(1000.0 + 0.5 * len(readings))
            return readings[-1]

        spy = _NerSpy(babylon_world_path)
        record = crawl(babylon_config, spy, clock=clock)
        assert spy.batches
        assert record.wall_seconds == readings[-1] - readings[0]

    def test_time_cap_at_layer_boundary(self, babylon_gateway):
        clock = _Clock()
        spy = _CountingGateway(babylon_gateway)
        gateway = _ExpiringGateway(spy, clock, detonate_after=1)
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
        assert spy.subjects == ["Hammurabi"]
        assert record.visited_count == 1

    def test_time_cap_after_a_committed_layer(self, babylon_gateway):
        # The clock runs out after layer 0's NER batch, so the layer is
        # committed with its verdicts and the next layer never starts.
        clock = _Clock()
        spy = _CountingGateway(babylon_gateway)
        gateway = _ExpiringGateway(spy, clock, detonate_after=1, kind="classify_ner")
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
        assert spy.subjects == ["Hammurabi"]
        assert record.visited_count == 1
        assert record.deepest_layer == 0

    def test_time_cap_mid_layer_skips_subjects(self, babylon_gateway):
        clock = _Clock()
        spy = _CountingGateway(babylon_gateway)
        gateway = _ExpiringGateway(spy, clock, detonate_after=2)
        config = RunConfig(
            topic="babylon",
            seed_entity="Hammurabi",
            caps=Caps(max_wall_seconds=100),
            parallelism=1,
        )
        record = crawl(config, gateway, clock=clock)
        assert record.termination is Termination.CAPPED_TIME
        # Layer 1 order is discovery order: King, Babylon, Code, Samsu-iluna.
        assert spy.subjects == ["Hammurabi", "King"]
        assert record.visited_count == 2
        assert record.deepest_layer == 1

    def test_time_cap_leaves_responses_fetched_ahead_unread(self, babylon_gateway, remote_gateway):
        # One worker elicits in frontier order. Once layer 1's NER batch has
        # gone, the run's clock reads past the deadline as soon as a layer-2
        # subject has been elicited: layer 2 is fetched ahead, never read.
        asked, ner_batches = [], []
        fetched_ahead = threading.Event()
        run_thread = threading.get_ident()

        def before(request):
            if not _is_elicitation(request):
                ner_batches.append(request)
                return
            asked.append(request["messages"][1]["content"])
            if len(ner_batches) == 2:
                fetched_ahead.set()

        def clock():
            if threading.get_ident() == run_thread and len(ner_batches) == 2:
                assert fetched_ahead.wait(timeout=5)
                return 1e9
            return 0.0

        config = RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=1)
        with LocalServer(world_chat_responder(babylon_gateway, before)) as server:
            record = crawl(config, remote_gateway(server.url), clock=clock)
        assert record.termination is Termination.CAPPED_TIME
        read = ["Hammurabi", "King", "Babylon", "Code of Hammurabi", "Samsu-iluna"]
        assert asked[: len(read)] == read
        # "King" answers with no facts, and is read all the same.
        assert {t.subject for t in record.kb.triples} == set(read) - {"King"}
        assert record.visited_count == len(read) < len(asked)

    def test_time_cap_between_ner_batches(self, tmp_path):
        # Layer 0 finds 250 new labels, three NER batches; the clock runs
        # out once the first has returned.
        labels = [f"value {i:03d}" for i in range(250)]
        labels[10], labels[150] = "Early", "Late"
        world = tmp_path / "world.json"
        facts = {"Root": [["has", v] for v in labels], "Early": [["is", "early"]], "Late": [["is", "late"]]}
        world.write_text(json.dumps({"entities": ["Root", "Early", "Late"], "facts": facts}), encoding="utf-8")
        clock = _Clock()
        spy = _NerSpy(world)
        gateway = _ExpiringGateway(spy, clock, detonate_after=1, kind="classify_ner")
        config = RunConfig(topic="babylon", seed_entity="Root", caps=Caps(max_wall_seconds=100), parallelism=1)
        record = crawl(config, gateway, clock=clock)
        assert record.termination is Termination.CAPPED_TIME
        assert spy.batches == [labels[:100]]
        # The sent batch keeps its verdict; the labels of the unsent ones are literals.
        kinds = {t.object: t.object_kind for t in record.kb.triples}
        assert kinds.pop("Early") is TermKind.NAMED_ENTITY
        assert set(kinds.values()) == {TermKind.LITERAL} and "Late" in kinds
        assert [(s.layer, s.new_entities, s.new_triples) for s in record.per_layer_counts] == [(0, 1, 250)]
        assert {t.subject for t in record.kb.triples} == {"Root"}
        assert record.visited_count == 1
        assert record.deepest_layer == 0


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


class _CountingGateway:
    """Passes every call to ``inner`` and records each elicited subject."""

    def __init__(self, inner):
        self.inner = inner
        self.subjects = []

    def elicit(self, req):
        self.subjects.append(req.subject)
        return self.inner.elicit(req)

    def classify_ner(self, req):
        return self.inner.classify_ner(req)


class _BlankLabelGateway:
    """Answers each subject with one fact whose predicate is blank and one
    whose object is; records every elicited subject and every NER batch."""

    def __init__(self):
        self.subjects = []
        self.batches = []

    def elicit(self, req):
        self.subjects.append(req.subject)
        return [(req.subject, "  ", "Ur"), (req.subject, "rules", "\n")]

    def classify_ner(self, req):
        self.batches.append(list(req.phrases))
        return [True] * len(req.phrases)


class TestElicitedLabels:
    @pytest.mark.parametrize("world", ["babylon", "loop"])
    def test_each_subject_is_elicited_once(self, request, world):
        config = request.getfixturevalue(f"{world}_config")
        gateway = _CountingGateway(MockWorldGateway(request.getfixturevalue(f"{world}_world_path")))
        record = crawl(config, gateway)
        assert len(gateway.subjects) > 10
        assert len(set(gateway.subjects)) == len(gateway.subjects) == record.visited_count
        assert {t.subject for t in record.kb.triples} <= set(gateway.subjects)

    def test_a_blank_predicate_or_object_is_dropped(self, babylon_config):
        gateway = _BlankLabelGateway()
        record = crawl(babylon_config, gateway)
        assert record.kb.triples == []
        assert gateway.subjects == ["Hammurabi"]
        assert record.visited_count == 1
        assert record.termination is Termination.ORGANIC
        # Neither "" nor the object of the blank predicate reaches NER.
        assert gateway.batches == []


class TestDegradedSubjects:
    def test_malformed_subject_is_visited_with_zero_triples(
        self, babylon_config, babylon_gateway
    ):
        spy = _CountingGateway(_BrokenSubjectGateway(babylon_gateway, "Babylon"))
        record = crawl(babylon_config, spy)
        assert record.termination is Termination.ORGANIC
        assert "Babylon" in spy.subjects
        assert record.visited_count == len(spy.subjects)
        assert not any(t.subject == "Babylon" for t in record.kb.triples)
        # Babylon still appears as an object elicited from the seed.
        names = derive_categories(record.kb)[StructuralCategory.NAMED_ENTITIES]
        assert "Babylon" in names


class TestLoopWorld:
    def test_degenerate_names_are_fenced_off(self, loop_config, loop_world_path):
        spy = _CountingGateway(MockWorldGateway(loop_world_path))
        record = crawl(loop_config, spy)

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
        assert not (flagged & set(spy.subjects))
        assert record.visited_count == len(spy.subjects)
        assert not any(t.subject in flagged for t in record.kb.triples)

    def test_visited_count_includes_subjects_without_triples(self, loop_config, loop_world_path):
        spy = _CountingGateway(MockWorldGateway(loop_world_path))
        record = crawl(loop_config, spy)
        # Some visited subjects of this world yield no triples; they count too.
        assert set(spy.subjects) > {t.subject for t in record.kb.triples}
        assert record.visited_count == len(spy.subjects) == len(set(spy.subjects))

    def test_resaved_run_keeps_its_bytes(self, loop_config, loop_world_path, tmp_path):
        record = crawl(loop_config, MockWorldGateway(loop_world_path))
        save_run(record, tmp_path / "a")
        loaded = load_run(tmp_path / "a")
        assert loaded.visited_count == record.visited_count > len({t.subject for t in record.kb.triples})
        save_run(loaded, tmp_path / "b")
        for name in ("manifest.json", "triples.ndjson"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["visited_subjects"] == record.visited_count


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


@pytest.fixture
def remote_gateway(monkeypatch):
    """Builds a remote gateway that sends each request once."""
    monkeypatch.setattr("kbforge.gateway.MAX_RETRIES", 0)

    def build(url, audit_path=None):
        return RemoteChatGateway(BackendDescriptor(endpoint_url=url), api_key="test-key", audit_path=audit_path)

    return build


def _model_configs(*models):
    return [RunConfig(topic="babylon", seed_entity="Hammurabi", model_id=m, parallelism=2) for m in models]


class TestRemoteSuite:
    def test_runs_crawl_at_the_same_time(self, babylon_gateway, tmp_path, remote_gateway):
        second_run_started = threading.Event()
        held = []

        def before(request):
            if request["model"] == "m1":
                second_run_started.set()
            elif not held:
                # run-000's first elicitation waits for run-001's first request.
                held.append(second_run_started.wait(timeout=5))

        with LocalServer(world_chat_responder(babylon_gateway, before)) as server:
            records = run_suite(
                _model_configs("m0", "m1"), remote_gateway(server.url), tmp_path / "suite"
            )
        assert held == [True]
        assert all(r is not None for r in records)

    def test_remote_runs_equal_the_mock_crawl(self, babylon_config, babylon_gateway, tmp_path, remote_gateway):
        with LocalServer(world_chat_responder(babylon_gateway, delay_s=0.002)) as server:
            records = run_suite([babylon_config] * 3, remote_gateway(server.url), tmp_path / "suite")
        reference = crawl(babylon_config, babylon_gateway, run_id="run-000")
        save_run(reference, tmp_path / "reference")
        expected = (tmp_path / "reference" / "triples.ndjson").read_bytes()
        for record in records:
            assert (tmp_path / "suite" / record.run_id / "triples.ndjson").read_bytes() == expected

    def test_interrupt_stops_every_run(self, babylon_gateway, tmp_path, remote_gateway):
        served = []

        def before(request):
            served.append(request["model"])
            if request["model"] == "m1" and served.count("m1") == 1:
                # Ctrl-C once both runs are under way.
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        with LocalServer(world_chat_responder(babylon_gateway, before, delay_s=0.05)) as server:
            with pytest.raises(KeyboardInterrupt):
                run_suite(_model_configs("m0", "m1"), remote_gateway(server.url), tmp_path / "suite")
        # A whole run sends dozens of requests; an interrupted one ends after
        # the requests it already had in flight.
        assert len(served) <= 4
        for run_id in ("run-000", "run-001"):
            assert (tmp_path / "suite" / run_id / "FAILED").read_text() == "suite interrupted\n"
        assert not (tmp_path / "suite" / "suite.json").exists()

    def test_failed_runs_keep_index_order(self, babylon_gateway, tmp_path, remote_gateway):
        last_failure_sent = threading.Event()
        serve = world_chat_responder(babylon_gateway)

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
                remote_gateway(server.url),
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

    def test_a_failed_subject_cancels_the_requests_fetched_ahead(self, tmp_path, remote_gateway):
        # Layer 1 admits 12 layer-2 subjects at once; the first gets HTTP 401.
        people = [f"Person {i}" for i in range(4)]
        children = [f"Child {i}-{k}" for i in range(4) for k in range(3)]
        facts = {"Root": [["knows", p] for p in people]}
        facts.update({p: [["parentOf", c] for c in children[3 * i : 3 * i + 3]] for i, p in enumerate(people)})
        facts.update({c: [["age", "1"]] for c in children})
        world = tmp_path / "world.json"
        world.write_text(json.dumps({"entities": ["Root", *people, *children], "facts": facts}), encoding="utf-8")
        serve = world_chat_responder(MockWorldGateway(world), delay_s=0.05)
        failing = children[0]

        def responder(method, path, query, body):
            if json.loads(body)["messages"][1]["content"] == failing:
                return 401, {"error": "bad key"}
            return serve(method, path, query, body)

        config = RunConfig(topic="babylon", seed_entity="Root", parallelism=2)
        with LocalServer(responder) as server:
            records = run_suite([config], remote_gateway(server.url), tmp_path / "suite")
        assert records == [None]
        manifest = json.loads((tmp_path / "suite" / "suite.json").read_text())
        assert "HTTP 401" in manifest["failed"]["run-000"]
        assert (tmp_path / "suite" / "run-000" / "FAILED").exists()
        asked = [json.loads(body)["messages"][1]["content"] for _, _, _, body in server.requests]
        after = asked[asked.index(failing) + 1 :]
        assert len(after) <= config.parallelism
        assert set(after) <= set(children)

    def test_an_answer_that_is_not_unicode_skips_its_subject(self, babylon_config, babylon_gateway, tmp_path):
        serve = world_chat_responder(babylon_gateway)
        asked = []

        def responder(method, path, query, body):
            subject = json.loads(body)["messages"][1]["content"]
            if subject != "Marduk":
                return serve(method, path, query, body)
            asked.append(subject)
            # The model's JSON holds the escape "\\udc80", which decodes to a lone surrogate.
            return chat_ok(json.dumps({"triples": [{"subject": "Marduk", "predicate": "p", "object": "\udc80"}]}))

        audit_path = tmp_path / "audit.ndjson"
        with LocalServer(responder) as server:
            descriptor = BackendDescriptor(endpoint_url=server.url)
            gateway = RemoteChatGateway(descriptor, api_key="test-key", audit_path=audit_path)
            (record,) = run_suite([babylon_config], gateway, tmp_path / "suite")
        assert record is not None and asked == ["Marduk"] * 3
        loaded = load_run(tmp_path / "suite" / "run-000")
        assert "Marduk" in {t.object for t in loaded.kb.triples}
        assert not any(t.subject == "Marduk" for t in loaded.kb.triples)
        failures = [e for e in read_ndjson(audit_path) if e["status"] != "ok"]
        assert [(e["run"], e["kind"], e["subject"], e["status"]) for e in failures] == [
            ("run-000", "elicit", "Marduk", "MalformedOutputError")
        ]

    def test_audit_lines_name_their_run(self, babylon_gateway, tmp_path, remote_gateway):
        audit_path = tmp_path / "audit.ndjson"
        with LocalServer(world_chat_responder(babylon_gateway, delay_s=0.002)) as server:
            run_suite(
                _model_configs("m0", "m1"),
                remote_gateway(server.url, audit_path),
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
        assert replay_audit(audit_path) == [
            parse_elicitation_payload(e["response_text"]) for e in elicited
        ]

    def test_connection_pools_fit_the_requests_in_flight(self, tmp_path, remote_gateway):
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
        responder = world_chat_responder(MockWorldGateway(world), delay_s=0.02)
        with LocalServer(responder, http11=True) as server:
            records = run_suite(configs, remote_gateway(server.url), tmp_path / "suite")
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

    def test_remote_crawl_keeps_parallelism_requests_in_flight(self, babylon_gateway, remote_gateway):
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
        with LocalServer(world_chat_responder(babylon_gateway, before)) as server:
            record = crawl(config, remote_gateway(server.url))
        assert held == [True]
        assert record.termination is Termination.ORGANIC

    def test_remote_crawl_uses_one_pool_for_all_layers(self, babylon_gateway, pools, remote_gateway):
        config = RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=2)
        with LocalServer(world_chat_responder(babylon_gateway)) as server:
            record = crawl(config, remote_gateway(server.url))
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
    def test_both_backends_see_the_same_batches(self, tmp_path, remote_gateway):
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
        with LocalServer(world_chat_responder(MockWorldGateway(world))) as server:
            record = crawl(config, remote_gateway(server.url), run_id="r")
        save_run(record, tmp_path / "remote")
        assert NER_BATCH == 100
        expected = [labels[:100], labels[100:200], labels[200:]]
        assert spy.batches == expected
        assert _ner_batches(server) == expected
        assert record.termination is Termination.ORGANIC
        triples = [(tmp_path / side / "triples.ndjson").read_bytes() for side in ("mock", "remote")]
        assert triples[0] == triples[1]

    def test_malformed_batch_makes_literals_and_the_crawl_ends(self, babylon_config, babylon_gateway, tmp_path, remote_gateway):
        serve = world_chat_responder(babylon_gateway)
        ner_requests = []

        def responder(method, path, query, body):
            if not _is_elicitation(json.loads(body)):
                ner_requests.append(body)
                if len(ner_requests) == 2:
                    return chat_ok("garbage")  # layer 1's batch
            return serve(method, path, query, body)

        audit_path = tmp_path / "audit.ndjson"
        with LocalServer(responder) as server:
            record = crawl(babylon_config, remote_gateway(server.url, audit_path))
            _, layer_1 = _ner_batches(server)
        assert record.termination is Termination.ORGANIC
        assert record.deepest_layer == 1
        assert record.per_layer_counts[1].new_entities == 0
        kinds = {t.object_kind for t in record.kb.triples if t.object in layer_1}
        assert kinds == {TermKind.LITERAL}
        failed = [e for e in map(json.loads, audit_path.read_text(encoding="utf-8").splitlines()) if e["status"] != "ok"]
        assert [(e["kind"], e["phrases"], e["status"]) for e in failed] == [("ner", layer_1, "MalformedOutputError")]


def _streamed_world(path, width=24):
    """Root knows ``width`` people, each with six literal facts and two
    children: layer 1's new labels fill a NER batch before its last
    response, and the children it admits are elicited while it runs."""
    people = [f"Person {i:02d}" for i in range(width)]
    facts = {"Root": [["knows", p] for p in people]}
    entities = ["Root", *people]
    for i, person in enumerate(people):
        children = [f"Child {i:02d}-{k}" for k in range(2)]
        facts[person] = [[f"fact {k}", f"value {i:02d}-{k}"] for k in range(6)]
        facts[person] += [["parentOf", c] for c in children]
        facts.update({c: [["age", str(i)]] for c in children})
        entities += children
    path.write_text(json.dumps({"entities": entities, "facts": facts}), encoding="utf-8")
    return path


class TestStreamedLayers:
    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_schedule_bounds_requests_and_keeps_the_mock_crawl(self, tmp_path, parallelism, remote_gateway):
        world = _streamed_world(tmp_path / "world.json")
        config = RunConfig(topic="babylon", seed_entity="Root", parallelism=parallelism)
        spy = _NerSpy(world)
        save_run(crawl(config, spy, run_id="r"), tmp_path / "mock")

        serve = world_chat_responder(MockWorldGateway(world), delay_s=0.005)
        lock = threading.Lock()
        in_flight = {"elicit": 0, "ner": 0}
        peak = dict(in_flight)
        overlaps = []

        def responder(method, path, query, body):
            kind = "elicit" if _is_elicitation(json.loads(body)) else "ner"
            with lock:
                in_flight[kind] += 1
                peak[kind] = max(peak[kind], in_flight[kind])
                overlaps.append(in_flight["elicit"] > 0 and in_flight["ner"] > 0)
            try:
                return serve(method, path, query, body)
            finally:
                with lock:
                    in_flight[kind] -= 1

        with LocalServer(responder) as server:
            record = crawl(config, remote_gateway(server.url), run_id="r")
        save_run(record, tmp_path / "remote")
        assert record.termination is Termination.ORGANIC
        assert peak["elicit"] <= parallelism and peak["ner"] == 1
        # No layer barrier: a NER batch went out while elicitations ran.
        assert any(overlaps)
        assert len(spy.batches) == 4 and len(spy.batches[1]) == NER_BATCH
        assert _ner_batches(server) == spy.batches
        triples = [(tmp_path / side / "triples.ndjson").read_bytes() for side in ("mock", "remote")]
        assert triples[0] == triples[1]

    def test_nothing_is_fetched_past_the_layer_cap(self, tmp_path, remote_gateway):
        # Layer 1's first NER batch admits children while the layer still runs.
        world = _streamed_world(tmp_path / "world.json")
        config = RunConfig(topic="babylon", seed_entity="Root", caps=Caps(max_layers=2), parallelism=2)
        with LocalServer(world_chat_responder(MockWorldGateway(world), delay_s=0.005)) as server:
            record = crawl(config, remote_gateway(server.url))
        requests = [json.loads(body) for _, _, _, body in server.requests]
        elicited = [r["messages"][1]["content"] for r in requests if _is_elicitation(r)]
        assert record.termination is Termination.CAPPED_LAYERS
        # Every subject elicited was read, once.
        assert len(set(elicited)) == len(elicited) == record.visited_count
        assert {t.subject for t in record.kb.triples} <= set(elicited)


class TestDivergentSubjects:
    def test_facts_are_filed_under_the_requested_subject(self, remote_gateway):
        divergent = json.dumps(
            {"triples": [{"subject": "Somebody Else", "predicate": "knows", "object": "Things"}]}
        )
        script = [(200, divergent), (200, json.dumps({"verdicts": [False]}))]
        config = RunConfig(topic="babylon", seed_entity="Hammurabi", parallelism=1)
        with LocalServer(scripted_chat_responder(script)) as server:
            record = crawl(config, remote_gateway(server.url))
        assert [(t.subject, t.predicate, t.object) for t in record.kb.triples] == [("Hammurabi", "knows", "Things")]
        assert record.visited_count == 1
