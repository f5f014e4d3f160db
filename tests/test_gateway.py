import http.client
import json
import socket
import sys
import threading

import pytest

from kbforge.gateway import (
    BACKOFF_BASE_S,
    BackendDescriptor,
    ElicitationRequest,
    MalformedOutputError,
    MockWorldGateway,
    NerRequest,
    RateLimitedError,
    RemoteChatGateway,
    Session,
    TransportError,
    parse_elicitation_payload,
    parse_ner_payload,
    replay_audit,
    with_retries,
)

from fixture_server import LocalServer, closed_port, scripted_chat_responder


class RecordingSocket:
    """A socket that keeps what each ``sendall`` wrote."""

    def __init__(self, sock):
        self.sock = sock
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))
        return self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


@pytest.fixture
def opened_sockets(monkeypatch):
    """Every socket http.client opens, or the address it failed to open."""
    opened = []
    create = socket.create_connection

    def recording_create(address, *args, **kwargs):
        opened.append(address)
        opened[-1] = RecordingSocket(create(address, *args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(socket, "create_connection", recording_create)
    return opened


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def _remote(server_url, tmp_path=None, max_retries=2):
    descriptor = BackendDescriptor(kind="remote", endpoint_url=server_url, max_retries=max_retries)
    return RemoteChatGateway(
        descriptor,
        api_key="test-key",
        audit_path=(tmp_path / "audit.ndjson") if tmp_path else None,
        sleep=lambda s: None,
    )


def _audit_lines(tmp_path):
    return [json.loads(line) for line in (tmp_path / "audit.ndjson").read_text(encoding="utf-8").splitlines()]


VALID_ELICIT = json.dumps(
    {
        "triples": [
            {"subject": "Hammurabi", "predicate": "instanceOf", "object": "King"},
            {"subject": "Hammurabi", "predicate": "ruledOver", "object": "Babylon"},
        ]
    }
)


class TestPayloadParsers:
    def test_valid_elicitation(self):
        triples = parse_elicitation_payload(VALID_ELICIT)
        assert triples == [
            ("Hammurabi", "instanceOf", "King"),
            ("Hammurabi", "ruledOver", "Babylon"),
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all",
            '{"triples": {"subject": "x"}}',
            '{"facts": []}',
            '{"triples": [{"subject": "a", "predicate": "b"}]}',
            '{"triples": [["a", "b", "c"]]}',
            VALID_ELICIT[:-10],
        ],
    )
    def test_malformed_elicitation_rejected(self, payload):
        with pytest.raises(MalformedOutputError):
            parse_elicitation_payload(payload)

    def test_valid_ner(self):
        assert parse_ner_payload('{"verdicts": [true, false]}', 2) == [True, False]

    def test_ner_count_mismatch_rejected(self):
        with pytest.raises(MalformedOutputError):
            parse_ner_payload('{"verdicts": [true]}', 2)

    def test_ner_non_boolean_rejected(self):
        with pytest.raises(MalformedOutputError):
            parse_ner_payload('{"verdicts": [1, 0]}', 2)


class TestRemoteGateway:
    def test_missing_api_key_is_fatal(self, monkeypatch):
        monkeypatch.delenv("KBFORGE_API_KEY", raising=False)
        descriptor = BackendDescriptor(kind="remote", endpoint_url="http://localhost:1")
        with pytest.raises(Exception) as err:
            RemoteChatGateway(descriptor)
        assert "KBFORGE_API_KEY" in str(err.value)

    def test_elicit_round_trip(self, tmp_path):
        # The gateway returns the facts as parsed; filing them under the
        # requested subject is the crawler's job.
        divergent = json.dumps(
            {"triples": [{"subject": "Somebody Else", "predicate": "knows", "object": "Things"}]}
        )
        with LocalServer(scripted_chat_responder([(200, divergent)])) as server:
            gateway = _remote(server.url, tmp_path)
            response = gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert response.triples == [("Somebody Else", "knows", "Things")]

    def test_request_shape(self):
        with LocalServer(scripted_chat_responder([(200, VALID_ELICIT)])) as server:
            gateway = _remote(server.url)
            gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
            body = json.loads(server.requests[0][3])
        assert body["messages"][0]["role"] == "system"
        assert "ancient city of Babylon" in body["messages"][0]["content"]
        assert body["messages"][1] == {"role": "user", "content": "Hammurabi"}
        assert body["response_format"]["type"] == "json_schema"
        assert body["response_format"]["json_schema"]["strict"] is True

    def test_retry_after_rate_limit(self, tmp_path):
        script = [(429, {"error": "slow down"}), (200, VALID_ELICIT)]
        slept = []
        with LocalServer(scripted_chat_responder(script)) as server:
            descriptor = BackendDescriptor(kind="remote", endpoint_url=server.url, max_retries=2)
            gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
            response = gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert len(response.triples) == 2
        assert len(slept) == 1 and slept[0] > 0

    def test_backoff_grows_exponentially(self):
        script = [(500, {}), (500, {}), (200, VALID_ELICIT)]
        slept = []
        with LocalServer(scripted_chat_responder(script)) as server:
            descriptor = BackendDescriptor(kind="remote", endpoint_url=server.url, max_retries=3)
            gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
            gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert len(slept) == 2
        assert slept[1] > slept[0]

    def test_retries_exhausted_surfaces_error(self):
        script = [(429, {})] * 3
        with LocalServer(scripted_chat_responder(script)) as server:
            gateway = _remote(server.url, max_retries=2)
            with pytest.raises(RateLimitedError):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))

    def test_http_error_is_transport_error(self):
        with LocalServer(scripted_chat_responder([(503, {})])) as server:
            gateway = _remote(server.url, max_retries=0)
            with pytest.raises(TransportError):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))

    def test_rejected_request_is_not_retried(self):
        slept = []
        with LocalServer(scripted_chat_responder([(401, {"error": "bad key"})])) as server:
            descriptor = BackendDescriptor(kind="remote", endpoint_url=server.url, max_retries=2)
            gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
            with pytest.raises(TransportError, match="HTTP 401"):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
            assert len(server.requests) == 1
        assert slept == []

    def test_persistent_malformed_output_surfaces(self):
        script = [(200, "garbage"), (200, "garbage"), (200, "garbage")]
        with LocalServer(scripted_chat_responder(script)) as server:
            gateway = _remote(server.url, max_retries=2)
            with pytest.raises(MalformedOutputError):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))

    def test_ner_malformed_batch_raises_after_retries(self, tmp_path):
        script = [(200, "garbage")] * 3
        with LocalServer(scripted_chat_responder(script)) as server:
            gateway = _remote(server.url, tmp_path, max_retries=2)
            with pytest.raises(MalformedOutputError):
                gateway.classify_ner(NerRequest(["a", "b"], "babylon"))
            assert len(server.requests) == 3
        [entry] = _audit_lines(tmp_path)
        assert entry["kind"] == "ner" and entry["phrases"] == ["a", "b"]
        assert entry["status"] == "MalformedOutputError"


class TestTransport:
    def test_chat_requests_carry_the_fixed_timeout_and_user_agent(self, monkeypatch):
        timeouts = []
        post = Session.post
        monkeypatch.setattr(Session, "post", lambda self, *a, **kw: timeouts.append(kw["timeout"]) or post(self, *a, **kw))
        script = [(200, VALID_ELICIT), (200, '{"verdicts": [true]}')]
        with LocalServer(scripted_chat_responder(script)) as server:
            remote = _remote(server.url)
            remote.elicit(ElicitationRequest("Hammurabi", "babylon"))
            remote.classify_ner(NerRequest(["Babylon"], "babylon"))
        assert timeouts == [60, 60]
        assert all(r.headers["User-Agent"].startswith("kbforge/0.1 ") for r in server.received)

    def test_netrc_does_not_replace_the_bearer_key(self, tmp_path, monkeypatch):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login u password p\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))
        with LocalServer(scripted_chat_responder([(200, VALID_ELICIT)])) as server:
            _remote(server.url).elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert server.received[0].headers["Authorization"] == "Bearer test-key"

    def test_body_is_the_json_requests_would_send(self):
        body = {"model": "m", "temperature": 0.5, "messages": [{"content": "Nabû-kudurri-uṣur ☃"}]}
        with LocalServer(lambda *request: (200, {}), http11=True) as server:
            session = Session()
            assert session.post(server.url + "/x", json=body, timeout=5).json() == {}
            session.close()
        assert server.requests[0][3] == json.dumps(body, allow_nan=False).encode()
        assert server.received[0].headers["Content-Type"] == "application/json"

    def test_new_connections_set_tcp_nodelay(self, opened_sockets):
        with LocalServer(lambda *request: (200, {}), http11=True) as server:
            session = Session()
            session.post(server.url + "/x", json={}, timeout=5)
            [sock] = opened_sockets
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            session.close()

    def test_each_request_is_one_write(self, opened_sockets):
        body = {"input": ["x" * 3000]}
        with LocalServer(lambda *request: (200, {}), http11=True) as server:
            session = Session()
            for _ in range(2):
                session.post(server.url + "/x", json=body, timeout=5)
            session.close()
        [sock] = opened_sockets
        assert len(sock.writes) == 2
        for write in sock.writes:
            assert write.startswith(b"POST /x HTTP/1.1\r\n")
            assert write.endswith(b"\r\n\r\n" + json.dumps(body).encode())

    def test_connections_are_reused_and_a_closed_one_is_replaced(self):
        slept = []
        script = [(200, VALID_ELICIT)] * 3
        with LocalServer(scripted_chat_responder(script), http11=True) as server:
            descriptor = BackendDescriptor(kind="remote", endpoint_url=server.url, max_retries=2)
            gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
            for _ in range(2):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
            server.close_idle()
            gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
            gateway.close()
        assert [r.connection for r in server.received] == [0, 0, 1]
        assert slept == []

    def test_connection_refused_is_retried_with_backoff(self, opened_sockets):
        slept = []
        descriptor = BackendDescriptor(
            kind="remote", endpoint_url=f"http://127.0.0.1:{closed_port()}", max_retries=2
        )
        gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
        with pytest.raises(TransportError) as err:
            gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert err.value.retryable
        assert isinstance(err.value.__cause__, ConnectionRefusedError)
        assert len(opened_sockets) == 3
        assert len(slept) == 2
        for k, delay in enumerate(slept):
            assert BACKOFF_BASE_S * 2**k <= delay <= BACKOFF_BASE_S * 2**k * 1.1

    @pytest.mark.parametrize(
        "url", ["ftp://example.invalid/v1", "http://[::1/v1", "http:///v1", "http://127.0.0.1:99999/v1"]
    )
    def test_malformed_url_fails_at_once(self, url, monkeypatch, opened_sockets):
        slept, posts = [], []
        descriptor = BackendDescriptor(kind="remote", endpoint_url=url, max_retries=2)
        gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
        post = gateway.session.post
        monkeypatch.setattr(gateway.session, "post", lambda *a, **kw: posts.append(a) or post(*a, **kw))
        with pytest.raises(TransportError) as err:
            gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert not err.value.retryable
        assert isinstance(err.value.__cause__, http.client.InvalidURL)
        assert len(posts) == 1 and slept == [] and opened_sockets == []

    def test_http_proxy_gets_an_absolute_target(self, no_proxy_env):
        with LocalServer(scripted_chat_responder([(200, VALID_ELICIT)])) as proxy, \
                LocalServer(scripted_chat_responder([])) as origin:
            no_proxy_env.setenv("HTTP_PROXY", proxy.url.replace("://", "://u:p@"))
            _remote(origin.url).elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert [r.target for r in proxy.received] == [origin.url + "/chat/completions"]
        assert proxy.received[0].headers["Proxy-Authorization"] == "Basic dTpw"
        assert origin.requests == []

    def test_no_proxy_bypasses_the_proxy(self, no_proxy_env):
        with LocalServer(scripted_chat_responder([])) as proxy, \
                LocalServer(scripted_chat_responder([(200, VALID_ELICIT)])) as origin:
            no_proxy_env.setenv("HTTP_PROXY", proxy.url)
            no_proxy_env.setenv("NO_PROXY", "127.0.0.1")
            _remote(origin.url).elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert [r.target for r in origin.received] == ["/chat/completions"]
        assert proxy.requests == []

    def test_threads_sharing_a_session_get_their_own_responses(self):
        threads, calls = 8, 25

        def echo(method, path, query, body):
            return 200, {"echo": json.loads(body)}

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with LocalServer(echo, http11=True) as server:
                session = Session()
                mismatches = []

                def worker(t):
                    for i in range(calls):
                        sent = {"thread": t, "call": i}
                        if session.post(server.url + "/x", json=sent, timeout=5).json() != {"echo": sent}:
                            mismatches.append(sent)

                workers = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
                assert not any(w.is_alive() for w in workers)
                session.close()
        finally:
            sys.setswitchinterval(previous)
        assert mismatches == []
        assert len(server.requests) == threads * calls
        assert len({r.connection for r in server.received}) <= threads


class TestAuditLog:
    def test_replay_reproduces_responses(self, tmp_path):
        with LocalServer(scripted_chat_responder([(200, VALID_ELICIT)])) as server:
            gateway = _remote(server.url, tmp_path)
            live = gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        replayed = replay_audit(tmp_path / "audit.ndjson")
        assert len(replayed) == 1
        assert replayed[0].triples == live.triples

    def test_error_outcomes_are_logged(self, tmp_path):
        with LocalServer(scripted_chat_responder([(503, {})])) as server:
            gateway = _remote(server.url, tmp_path, max_retries=0)
            with pytest.raises(TransportError):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        lines = (tmp_path / "audit.ndjson").read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[-1])
        assert entry["status"] == "TransportError"
        assert "ts" in entry

    def test_failed_ner_batch_is_logged(self, tmp_path):
        with LocalServer(scripted_chat_responder([(503, {})] * 3)) as server:
            gateway = _remote(server.url, tmp_path, max_retries=2)
            with pytest.raises(TransportError):
                gateway.classify_ner(NerRequest(["Babylon", "1792 BC"], "babylon"))
            assert len(server.requests) == 3
        [entry] = _audit_lines(tmp_path)
        assert list(entry) == ["run", "kind", "phrases", "status", "error", "ts"]
        assert entry["phrases"] == ["Babylon", "1792 BC"]
        assert entry["status"] == "TransportError" and "HTTP 503" in entry["error"]


class TestMockWorld:
    def test_serves_fixture_facts(self, babylon_gateway):
        response = babylon_gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert ("Hammurabi", "instanceOf", "King") in response.triples
        assert len(response.triples) == 5

    def test_unknown_subject_yields_empty(self, babylon_gateway):
        response = babylon_gateway.elicit(ElicitationRequest("Atlantis", "babylon"))
        assert response.triples == []

    def test_ner_truth_follows_entity_list(self, babylon_gateway):
        request = NerRequest(["Babylon", "1792 BC", "France", "Marduk"], "babylon")
        assert babylon_gateway.classify_ner(request).verdicts == [True, False, False, True]

    def test_off_topic_subject_logged_but_served(self, babylon_gateway, caplog):
        with caplog.at_level("WARNING"):
            response = babylon_gateway.elicit(ElicitationRequest("Louvre", "babylon"))
        assert len(response.triples) == 3
        assert any("off-topic" in message for message in caplog.messages)

    def test_suffix_loop_injector_children(self, loop_world_path):
        gateway = MockWorldGateway(loop_world_path)
        response = gateway.elicit(ElicitationRequest("Nabu-mukin-zeri", "babylon"))
        objects = {o for _, _, o in response.triples}
        assert "Nabu-mukin-zeri-mu" in objects
        assert "Nabu-mukin-zeri-ma" in objects
        assert "Q768509" in objects
        deeper = gateway.elicit(ElicitationRequest("Nabu-mukin-zeri-mu-ma", "babylon"))
        assert ("Nabu-mukin-zeri-mu-ma", "alsoKnownAs", "Nabu-mukin-zeri-mu-ma-mu") in deeper.triples

    def test_injected_names_classify_as_entities(self, loop_world_path):
        gateway = MockWorldGateway(loop_world_path)
        request = NerRequest(["Nabu-mukin-zeri-mu-mu", "Q768509", "1792 BC"], "babylon")
        assert gateway.classify_ner(request).verdicts == [True, True, False]


class TestWithRetries:
    def _flaky(self, errors, calls):
        """An attempt that raises the given errors in turn, then returns "done"."""

        def attempt():
            calls.append(1)
            if errors:
                raise errors.pop(0)
            return "done"

        return attempt

    def test_delays_double_with_bounded_jitter(self):
        slept, calls = [], []
        errors = [RateLimitedError("429"), TransportError("503"), TransportError("reset")]
        assert with_retries(self._flaky(errors, calls), 3, slept.append, 0.25) == "done"
        assert len(calls) == 4 and len(slept) == 3
        for k, delay in enumerate(slept):
            assert 0.25 * 2**k <= delay <= 0.25 * 2**k * 1.1

    def test_default_base_is_half_a_second(self):
        slept = []
        with_retries(self._flaky([TransportError("503")], []), 1, slept.append)
        assert 0.5 <= slept[0] <= 0.55

    def test_malformed_output_is_retried_without_sleep(self):
        slept, calls = [], []
        errors = [MalformedOutputError("bad"), MalformedOutputError("bad")]
        assert with_retries(self._flaky(errors, calls), 2, slept.append) == "done"
        assert len(calls) == 3 and slept == []

    def test_non_retryable_error_is_raised_after_one_attempt(self):
        slept, calls = [], []
        rejected = TransportError("HTTP 401")
        rejected.retryable = False
        with pytest.raises(TransportError) as err:
            with_retries(self._flaky([rejected], calls), 5, slept.append)
        assert err.value is rejected
        assert len(calls) == 1 and slept == []
