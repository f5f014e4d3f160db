import http.client
import json
import random
import shutil
import socket
import ssl
import subprocess
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

from conftest import held_bytes
from fixture_server import ConnectRelay, LocalServer, closed_port, scripted_chat_responder, world_chat_responder


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


@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    """A throwaway self-signed certificate for 127.0.0.1 and its key, made
    by the ``openssl`` command."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl command is not installed")
    folder = tmp_path_factory.mktemp("tls")
    cert, key = folder / "cert.pem", folder / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes",
         "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
         "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True,
    )
    return cert, key


def _remote(server_url, tmp_path=None):
    descriptor = BackendDescriptor(kind="remote", endpoint_url=server_url)
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

    @pytest.mark.parametrize(
        "payload",
        [
            # A \u escape in the answer's JSON, and a lone surrogate in the answer itself.
            '{"triples": [{"subject": "Ur", "predicate": "p", "object": "x\\udc80"}]}',
            '{"triples": [{"subject": "Ur\udc80", "predicate": "p", "object": "x"}]}',
            '{"triples": [{"subject": "Ur", "predicate": "\\ud83d", "object": "x"}]}',
        ],
        ids=["escaped", "raw", "high-half"],
    )
    def test_elicitation_that_is_not_unicode_rejected(self, payload):
        with pytest.raises(MalformedOutputError, match="Unicode"):
            parse_elicitation_payload(payload)

    def test_escaped_elicitation_that_is_unicode_accepted(self):
        payload = '{"triples": [{"subject": "\\u00c9a", "predicate": "p", "object": "\\ud83d\\ude00"}]}'
        assert parse_elicitation_payload(payload) == [("\u00c9a", "p", "\U0001F600")]

    def test_valid_ner(self):
        assert parse_ner_payload('{"verdicts": [true, false]}', 2) == [True, False]

    def test_ner_count_mismatch_rejected(self):
        with pytest.raises(MalformedOutputError):
            parse_ner_payload('{"verdicts": [true]}', 2)

    def test_ner_non_boolean_rejected(self):
        with pytest.raises(MalformedOutputError):
            parse_ner_payload('{"verdicts": [1, 0]}', 2)


class TestRemoteGateway:
    def test_descriptor_kind_is_remote_only(self):
        assert BackendDescriptor().kind == BackendDescriptor(kind="remote").kind == "remote"
        with pytest.raises(ValueError, match="unknown backend kind"):
            BackendDescriptor(kind="mock")

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
            triples = gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert triples == [("Somebody Else", "knows", "Things")]

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
        # A gateway bound to no run sends RunConfig's defaults.
        assert (body["model"], body["temperature"]) == ("gpt-4.1-mini", 0.0)

    def test_retry_after_rate_limit(self, tmp_path):
        script = [(429, {"error": "slow down"}), (200, VALID_ELICIT)]
        slept = []
        with LocalServer(scripted_chat_responder(script)) as server:
            descriptor = BackendDescriptor(kind="remote", endpoint_url=server.url)
            gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
            triples = gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert len(triples) == 2
        assert len(slept) == 1 and slept[0] > 0

    def test_backoff_grows_exponentially(self, monkeypatch):
        monkeypatch.setattr("kbforge.gateway.MAX_RETRIES", 3)
        script = [(500, {}), (500, {}), (200, VALID_ELICIT)]
        slept = []
        with LocalServer(scripted_chat_responder(script)) as server:
            descriptor = BackendDescriptor(kind="remote", endpoint_url=server.url)
            gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
            gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert len(slept) == 2
        assert slept[1] > slept[0]

    def test_retries_exhausted_surfaces_error(self):
        script = [(429, {})] * 3
        with LocalServer(scripted_chat_responder(script)) as server:
            gateway = _remote(server.url)
            with pytest.raises(RateLimitedError):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))

    def test_http_error_is_transport_error(self, monkeypatch):
        monkeypatch.setattr("kbforge.gateway.MAX_RETRIES", 0)
        with LocalServer(scripted_chat_responder([(503, {})])) as server:
            gateway = _remote(server.url)
            with pytest.raises(TransportError):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))

    def test_rejected_request_is_not_retried(self):
        slept = []
        with LocalServer(scripted_chat_responder([(401, {"error": "bad key"})])) as server:
            descriptor = BackendDescriptor(kind="remote", endpoint_url=server.url)
            gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
            with pytest.raises(TransportError, match="HTTP 401"):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
            assert len(server.requests) == 1
        assert slept == []

    def test_persistent_malformed_output_surfaces(self):
        script = [(200, "garbage"), (200, "garbage"), (200, "garbage")]
        with LocalServer(scripted_chat_responder(script)) as server:
            gateway = _remote(server.url)
            with pytest.raises(MalformedOutputError):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))

    # A body that is not a completion envelope counts as malformed output,
    # so it is retried at once, without backoff.
    @pytest.mark.parametrize("body", [b"not json", {}], ids=["not-json", "empty-object"])
    def test_unreadable_envelope_is_malformed_output(self, tmp_path, body):
        slept = []
        with LocalServer(lambda *request: (200, body)) as server:
            descriptor = BackendDescriptor(endpoint_url=server.url)
            gateway = RemoteChatGateway(descriptor, api_key="k", audit_path=tmp_path / "audit.ndjson",
                                        sleep=slept.append)
            with pytest.raises(MalformedOutputError, match="unexpected completion envelope"):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
            assert len(server.requests) == 3
        assert slept == []
        [entry] = _audit_lines(tmp_path)
        assert (entry["kind"], entry["subject"], entry["status"]) == ("elicit", "Hammurabi", "MalformedOutputError")

    def test_ner_malformed_batch_raises_after_retries(self, tmp_path):
        script = [(200, "garbage")] * 3
        with LocalServer(scripted_chat_responder(script)) as server:
            gateway = _remote(server.url, tmp_path)
            with pytest.raises(MalformedOutputError):
                gateway.classify_ner(NerRequest(["a", "b"], "babylon"))
            assert len(server.requests) == 3
        [entry] = _audit_lines(tmp_path)
        assert entry["kind"] == "ner" and entry["phrases"] == ["a", "b"]
        assert entry["status"] == "MalformedOutputError"


class TestPlainAnswers:
    def test_both_backends_answer_with_equal_plain_values(self, babylon_gateway, monkeypatch):
        monkeypatch.setattr("kbforge.gateway.MAX_RETRIES", 0)
        # Every subject of the Babylon world, and an unknown one.
        subjects = [*babylon_gateway.facts, "Atlantis"]
        phrases = sorted({
            o for subject in subjects for _, _, o in babylon_gateway.elicit(ElicitationRequest(subject, "babylon"))
        })
        with LocalServer(world_chat_responder(babylon_gateway)) as server:
            remote = _remote(server.url)
            for subject in subjects:
                request = ElicitationRequest(subject, "babylon")
                answers = [babylon_gateway.elicit(request), remote.elicit(request)]
                for triples in answers:
                    assert type(triples) is list
                    assert all(type(t) is tuple and len(t) == 3 and all(type(x) is str for x in t) for t in triples)
                assert answers[0] == answers[1]
            request = NerRequest(phrases, "babylon")
            verdicts = [babylon_gateway.classify_ner(request), remote.classify_ner(request)]
            remote.close()
        for batch in verdicts:
            assert type(batch) is list and len(batch) == len(phrases)
            assert all(type(v) is bool for v in batch)
        assert verdicts[0] == verdicts[1]
        assert set(verdicts[0]) == {True, False}


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
            session = Session(server.url + "/x")
            assert session.post(json=body, timeout=5).json() == {}
            session.close()
        assert server.requests[0][3] == json.dumps(body, allow_nan=False).encode()
        assert server.received[0].headers["Content-Type"] == "application/json"

    def test_new_connections_set_tcp_nodelay(self, opened_sockets):
        with LocalServer(lambda *request: (200, {}), http11=True) as server:
            session = Session(server.url + "/x")
            session.post(json={}, timeout=5)
            [sock] = opened_sockets
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            session.close()

    def test_each_request_is_one_write(self, opened_sockets):
        body = {"input": ["x" * 3000]}
        with LocalServer(lambda *request: (200, {}), http11=True) as server:
            session = Session(server.url + "/x")
            for _ in range(2):
                session.post(json=body, timeout=5)
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
            descriptor = BackendDescriptor(kind="remote", endpoint_url=server.url)
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
        descriptor = BackendDescriptor(kind="remote", endpoint_url=f"http://127.0.0.1:{closed_port()}")
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
        "url", ["ftp://example.invalid/v1", "http://[::1/v1", "http:///v1", "http://127.0.0.1:99999/v1",
                pytest.param("", id="empty")]
    )
    def test_malformed_url_fails_at_once(self, url, opened_sockets):
        slept = []
        descriptor = BackendDescriptor(kind="remote", endpoint_url=url)
        with pytest.raises(TransportError) as err:
            RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
        assert not err.value.retryable
        assert isinstance(err.value.__cause__, http.client.InvalidURL)
        assert slept == [] and opened_sockets == []

    def test_https_with_a_trusted_certificate(self, certificate, no_proxy_env):
        no_proxy_env.setenv("SSL_CERT_FILE", str(certificate[0]))
        with LocalServer(scripted_chat_responder([(200, VALID_ELICIT)]), certificate=certificate) as server:
            assert server.url.startswith("https://")
            gateway = _remote(server.url)
            assert len(gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))) == 2
            gateway.close()

    def test_https_proxy_gets_a_tunnel(self, certificate, no_proxy_env):
        no_proxy_env.setenv("SSL_CERT_FILE", str(certificate[0]))
        with LocalServer(scripted_chat_responder([(200, VALID_ELICIT)]), certificate=certificate) as origin, \
                ConnectRelay() as proxy:
            no_proxy_env.setenv("HTTPS_PROXY", proxy.url.replace("://", "://u:p@"))
            gateway = _remote(origin.url)
            assert len(gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))) == 2
            gateway.close()
        [(line, headers)] = proxy.connects
        assert line.startswith(f"CONNECT {origin.url.removeprefix('https://')} HTTP/")
        assert headers["Proxy-Authorization"] == "Basic dTpw"
        assert [r.target for r in origin.received] == ["/chat/completions"]
        assert "Proxy-Authorization" not in origin.received[0].headers

    def test_untrusted_certificate_fails_after_one_attempt(self, certificate, no_proxy_env, opened_sockets):
        no_proxy_env.delenv("SSL_CERT_FILE", raising=False)
        no_proxy_env.delenv("SSL_CERT_DIR", raising=False)
        slept = []
        with LocalServer(scripted_chat_responder([]), certificate=certificate) as server:
            descriptor = BackendDescriptor(kind="remote", endpoint_url=server.url)
            gateway = RemoteChatGateway(descriptor, api_key="k", sleep=slept.append)
            with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED") as err:
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert not err.value.retryable
        assert isinstance(err.value.__cause__, ssl.SSLCertVerificationError)
        assert len(opened_sockets) == 1 and slept == [] and server.requests == []

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

    def test_proxy_is_read_when_the_gateway_is_built(self, no_proxy_env):
        with LocalServer(scripted_chat_responder([])) as proxy, \
                LocalServer(scripted_chat_responder([(200, VALID_ELICIT)])) as origin:
            gateway = _remote(origin.url)
            no_proxy_env.setenv("HTTP_PROXY", proxy.url)
            gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert [r.target for r in origin.received] == ["/chat/completions"]
        assert proxy.requests == []

    def test_malformed_proxy_is_refused_when_the_gateway_is_built(self, no_proxy_env, opened_sockets):
        no_proxy_env.setenv("HTTP_PROXY", "http://[::1")
        with pytest.raises(TransportError, match="Invalid IPv6 URL") as err:
            _remote("http://127.0.0.1:9/v1")
        assert not err.value.retryable and opened_sockets == []

    # A proxy is spoken to in plain HTTP, so one that expects TLS or SOCKS
    # would be dialed on the wrong protocol.
    @pytest.mark.parametrize("proxy", ["https://proxy.example", "socks5://proxy.example:1080"])
    @pytest.mark.parametrize("variable, endpoint", [
        ("HTTP_PROXY", "http://127.0.0.1:9/v1"),
        ("HTTPS_PROXY", "https://127.0.0.1:9/v1"),
    ])
    def test_non_http_proxy_is_refused_when_the_gateway_is_built(
        self, no_proxy_env, opened_sockets, proxy, variable, endpoint
    ):
        no_proxy_env.setenv(variable, proxy)
        with pytest.raises(TransportError, match="not an http proxy URL") as err:
            _remote(endpoint)
        assert not err.value.retryable and opened_sockets == []

    def test_threads_sharing_a_session_get_their_own_responses(self):
        threads, calls = 8, 25

        def echo(method, path, query, body):
            return 200, {"echo": json.loads(body)}

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with LocalServer(echo, http11=True) as server:
                session = Session(server.url + "/x")
                mismatches = []

                def worker(t):
                    for i in range(calls):
                        sent = {"thread": t, "call": i}
                        if session.post(json=sent, timeout=5).json() != {"echo": sent}:
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
        assert replay_audit(tmp_path / "audit.ndjson") == [live]

    def test_error_outcomes_are_logged(self, tmp_path, monkeypatch):
        monkeypatch.setattr("kbforge.gateway.MAX_RETRIES", 0)
        with LocalServer(scripted_chat_responder([(503, {})])) as server:
            gateway = _remote(server.url, tmp_path)
            with pytest.raises(TransportError):
                gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        lines = (tmp_path / "audit.ndjson").read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[-1])
        assert entry["status"] == "TransportError"
        assert "ts" in entry

    def test_failed_ner_batch_is_logged(self, tmp_path):
        with LocalServer(scripted_chat_responder([(503, {})] * 3)) as server:
            gateway = _remote(server.url, tmp_path)
            with pytest.raises(TransportError):
                gateway.classify_ner(NerRequest(["Babylon", "1792 BC"], "babylon"))
            assert len(server.requests) == 3
        [entry] = _audit_lines(tmp_path)
        assert list(entry) == ["run", "kind", "phrases", "status", "error", "ts"]
        assert entry["phrases"] == ["Babylon", "1792 BC"]
        assert entry["status"] == "TransportError" and "HTTP 503" in entry["error"]


class TestMockWorld:
    def test_world_text_must_be_unicode(self, babylon_world_path, tmp_path):
        world = json.loads(babylon_world_path.read_text(encoding="utf-8"))
        world["entities"].append("\u00c9tana")
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world), encoding="utf-8")  # spells the accent as an escape
        assert MockWorldGateway(path).classify_ner(NerRequest(["\u00c9tana"], "babylon")) == [True]
        world["entities"].append("Ur\udc80")
        path.write_text(json.dumps(world), encoding="utf-8")
        with pytest.raises(ValueError, match="not Unicode"):
            MockWorldGateway(path)

    def test_a_fact_that_is_not_a_pair_is_refused(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text(json.dumps({"facts": {"Ur": [["p", "o"], ["p", "o", "x"]]}}), encoding="utf-8")
        with pytest.raises(ValueError, match="not a pair"):
            MockWorldGateway(path)

    # Set on CPython 3.11, where this world measures 87 B per fact; with a
    # string per occurrence of a label and a 2-tuple per fact it measured
    # 227 B. The benchmark's ensemble_wide world (seed 7) measures 72 and 215.
    @pytest.mark.parametrize("facts, budget", [(5000, 100)])
    def test_loaded_world_fits_its_byte_budget(self, tmp_path, facts, budget):
        # 600 subjects and 60 predicates; 30% of objects link to a subject,
        # the rest are literals that each occur once, as in the benchmark.
        rng = random.Random(5)
        subjects = [f"Entity {i} of Babylon" for i in range(600)]
        predicates = [f"predicate{i}" for i in range(60)]
        world: dict[str, list] = {}
        for i in range(facts):
            obj = rng.choice(subjects) if rng.random() < 0.3 else f"literal value {i}"
            world.setdefault(subjects[i % 600], []).append([rng.choice(predicates), obj])
        path = tmp_path / "world.json"
        path.write_text(json.dumps({"facts": world, "entities": subjects}), encoding="utf-8")
        gateway, used = held_bytes(lambda: MockWorldGateway(path))
        assert sum(map(len, gateway.facts.values())) == 2 * facts
        assert used / facts < budget

    def test_serves_fixture_facts(self, babylon_gateway):
        triples = babylon_gateway.elicit(ElicitationRequest("Hammurabi", "babylon"))
        assert ("Hammurabi", "instanceOf", "King") in triples
        assert len(triples) == 5

    def test_unknown_subject_yields_empty(self, babylon_gateway):
        assert babylon_gateway.elicit(ElicitationRequest("Atlantis", "babylon")) == []

    def test_ner_truth_follows_entity_list(self, babylon_gateway):
        request = NerRequest(["Babylon", "1792 BC", "France", "Marduk"], "babylon")
        assert babylon_gateway.classify_ner(request) == [True, False, False, True]

    def test_off_topic_subject_logged_but_served(self, babylon_gateway, caplog):
        with caplog.at_level("WARNING"):
            triples = babylon_gateway.elicit(ElicitationRequest("Louvre", "babylon"))
        assert len(triples) == 3
        assert any("off-topic" in message for message in caplog.messages)

    def test_suffix_loop_injector_children(self, loop_world_path):
        gateway = MockWorldGateway(loop_world_path)
        triples = gateway.elicit(ElicitationRequest("Nabu-mukin-zeri", "babylon"))
        objects = {o for _, _, o in triples}
        assert "Nabu-mukin-zeri-mu" in objects
        assert "Nabu-mukin-zeri-ma" in objects
        assert "Q768509" in objects
        deeper = gateway.elicit(ElicitationRequest("Nabu-mukin-zeri-mu-ma", "babylon"))
        assert ("Nabu-mukin-zeri-mu-ma", "alsoKnownAs", "Nabu-mukin-zeri-mu-ma-mu") in deeper

    def test_injected_names_classify_as_entities(self, loop_world_path):
        gateway = MockWorldGateway(loop_world_path)
        request = NerRequest(["Nabu-mukin-zeri-mu-mu", "Q768509", "1792 BC"], "babylon")
        assert gateway.classify_ner(request) == [True, True, False]


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
