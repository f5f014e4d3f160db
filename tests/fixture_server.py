"""A local HTTP server serving canned backend responses for tests.

One generic threaded server plus responder factories for the three wire
protocols the package talks: chat completions (scripted, or answered from
a mock world), embeddings, and the Wikidata action API. Every request is
recorded so tests can assert on call counts and payloads, and on the
headers, target and TCP connection each one came with. A CONNECT relay
stands in for a forward proxy that tunnels ``https``.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.server
import itertools
import json
import socket
import socketserver
import ssl
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.client import HTTPMessage, parse_headers
from pathlib import Path
from typing import Optional

from kbforge.gateway import ElicitationRequest, NerRequest


@dataclass
class Received:
    """How one request arrived."""

    target: str  # as sent: origin-form, or absolute-form through a proxy
    headers: HTTPMessage
    connection: int  # ordinal of the TCP connection it came on


class LocalServer:
    """Context manager around a ThreadingHTTPServer on an ephemeral port.

    The server speaks HTTP/1.0 and closes each connection after one
    response, unless ``http11`` keeps connections open between requests.
    With a ``certificate`` (the paths of a PEM certificate and its key) it
    speaks HTTPS.
    """

    def __init__(self, responder, http11: bool = False, certificate: Optional[tuple[Path, Path]] = None):
        self.responder = responder
        self.requests: list[tuple[str, str, dict, bytes]] = []
        self.received: list[Received] = []
        self._lock = threading.Lock()
        self._connections = itertools.count()
        self._open: set[socket.socket] = set()
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if http11 else "HTTP/1.0"

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                with server._lock:
                    self.ordinal = next(server._connections)
                    server._open.add(self.connection)

            def finish(self):
                with server._lock:
                    server._open.discard(self.connection)
                super().finish()

            def _serve(self, method: str):
                parsed = urllib.parse.urlsplit(self.path)
                query = dict(urllib.parse.parse_qsl(parsed.query))
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                with server._lock:
                    server.requests.append((method, parsed.path, query, body))
                    server.received.append(Received(self.path, self.headers, self.ordinal))
                status, payload = server.responder(method, parsed.path, query, body)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self):
                self._serve("GET")

            def do_POST(self):
                self._serve("POST")

        self._httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._scheme = "http"
        if certificate:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*certificate)
            self._httpd.socket = context.wrap_socket(self._httpd.socket, server_side=True)
            self._scheme = "https"
        # shutdown() waits for serve_forever's next poll: keep that short.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{self._scheme}://{host}:{port}"

    def close_idle(self, timeout: float = 5.0) -> None:
        """Close every open connection from the server's side, as a server
        does to a keep-alive connection it has timed out, and wait until
        their handlers have ended."""
        with self._lock:
            for conn in self._open:
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)
        deadline = time.monotonic() + timeout
        while self._open and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not self._open, "connections still open after close_idle"

    def __enter__(self) -> "LocalServer":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        return False


class ConnectRelay:
    """Context manager around a forward proxy that only tunnels: it answers
    each ``CONNECT host:port`` with 200, then relays bytes both ways.

    ``connects`` holds the request line and headers of each tunnel asked for.
    """

    def __init__(self):
        self.connects: list[tuple[str, HTTPMessage]] = []
        relay = self

        class Handler(socketserver.StreamRequestHandler):
            # Unbuffered, so no byte after the CONNECT head is read ahead.
            rbufsize = 0
            # A client that sends no CONNECT head, such as one starting TLS
            # with the relay itself, is dropped instead of waited for.
            timeout = 5

            def handle(self):
                line = self.rfile.readline().decode("latin-1").rstrip("\r\n")
                headers = parse_headers(self.rfile)
                self.connection.settimeout(None)
                relay.connects.append((line, headers))
                host, _, port = line.split()[1].rpartition(":")
                with socket.create_connection((host, int(port))) as upstream:
                    self.connection.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                    back = threading.Thread(target=_pipe, args=(upstream, self.connection), daemon=True)
                    back.start()
                    _pipe(self.connection, upstream)
                    back.join(timeout=5)

        self._server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "ConnectRelay":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False


def _pipe(source: socket.socket, sink: socket.socket) -> None:
    """Copy ``source`` to ``sink`` until ``source`` ends, then end ``sink``'s writes."""
    with contextlib.suppress(OSError):
        while data := source.recv(65536):
            sink.sendall(data)
    with contextlib.suppress(OSError):
        sink.shutdown(socket.SHUT_WR)


def closed_port() -> int:
    """A local port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def chat_ok(content: str) -> tuple[int, dict]:
    """A 200 chat-completions envelope whose message content is `content`."""
    return 200, {"choices": [{"message": {"content": content}}]}


def scripted_chat_responder(script: list):
    """Serves /chat/completions from a list of (status, payload) entries.

    Each POST consumes one entry. A 200 entry's payload is the message
    content string; other statuses send their payload dict (or {}) as-is.
    Running past the script raises, which fails the test loudly.
    """
    remaining = list(script)

    def responder(method, path, query, body):
        assert method == "POST" and path.endswith("/chat/completions"), (method, path)
        if not remaining:
            raise AssertionError("chat script exhausted")
        status, payload = remaining.pop(0)
        if status == 200:
            return chat_ok(payload)
        return status, payload if isinstance(payload, dict) else {}

    return responder


def world_chat_responder(world_gateway, before=None, delay_s: float = 0.0):
    """Serves chat completions from a mock world gateway: elicitations by
    subject, NER batches by phrase. ``before`` sees each parsed request body
    first, and each answer waits ``delay_s`` seconds."""

    def responder(method, path, query, body):
        request = json.loads(body)
        if before:
            before(request)
        time.sleep(delay_s)
        payload = request["messages"][1]["content"]
        if request["response_format"]["json_schema"]["name"] == "elicitation_triples":
            triples = world_gateway.elicit(ElicitationRequest(payload, "babylon"))
            return chat_ok(json.dumps(
                {"triples": [{"subject": s, "predicate": p, "object": o} for s, p, o in triples]},
                ensure_ascii=False,
            ))
        verdicts = world_gateway.classify_ner(NerRequest(payload.split("\n"), "babylon"))
        return chat_ok(json.dumps({"verdicts": verdicts}))

    return responder


def fake_embedding(text: str, dim: int = 6) -> list[float]:
    """Deterministic pseudo-embedding derived from a digest of the text."""
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return [digest[i % len(digest)] / 255.0 + 0.01 for i in range(dim)]


def embeddings_responder(fail_first: int = 0, dim: int = 6):
    """Serves /embeddings; optionally 500s the first `fail_first` requests."""
    failures = {"left": fail_first}

    def responder(method, path, query, body):
        assert method == "POST" and path.endswith("/embeddings"), (method, path)
        if failures["left"] > 0:
            failures["left"] -= 1
            return 500, {"error": "transient"}
        request = json.loads(body)
        data = [
            {"index": i, "embedding": fake_embedding(text, dim)}
            for i, text in enumerate(request["input"])
        ]
        return 200, {"data": data, "model": request.get("model", "")}

    return responder


def wikidata_responder(catalog: dict[str, tuple[str, int]], fail_first: int = 0):
    """Serves the Wikidata action API from a label -> (qid, count) catalog.

    Statement counts are split across two properties so tests exercise the
    sum-over-properties logic. `fail_first` makes the first N requests 429.
    """
    failures = {"left": fail_first}
    by_qid = {qid: count for qid, count in catalog.values()}

    def responder(method, path, query, body):
        assert method == "GET", method
        if failures["left"] > 0:
            failures["left"] -= 1
            return 429, {"error": "rate limited"}
        action = query.get("action")
        if action == "wbsearchentities":
            label = query.get("search", "")
            if label in catalog:
                qid, _ = catalog[label]
                return 200, {"search": [{"id": qid, "label": label}]}
            return 200, {"search": []}
        if action == "wbgetentities":
            qid = query.get("ids", "")
            if qid not in by_qid:
                return 200, {"entities": {qid: {"missing": ""}}}
            count = by_qid[qid]
            first = count // 2
            claims = {}
            if first:
                claims["P1"] = [{"rank": "normal"}] * first
            if count - first:
                claims["P2"] = [{"rank": "normal"}] * (count - first)
            return 200, {"entities": {qid: {"claims": claims}}}
        return 400, {"error": f"unknown action {action!r}"}

    return responder
