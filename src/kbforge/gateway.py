"""Chat-completion gateways: a remote OpenAI-compatible backend and a mock.

Both gateways expose the same two operations and answer with plain data:
``elicit`` returns one subject's facts as a list of ``(s, p, o)`` string
tuples, and ``classify_ner`` returns a list of ``bool``, one entity verdict
per phrase of its batch. Each remote call is one chat request: batching and
fallbacks are the crawler's. The remote backend declares a strict JSON
schema for the response, retries transport failures and rate limits with
exponential backoff, and appends every outcome, tagged with its run, to an
audit log. The mock backend answers from a world fixture file and is a pure
function of (world, request), which is what makes crawl determinism testable.

The keep-alive HTTP client (``Session``) and the retry policy
(``with_retries``) live here and serve every remote client in the package. A
session is bound to the one URL its client talks to: the URL is checked and
the proxy read when the client is built, and each request returns a
successful response or raises the gateway error its outcome maps to.
"""

from __future__ import annotations

import base64
import copy
import http.client
import json
import logging
import os
import random
import select
import ssl
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Optional, TypeVar

from .model import LabelTable, NdjsonStore, RunConfig, is_unicode, read_ndjson, utcnow
from .prompts import render_elicitation_prompt, render_ner_prompt

logger = logging.getLogger(__name__)

API_KEY_ENV = "KBFORGE_API_KEY"

# First retry delay in seconds; each further retry doubles it.
BACKOFF_BASE_S = 0.5

# Socket timeout of a chat or embeddings request.
REQUEST_TIMEOUT_S = 60

# Retries of a chat or embeddings request: it is sent at most three times.
MAX_RETRIES = 2

USER_AGENT = "kbforge/0.1 (knowledge-base stability toolkit)"

T = TypeVar("T")


class GatewayError(Exception):
    pass


def auth_headers(api_key: Optional[str]) -> dict:
    """The ``Authorization`` header for ``api_key``, or for the key in
    ``KBFORGE_API_KEY`` when none is given; GatewayError when there is none."""
    key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
    if not key:
        raise GatewayError(f"no API key: set the {API_KEY_ENV} environment variable")
    return {"Authorization": f"Bearer {key}"}


class TransportError(GatewayError):
    """Network failure or HTTP error from the backend.

    ``retryable`` is False for an HTTP 4xx other than 429, when the request
    itself was refused (a bad key, a bad body), for a certificate that fails
    verification, and for a URL that cannot be requested at all: sending it
    again cannot help.
    """

    def __init__(self, message: str, retryable: bool = True) -> None:
        super().__init__(message)
        self.retryable = retryable


class RateLimitedError(TransportError):
    """HTTP 429 from the backend; retried with backoff before surfacing."""


class MalformedOutputError(GatewayError):
    """The model's response did not match the declared schema."""


class Response:
    """A finished HTTP response: its status and its body, read in full."""

    def __init__(self, status_code: int, content: bytes) -> None:
        self.status_code = status_code
        self.content = content

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.content)


def _json_body(obj) -> bytes:
    return json.dumps(obj, allow_nan=False).encode()


def _split(url: str) -> urllib.parse.SplitResult:
    try:
        return urllib.parse.urlsplit(url)
    except ValueError as exc:
        raise http.client.InvalidURL(str(exc)) from exc


def _host_port(parts: urllib.parse.SplitResult, default_port: int) -> tuple[str, int]:
    try:
        port = parts.port
    except ValueError as exc:
        raise http.client.InvalidURL(str(exc)) from exc
    if not parts.hostname:
        raise http.client.InvalidURL(f"no host in {parts.geturl()!r}")
    return parts.hostname, port or default_port


def _dropped(sock) -> bool:
    """True when an idle socket is readable: the server closed it, or sent
    bytes no request asked for. Either way the connection cannot be reused."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _Proxy:
    """Where to connect instead of the origin, and the credentials to show.

    The proxy is spoken to in plain HTTP, so a proxy URL of any other
    scheme (``https://``, ``socks5://``) is refused.
    """

    def __init__(self, url: str) -> None:
        parts = _split(url if "://" in url else "http://" + url)
        if parts.scheme != "http":
            raise http.client.InvalidURL(f"not an http proxy URL: {url!r}")
        self.host, self.port = _host_port(parts, 80)
        self.headers = {}
        if parts.username is not None:
            user = urllib.parse.unquote(parts.username)
            password = urllib.parse.unquote(parts.password or "")
            token = base64.b64encode(f"{user}:{password}".encode()).decode()
            self.headers["Proxy-Authorization"] = f"Basic {token}"


class _OneWrite:
    """Sends each request, head and body, in one write.

    ``http.client`` writes the head and the body apart, and each write wakes
    the server. Holding the first lets one segment carry the whole request.
    """

    _held: Optional[list[bytes]] = None

    def request(self, *args, **kwargs):
        self._held = []
        try:
            super().request(*args, **kwargs)
            data = b"".join(self._held)
        finally:
            self._held = None
        super().send(data)

    def send(self, data):
        if self._held is None:
            super().send(data)
        else:
            self._held.append(data)


class _HTTPConnection(_OneWrite, http.client.HTTPConnection):
    pass


class _HTTPSConnection(_OneWrite, http.client.HTTPSConnection):
    pass


class Session:
    """A thread-safe keep-alive HTTP client for one URL, with the part of the
    ``requests`` API that the package's clients use.

    The URL is checked, ``HTTP(S)_PROXY`` and ``NO_PROXY`` are read and the
    TLS context is built once, here; a malformed or non-http(s) URL, or a
    malformed or non-http proxy URL, is refused as a non-retryable
    ``TransportError``. A request returns a successful ``Response`` or raises
    ``RateLimitedError`` for a 429 and ``TransportError`` for any other
    failure. It is never sent again here; retrying is ``with_retries``'
    decision. Every request carries ``USER_AGENT``.

    Idle connections wait on a LIFO list. A request takes the most recently
    used one that the server has not closed, or opens a new one, and reads
    the response in full before it puts the connection back, so a session
    holds at most as many connections as it has requests in flight: for a
    crawl run, ``parallelism`` elicitations and one NER batch.

    ``https`` verifies certificates against the system store (``SSL_CERT_FILE``
    overrides it). No ``.netrc`` is read and no redirect is followed.
    """

    def __init__(self, url: str) -> None:
        self.url = url
        try:
            parts = _split(url)
            if parts.scheme not in ("http", "https"):
                raise http.client.InvalidURL(f"not an http(s) URL: {url!r}")
            host, port = _host_port(parts, 443 if parts.scheme == "https" else 80)
            netloc = parts.netloc.rpartition("@")[2]
            proxy_url = urllib.request.getproxies().get(parts.scheme)
            proxy = None if not proxy_url or urllib.request.proxy_bypass(netloc) else _Proxy(proxy_url)
        except http.client.InvalidURL as exc:
            raise TransportError(str(exc), retryable=False) from exc
        self._target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._headers = {"User-Agent": USER_AGENT}
        self._address = (proxy.host, proxy.port) if proxy else (host, port)
        self._tls = self._tunnel = None
        if parts.scheme == "https":
            self._tls = ssl.create_default_context()
            if proxy:
                self._tunnel = (host, port, proxy.headers)
        elif proxy:
            self._target = f"http://{netloc}{self._target}"
            self._headers.update(proxy.headers)
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def post(self, json, headers: Optional[dict] = None, timeout: Optional[float] = None) -> Response:
        """POST ``json`` encoded as ``requests`` encodes it."""
        headers = {"Content-Type": "application/json", **(headers or {})}
        return self._request("POST", self._target, _json_body(json), headers, timeout)

    def get(self, params: Optional[dict] = None, timeout: Optional[float] = None) -> Response:
        target = self._target
        if params:
            target += ("&" if "?" in target else "?") + urllib.parse.urlencode(params, doseq=True)
        return self._request("GET", target, None, {}, timeout)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _request(self, method: str, target: str, body: Optional[bytes], headers: dict,
                 timeout: Optional[float]) -> Response:
        try:
            conn = self._checkout() or self._connect(timeout)
            try:
                conn.sock.settimeout(timeout)
                conn.request(method, target, body=body, headers={**self._headers, **headers})
                resp = conn.getresponse()
                content = resp.read()
            except BaseException:
                conn.close()
                raise
        except (OSError, http.client.HTTPException) as exc:
            # An untrusted certificate is untrusted again on the next attempt.
            raise TransportError(str(exc), retryable=not isinstance(exc, ssl.SSLCertVerificationError)) from exc
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        response = Response(resp.status, content)
        if response.status_code == 429:
            raise RateLimitedError("rate limited by backend")
        if response.status_code >= 400:
            raise TransportError(f"backend returned HTTP {response.status_code}: {response.text[:200]}",
                                 retryable=response.status_code >= 500)
        return response

    def _checkout(self) -> Optional[http.client.HTTPConnection]:
        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            if not _dropped(conn.sock):
                return conn
            conn.close()

    def _connect(self, timeout: Optional[float]) -> http.client.HTTPConnection:
        if self._tls:
            conn = _HTTPSConnection(*self._address, timeout=timeout, context=self._tls)
            if self._tunnel:
                conn.set_tunnel(*self._tunnel)
        else:
            conn = _HTTPConnection(*self._address, timeout=timeout)
        # http.client sets TCP_NODELAY here, so that no write waits for the
        # server to acknowledge the one before it.
        conn.connect()
        return conn


def with_retries(
    attempt: Callable[[], T],
    max_retries: int,
    sleep: Callable[[float], None],
    backoff_base: float = BACKOFF_BASE_S,
) -> T:
    """Call ``attempt`` until it succeeds or ``max_retries`` retries are spent.

    Malformed output is retried at once. A retryable transport error is
    retried after ``backoff_base * 2**k`` seconds plus up to 10% jitter, for
    the k-th retry counted from 0. A non-retryable one is raised at once, and
    the last error is raised when the retries run out.
    """
    for k in range(max_retries + 1):
        try:
            return attempt()
        except MalformedOutputError:
            if k == max_retries:
                raise
        except TransportError as exc:
            if k == max_retries or not exc.retryable:
                raise
            sleep(backoff_base * (2**k) * (1 + random.random() * 0.1))
    raise ValueError("max_retries must be >= 0")


@dataclass
class ElicitationRequest:
    subject: str
    topic: str
    language: str = "en"

    def __post_init__(self) -> None:
        if not self.subject:
            raise ValueError("subject must be non-empty")


@dataclass
class NerRequest:
    phrases: list[str]
    topic: str
    language: str = "en"

    def __post_init__(self) -> None:
        if not self.phrases:
            raise ValueError("phrases must be a non-empty list")


@dataclass
class BackendDescriptor:
    """Where a remote chat backend listens; ``kind`` is always "remote". The
    model and temperature a request carries are its run's (``for_run``)."""

    kind: str = "remote"
    endpoint_url: str = ""

    def __post_init__(self) -> None:
        if self.kind != "remote":
            raise ValueError(f"unknown backend kind: {self.kind!r}")


ELICITATION_SCHEMA = {
    "type": "object",
    "properties": {
        "triples": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "subject": {"type": "string"},
                    "predicate": {"type": "string"},
                    "object": {"type": "string"},
                },
                "required": ["subject", "predicate", "object"],
                "additionalProperties": False,
            },
        }
    },
    "required": ["triples"],
    "additionalProperties": False,
}

NER_SCHEMA = {
    "type": "object",
    "properties": {"verdicts": {"type": "array", "items": {"type": "boolean"}}},
    "required": ["verdicts"],
    "additionalProperties": False,
}


def _payload_field(text: str, key: str, what: str):
    """Field ``key`` of the JSON object in ``text``; MalformedOutputError
    when ``text`` is not JSON or not an object holding ``key`` (its ``what``)."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise MalformedOutputError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or key not in data:
        raise MalformedOutputError(f"response lacks a {key!r} {what}")
    return data[key]


def parse_elicitation_payload(text: str) -> list[tuple[str, str, str]]:
    """Strictly parse a JSON elicitation payload into raw (s, p, o) tuples; a
    label holding a lone surrogate (see ``is_unicode``) is malformed output."""
    items = _payload_field(text, "triples", "object")
    if not isinstance(items, list):
        raise MalformedOutputError("'triples' is not an array")
    triples = []
    for item in items:
        if not isinstance(item, dict):
            raise MalformedOutputError("triple entry is not an object")
        try:
            s, p, o = item["subject"], item["predicate"], item["object"]
        except KeyError as exc:
            raise MalformedOutputError(f"triple entry missing key {exc}") from exc
        if not all(isinstance(x, str) for x in (s, p, o)):
            raise MalformedOutputError("triple fields must all be strings")
        if not (is_unicode(s) and is_unicode(p) and is_unicode(o)):
            raise MalformedOutputError("triple fields must be Unicode text, without lone surrogates")
        triples.append((s, p, o))
    return triples


def parse_ner_payload(text: str, expected: int) -> list[bool]:
    """Strictly parse a JSON NER payload; verdict count must match the batch."""
    verdicts = _payload_field(text, "verdicts", "array")
    if not isinstance(verdicts, list) or not all(isinstance(v, bool) for v in verdicts):
        raise MalformedOutputError("'verdicts' must be an array of booleans")
    if len(verdicts) != expected:
        raise MalformedOutputError(
            f"verdict count {len(verdicts)} does not match {expected} phrases"
        )
    return verdicts


def replay_audit(path: Path) -> list[list[tuple[str, str, str]]]:
    """Re-parse every logged elicitation response: one list of (s, p, o)
    tuples per successful elicitation, in log order.

    Running the recorded payloads back through the parser must reproduce
    the answers the crawl saw, which makes remote runs auditable.
    """
    return [
        parse_elicitation_payload(entry["response_text"])
        for entry in read_ndjson(path)
        if entry.get("kind") == "elicit" and entry.get("status") == "ok"
    ]


class RemoteChatGateway:
    """OpenAI-compatible chat-completions client with structured output.
    Requests carry ``RunConfig``'s default model and temperature, or those of
    the run that a ``for_run`` copy is bound to."""

    def __init__(
        self,
        descriptor: BackendDescriptor,
        api_key: Optional[str] = None,
        audit_path: Optional[Path] = None,
        sleep: Callable[[float], None] = time.sleep,
        backoff_base: float = BACKOFF_BASE_S,
    ) -> None:
        self.model_id = RunConfig.model_id
        self.temperature = RunConfig.temperature
        self._headers = auth_headers(api_key)
        self.session = Session(descriptor.endpoint_url.rstrip("/") + "/chat/completions")
        # The outcome of every call, success or failure, one timestamped line each.
        self.audit = NdjsonStore(audit_path) if audit_path else None
        self._sleep = sleep
        self._backoff_base = backoff_base
        # The run whose requests these are; ``for_run`` sets it.
        self.run_id: Optional[str] = None

    def for_run(self, config, run_id: str) -> "RemoteChatGateway":
        """A copy of this gateway that sends ``config``'s model and
        temperature, tags its lines in the shared audit log with ``run_id``
        and has its own session; nothing else differs. The session keeps one
        connection per request the run has in flight, at most
        ``config.parallelism`` elicitations and one NER batch, so runs
        crawled at the same time never share a connection. Close the copy
        when the run ends.
        """
        bound = copy.copy(self)
        bound.model_id = config.model_id
        bound.temperature = config.temperature
        bound.run_id = run_id
        bound.session = Session(self.session.url)
        return bound

    def close(self) -> None:
        self.session.close()

    def _audit(self, entry: dict) -> None:
        if self.audit:
            self.audit.append([{"run": self.run_id, **entry, "ts": utcnow()}])

    def _ask(self, entry: dict, instruction: str, payload: str, schema_name: str, schema: dict,
             parse: Callable[[str], T]) -> tuple[str, T]:
        """Send one chat request under ``with_retries``; return the message
        content and what ``parse`` made of it.

        A request that still fails is audited as ``entry`` with its error
        class, then raised. The caller audits a success.
        """
        body = {
            "model": self.model_id,
            "temperature": self.temperature,
            "messages": [
                {"role": "system", "content": instruction},
                {"role": "user", "content": payload},
            ],
            "response_format": {
                "type": "json_schema",
                "json_schema": {"name": schema_name, "strict": True, "schema": schema},
            },
        }

        def attempt() -> tuple[str, T]:
            resp = self.session.post(json=body, headers=self._headers, timeout=REQUEST_TIMEOUT_S)
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise MalformedOutputError(f"unexpected completion envelope: {exc}") from exc
            return content, parse(content)

        try:
            return with_retries(attempt, MAX_RETRIES, self._sleep, self._backoff_base)
        except GatewayError as exc:
            self._audit({**entry, "status": type(exc).__name__, "error": str(exc)})
            raise

    def elicit(self, req: ElicitationRequest) -> list[tuple[str, str, str]]:
        """The subject's facts as the model states them, raw (s, p, o) tuples."""
        instruction = render_elicitation_prompt(req.topic, req.language)
        entry = {"kind": "elicit", "subject": req.subject}
        content, triples = self._ask(
            entry, instruction, req.subject, "elicitation_triples", ELICITATION_SCHEMA,
            parse_elicitation_payload,
        )
        self._audit({**entry, "status": "ok", "response_text": content})
        return triples

    def classify_ner(self, req: NerRequest) -> list[bool]:
        """One verdict per phrase of the batch, in order: True for a named entity."""
        instruction = render_ner_prompt(req.topic, req.language)
        entry = {"kind": "ner", "phrases": req.phrases}
        _, verdicts = self._ask(
            entry, instruction, "\n".join(req.phrases), "ner_verdicts", NER_SCHEMA,
            lambda content: parse_ner_payload(content, len(req.phrases)),
        )
        self._audit({**entry, "status": "ok", "verdicts": verdicts})
        return verdicts


@dataclass
class SuffixLoopInjector:
    """Generates an unbounded family of entity names by appending syllables.

    Every subject in the family answers with one child per syllable, so the
    name tree grows without bound; names whose trailing syllable repeats are
    exactly what the crawler's repetition detector must contain.
    """

    root: str
    syllables: list[str] = field(default_factory=lambda: ["mu", "ma"])

    def in_domain(self, label: str) -> bool:
        if label == self.root:
            return True
        if not label.startswith(self.root + "-"):
            return False
        tail = label[len(self.root) + 1 :]
        return all(tok in self.syllables for tok in tail.split("-"))

    def children(self, label: str) -> list[str]:
        return [f"{label}-{syl}" for syl in self.syllables]


@dataclass
class QIdInjector:
    """Emits bare Q-identifier entities from one host subject."""

    host: str
    qids: list[str]


class MockWorldGateway:
    """Deterministic gateway backed by a world fixture file.

    The world maps each known subject to its facts and carries the ground
    truth of which phrases count as named entities. Identical requests get
    identical responses regardless of call order.

    Every label of the world is read through one ``LabelTable``, so it is
    one string however many facts hold it, and each subject's facts are one
    flat tuple ``(p1, o1, p2, o2, ...)``. A crawl's own table keeps the
    strings it is served, so the runs of an offline suite share them too.
    """

    def __init__(self, world_path: Path) -> None:
        self.world_path = Path(world_path)
        text = self.world_path.read_text(encoding="utf-8")
        world = json.loads(text)
        if not isinstance(world, dict):
            raise ValueError(f"world {self.world_path} must hold a JSON object")
        # In a UTF-8 file only a \u escape can spell a lone surrogate (see ``is_unicode``).
        if "\\u" in text and not is_unicode(json.dumps(world, ensure_ascii=False)):
            raise ValueError(f"world {self.world_path} holds text that is not Unicode")
        labels = LabelTable()
        share = labels.__getitem__
        self.facts: dict[str, tuple[str, ...]] = {}
        for subject, pairs in world.get("facts", {}).items():
            flat = tuple(map(share, chain.from_iterable(pairs)))
            if len(flat) != 2 * len(pairs):
                raise ValueError(f"world {self.world_path}: a fact of {subject!r} is not a pair")
            self.facts[share(subject)] = flat
        self.entities: set[str] = set(map(share, world.get("entities", [])))
        self.off_topic: set[str] = set(map(share, world.get("off_topic", [])))
        injectors = world.get("injectors", {})
        self.suffix_loop: Optional[SuffixLoopInjector] = None
        if "suffix_loop" in injectors:
            cfg = injectors["suffix_loop"]
            self.suffix_loop = SuffixLoopInjector(
                root=cfg["root"], syllables=list(cfg.get("syllables", ["mu", "ma"]))
            )
        self.q_id: Optional[QIdInjector] = None
        if "q_id" in injectors:
            cfg = injectors["q_id"]
            self.q_id = QIdInjector(host=cfg["host"], qids=list(cfg["qids"]))

    def _is_entity(self, phrase: str) -> bool:
        if phrase in self.entities:
            return True
        if self.suffix_loop and self.suffix_loop.in_domain(phrase):
            return True
        if self.q_id and phrase in self.q_id.qids:
            return True
        return False

    def elicit(self, req: ElicitationRequest) -> list[tuple[str, str, str]]:
        subject = req.subject
        if subject in self.off_topic:
            logger.warning("off-topic subject elicited: %r", subject)
        labels = iter(self.facts.get(subject, ()))
        triples = [(subject, p, o) for p, o in zip(labels, labels)]
        if self.suffix_loop and self.suffix_loop.in_domain(subject):
            for child in self.suffix_loop.children(subject):
                triples.append((subject, "alsoKnownAs", child))
        if self.q_id and subject == self.q_id.host:
            for qid in self.q_id.qids:
                triples.append((subject, "relatedEntity", qid))
        return triples

    def classify_ner(self, req: NerRequest) -> list[bool]:
        return [self._is_entity(p) for p in req.phrases]
