"""Latency-injecting chat-completions server for the remote crawl workload.

Run as its own process: ``python3 chat_server.py SERVE_JSON``. It prints
``PORT <n>`` once it listens on 127.0.0.1 and serves until terminated.

It answers the two requests ``RemoteChatGateway`` sends, elicitation and NER,
from the benchmark's world files. The run a request belongs to is read from
its topic (``benchrun<i>``). Every response waits for an injected latency
that depends only on the request:

- a base cost plus a cost per returned fact or per classified phrase;
- a bounded heavy tail on a fixed share of the subjects, chosen and ordered
  by a hash of the subject, so the slowest subject sets each crawl layer's
  time while the tail's total stays the same from seed to seed;
- listed transient faults (429 or 503) on the first attempt of a few
  elicitations and NER batches, and listed subjects whose answer is
  malformed JSON on every attempt.

Each response goes out in a single write: headers and body sent in two
writes on a keep-alive connection stall on Nagle plus delayed ACK. The
server exits when its standard input closes, so it never outlives the
benchmark that started it.
``GET /_bench/stats`` reports what was injected; ``POST /_bench/reset``
clears the fault memory and the counters between pipeline iterations.
"""

from __future__ import annotations

import hashlib
import http.server
import json
import re
import sys
import threading
import time
from pathlib import Path

_RUN = re.compile(r"benchrun(\d+)")


def _unit_hash(text: str) -> float:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class ChatWorld:
    """Request handling state, shared by the server's handler threads."""

    def __init__(self, config: dict):
        self.latency = config["latency"]
        self.worlds = []
        for path in config["worlds"]:
            world = json.loads(Path(path).read_text(encoding="utf-8"))
            self.worlds.append((world["facts"], set(world["entities"])))
        self.tail_ms = self._tail(sorted({subject for facts, _ in self.worlds for subject in facts}))
        self.malformed = set(config["malformed"])
        self.transient = [set(subjects) for subjects in config["transient"]]
        self.ner_fault_ordinals = set(config["ner_fault_ordinals"])
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._faulted: set[tuple] = set()
            self._ner_seen: dict[int, set[str]] = {}
            self.stats = {
                "requests": 0,
                "transient_injected": 0,
                "transient_recovered": 0,
                "injected_ms": {"elicit": [], "ner": []},
            }

    def _tail(self, subjects: list[str]) -> dict[str, float]:
        """Extra latency of the tail subjects: the ``tail_share`` of them with
        the lowest hash, spread evenly from ``tail_min_ms`` to ``tail_max_ms``."""
        lat = self.latency
        count = round(lat["tail_share"] * len(subjects))
        ranked = sorted(subjects, key=_unit_hash)[:count]
        step = (lat["tail_max_ms"] - lat["tail_min_ms"]) / max(1, count - 1)
        return {subject: lat["tail_min_ms"] + rank * step for rank, subject in enumerate(ranked)}

    def _first_attempt_fault(self, key: tuple, listed: bool) -> bool:
        """True when this request must fail now; also counts recoveries."""
        with self._lock:
            if key in self._faulted:
                self._faulted.discard(key)
                self.stats["transient_recovered"] += 1
                return False
            if listed:
                self._faulted.add(key)
                self.stats["transient_injected"] += 1
            return listed

    def answer(self, body: dict) -> tuple[int, dict, float]:
        """Return (status, JSON payload, injected latency in ms)."""
        lat = self.latency
        instruction = body["messages"][0]["content"]
        payload = body["messages"][1]["content"]
        run = int(_RUN.search(instruction).group(1))
        facts, entities = self.worlds[run]
        kind = body["response_format"]["json_schema"]["name"]
        with self._lock:
            self.stats["requests"] += 1
        if kind == "elicitation_triples":
            key = ("elicit", run, payload)
            if self._first_attempt_fault(key, payload in self.transient[run]):
                return self._fault_status(), {"error": "transient"}, lat["fault_ms"]
            pairs = facts.get(payload, [])
            ms = lat["elicit_base_ms"] + lat["per_fact_ms"] * len(pairs) + self.tail_ms.get(payload, 0.0)
            if payload in self.malformed:
                content = '{"triples": [{"subject": '
            else:
                content = json.dumps(
                    {"triples": [{"subject": payload, "predicate": p, "object": o} for p, o in pairs]},
                    ensure_ascii=False,
                )
            with self._lock:
                self.stats["injected_ms"]["elicit"].append(ms)
        else:
            phrases = payload.split("\n")
            key = ("ner", run, payload)
            with self._lock:
                seen = self._ner_seen.setdefault(run, set())
                first_sight = payload not in seen
                seen.add(payload)
                ordinal = len(seen)
            listed = first_sight and ordinal in self.ner_fault_ordinals
            if self._first_attempt_fault(key, listed):
                return self._fault_status(), {"error": "transient"}, lat["fault_ms"]
            ms = lat["ner_base_ms"] + lat["per_phrase_ms"] * len(phrases)
            with self._lock:
                self.stats["injected_ms"]["ner"].append(ms)
            content = json.dumps({"verdicts": [p in entities for p in phrases]})
        return 200, {"choices": [{"message": {"content": content}}]}, ms

    def _fault_status(self) -> int:
        return 429 if self.stats["transient_injected"] % 2 else 503


def make_handler(world: ChatWorld):
    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                "\r\n"
            ).encode("ascii")
            self.wfile.write(head + data)

        def do_GET(self):
            if self.path == "/_bench/stats":
                self._send(200, world.stats)
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length)
            if self.path == "/_bench/reset":
                world.reset()
                self._send(200, {})
                return
            started = time.perf_counter()
            status, payload, ms = world.answer(json.loads(body))
            remaining = ms / 1000.0 - (time.perf_counter() - started)
            if remaining > 0:
                time.sleep(remaining)
            self._send(status, payload)

    return Handler


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    world = ChatWorld(config)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), make_handler(world))
    server.daemon_threads = True

    def exit_with_parent():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=exit_with_parent, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
