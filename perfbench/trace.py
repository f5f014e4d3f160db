"""Spans around calls into kbforge's modules, recorded from outside the package.

The gateway handed to ``run_suite`` and the embedding provider handed to
``build_stability_report`` are wrapped in timing proxies; module-level
functions are replaced on their modules for the length of a traced run, so
calls between kbforge's own modules are seen too. Spans stay in memory and
are written once the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from kbforge import crawler, ensemble, export, metrics, model, popularity

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
# kbforge's modules, plus "bench" for the benchmark's own glue between calls.
LAYERS = ("gateway", "crawler", "model", "embeddings", "metrics", "popularity", "ensemble", "export", "bench")


class Tracer:
    """Collects spans: name, start, end, parent span and run id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[dict]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, run: str = "", **attrs):
        stack = self._stack()
        # Crawl workers have no open span of their own; their calls belong to
        # whatever the main thread is running, which is the crawl.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "run": run or (parent["run"] if parent else ""),
            **attrs,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


class TracedGateway:
    """Timing proxy for a chat gateway; also times the HTTP posts under it."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        session = getattr(inner, "session", None)
        if session is not None:
            post = session.post

            def traced_post(*args, **kwargs):
                with tracer.span("gateway.http") as record:
                    resp = post(*args, **kwargs)
                    record["status"] = resp.status_code
                    return resp

            session.post = traced_post

    def elicit(self, req):
        with self.tracer.span("gateway.elicit", run=req.topic):
            return self.inner.elicit(req)

    def classify_ner(self, req):
        with self.tracer.span("gateway.ner", run=req.topic, phrases=len(req.phrases)):
            return self.inner.classify_ner(req)


def traced_sleep(tracer: Tracer, sleep=time.sleep):
    """A retry-backoff sleep for the remote gateway that records its spans."""
    def traced(seconds: float) -> None:
        with tracer.span("gateway.backoff"):
            sleep(seconds)
    return traced


class TracedProvider:
    """Timing proxy for an embedding provider."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def embed(self, texts):
        with self._tracer.span("embeddings.embed", rows=len(texts)):
            return self._inner.embed(texts)


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * PAGE_MB


@contextmanager
def _peak_rss(record: dict, interval_s: float = 0.002):
    """Record the peak RSS growth over the block, sampled from /proc."""
    base = _rss_mb()
    peak = [base]
    done = threading.Event()

    def sample():
        while not done.wait(interval_s):
            peak[0] = max(peak[0], _rss_mb())

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        yield
    finally:
        done.set()
        sampler.join()
        record["peak_mb"] = max(peak[0], _rss_mb()) - base


def _category(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["category"]).value


def _pairwise_report(tracer, fn):
    def wrapped(*args, **kwargs):
        category = _category(args, kwargs)
        with tracer.span("metrics.compare." + category) as record:
            if category != "triples":
                return fn(*args, **kwargs)
            with _peak_rss(record):
                return fn(*args, **kwargs)
    return wrapped


def _pairwise_cosine(tracer, fn):
    def wrapped(a, b):
        with tracer.span("embeddings.pairwise_cosine", cells=int(a.shape[0]) * int(b.shape[0])):
            return fn(a, b)
    return wrapped


def _crawl(tracer, fn):
    def wrapped(*args, **kwargs):
        with tracer.span("crawler.crawl", run=args[0].topic):
            return fn(*args, **kwargs)
    return wrapped


# (module, attribute, span name or wrapper factory). A missing attribute
# fails the traced run rather than reading as a zero metric.
PATCHES = [
    (crawler, "run_suite", "crawler.run_suite"),
    (crawler, "crawl", _crawl),
    (crawler, "save_run", "model.save_run"),
    (model, "load_run", "model.load_run"),
    (metrics, "derive_categories", "model.derive_categories"),
    (export, "derive_categories", "model.derive_categories"),
    (metrics, "build_stability_report", "metrics.build_stability_report"),
    (metrics, "pairwise_report", _pairwise_report),
    (metrics, "bucketed_report", "metrics.bucketed"),
    (metrics, "hausdorff_similarity", "metrics.hausdorff"),
    (metrics, "semantic_match_pct", "metrics.match_pct"),
    (metrics, "pairwise_cosine_similarity", _pairwise_cosine),
    (metrics, "write_report", "metrics.write_report"),
    (popularity, "resolve_many", "popularity.resolve"),
    (popularity, "bucketize", "popularity.bucketize"),
    (ensemble, "shared_triple_curve", "ensemble.curve"),
    (ensemble, "elbow_k", "ensemble.elbow"),
    (ensemble, "build_ensemble_kb", "ensemble.build"),
    (export, "export_kb", "export.export_kb"),
    (export, "to_csv", "export.csv"),
    (export, "to_sql_dump", "export.sql"),
    (export, "to_turtle", "export.ttl"),
    (export, "to_html", "export.html"),
]


def _named(tracer, fn, name):
    def wrapped(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapped


@contextmanager
def patched(tracer: Tracer):
    """Wrap the PATCHES functions in spans; restore them on exit."""
    saved = []
    for module, attr, how in PATCHES:
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, _named(tracer, fn, how) if isinstance(how, str) else how(tracer, fn))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _subtract(start: float, end: float, covered: list[tuple[float, float]]):
    out, cursor = [], start
    for s, e in covered:
        if s > cursor:
            out.append((cursor, min(s, end)))
        cursor = max(cursor, e)
        if cursor >= end:
            break
    if cursor < end:
        out.append((cursor, end))
    return out


def layer_of(name: str) -> str:
    return "bench" if name.startswith("stage.") else name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer not covered by a child span, overlaps counted once."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    per_layer = defaultdict(list)
    for s in spans:
        covered = _merge(children[s["id"]])
        per_layer[layer_of(s["name"])] += _subtract(s["start"], s["end"], covered)
    return {layer: sum(e - s for s, e in _merge(iv)) for layer, iv in per_layer.items()}


def _pct(values: list[float], q: float) -> float:
    """The q-quantile of values by the nearest-rank rule; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def crawl_layers(spans: list[dict], parallelism: int) -> list[dict]:
    """Per crawl layer: frontier size, elicit window, NER time, idle worker time.

    ``classify_ner`` is called once at the end of each layer that found new
    labels, so a layer is the run of elicitations between two NER calls.
    """
    layers = []
    for crawl in (s for s in spans if s["name"] == "crawler.crawl"):
        calls = sorted(
            (s for s in spans if s["parent"] == crawl["id"] and s["name"].startswith("gateway.")),
            key=lambda s: s["start"],
        )
        current = None
        for call in calls:
            if call["name"] == "gateway.elicit":
                if current is None:
                    current = {"elicits": [], "ner_s": 0.0}
                    layers.append(current)
                current["elicits"].append(call)
            elif call["name"] == "gateway.ner":
                if current is not None:
                    current["ner_s"] += call["end"] - call["start"]
                current = None
    for layer in layers:
        elicits = layer.pop("elicits")
        window = max(s["end"] for s in elicits) - min(s["start"] for s in elicits)
        busy = sum(s["end"] - s["start"] for s in elicits)
        layer.update(frontier=len(elicits), elicit_s=window, idle_s=max(0.0, parallelism * window - busy))
    return layers


def layer_metrics(spans: list[dict], bench, out, pipeline_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline iteration: read off its
    spans, plus counts taken from its outputs and from the chat server."""
    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    elicits = named("gateway.elicit")
    ners = named("gateway.ner")
    https = named("gateway.http")
    ner_ids = {s["id"] for s in ners}
    ner_batches = (
        sum(1 for s in https if s["parent"] in ner_ids and s.get("status") == 200)
        if https else len(ners)
    )
    malformed = sum(1 for s in elicits if s.get("error") == "MalformedOutputError")
    attempted = len(elicits) + ner_batches + len(out.records)
    parallelism = out.records[0].config.parallelism
    layers = crawl_layers(spans, parallelism)
    elicit_ms = [(s["end"] - s["start"]) * 1000.0 for s in elicits]
    elicit_phase = sum(l["elicit_s"] for l in layers)
    ner_phase = sum(l["ner_s"] for l in layers)
    overhead_ms = 0.0
    if bench.server:
        client_ms = [(s["end"] - s["start"]) * 1000.0 for s in https
                     if s.get("status") == 200 and spans[s["parent"]]["name"] == "gateway.elicit"]
        injected_ms = bench.server.stats()["injected_ms"]["elicit"]
        overhead_ms = statistics.median(client_ms) - statistics.median(injected_ms)
    suite_files = [p for p in (out.run_dir / "suite").rglob("*") if p.is_file()]
    export_files = [p for p in (out.run_dir / "export").rglob("*") if p.is_file()]
    values = {
        "gateway.elicit.calls": len(elicits),
        "gateway.elicit.p50_ms": _pct(elicit_ms, 0.5),
        "gateway.elicit.p99_ms": _pct(elicit_ms, 0.99),
        "gateway.ner.calls": len(ners),
        "gateway.ner.batches": ner_batches,
        "gateway.ner_s": total("gateway.ner"),
        "gateway.http.requests": len(https),
        "gateway.retries": len(https) - len(elicits) - ner_batches if https else 0,
        "gateway.malformed": malformed,
        "server.overhead_ms": overhead_ms,
        "crawler.layers": len(layers),
        "crawler.frontier_max": max((l["frontier"] for l in layers), default=0),
        "crawler.degeneracy_rejections": sum(len(r.degeneracy_events) for r in out.records),
        "crawler.attempted_ops": attempted,
        "crawler.failed_share": malformed / attempted,
        "crawler.elicit_phase_s": elicit_phase,
        "crawler.ner_phase_s": ner_phase,
        "crawler.barrier_idle_s": sum(l["idle_s"] for l in layers),
        "crawler.bookkeeping_s": total("crawler.crawl") - elicit_phase - ner_phase,
        "crawler.ner_share": ner_phase / total("crawler.run_suite"),
        "gateway.backoff_s": total("gateway.backoff"),
        "gateway.backoff_share": total("gateway.backoff") / (parallelism * total("crawler.run_suite")),
        "model.save_run_s": total("model.save_run"),
        "model.load_run_s": total("model.load_run"),
        "model.bytes_written": sum(p.stat().st_size for p in suite_files),
        "model.derive_categories.calls": len(named("model.derive_categories")),
        "model.derive_categories_s": total("model.derive_categories"),
        "embeddings.embed_s": total("embeddings.embed"),
        "embeddings.rows": sum(s["rows"] for s in named("embeddings.embed")),
        "embeddings.pairwise_cosine.calls": len(named("embeddings.pairwise_cosine")),
        "embeddings.pairwise_cosine.cells": sum(s["cells"] for s in named("embeddings.pairwise_cosine")),
        "embeddings.pairwise_cosine_s": total("embeddings.pairwise_cosine"),
        "metrics.hausdorff_s": total("metrics.hausdorff"),
        "metrics.match_pct_s": total("metrics.match_pct"),
        "metrics.bucketed_s": total("metrics.bucketed"),
        "metrics.write_report_s": total("metrics.write_report"),
        "metrics.compare.triples_peak_mb": max((s.get("peak_mb", 0.0) for s in named("metrics.compare.triples")), default=0.0),
        "popularity.resolve_s": total("popularity.resolve"),
        "popularity.cache_hits": sum(
            len(members) for a in out.assignments or [] for name, members in a.buckets.items() if name != "NotFound"
        ),
        "popularity.bucketize_s": total("popularity.bucketize"),
        "ensemble.curve_s": total("ensemble.curve"),
        "ensemble.build_s": total("ensemble.build"),
        "ensemble.kb_triples": len(out.kb) if out.kb else 0,
        "ensemble.elbow_k": out.k or 0,
        "export.csv_s": total("export.csv"),
        "export.sql_s": total("export.sql"),
        "export.ttl_s": total("export.ttl"),
        "export.html_s": total("export.html"),
        "export.files": len(export_files),
        "export.bytes": sum(p.stat().st_size for p in export_files),
        "trace.pipeline_s": pipeline_s,
        "trace.overhead_s": pipeline_s - untraced_s,
    }
    for category in ("named_entities", "literals", "predicates", "classes", "triples"):
        values[f"metrics.compare.{category}_s"] = total("metrics.compare." + category)
    seconds = self_times(spans)
    for layer in LAYERS:
        values[f"self.{layer}_s"] = seconds.get(layer, 0.0)
        values[f"share.{layer}"] = seconds.get(layer, 0.0) / pipeline_s
    return values
