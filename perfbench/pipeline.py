"""The user's pipeline, crawl -> save/load -> compare -> ensemble -> export.

Each stage calls the public functions the matching CLI command calls, through
their module attributes, so a traced run can wrap them from outside.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
import urllib.request
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kbforge import crawler, embeddings, ensemble, export, metrics, model, popularity
from kbforge.gateway import BackendDescriptor, MockWorldGateway, NerRequest, RemoteChatGateway
from kbforge.model import RunConfig, StructuralCategory

import worlds

HERE = Path(__file__).resolve().parent
PARALLELISM = 2  # nproc of the machine the workloads were sized on
# Injected latency per request, taken from a prototype of this workload that
# crawled 1,512 elicitations and 28 NER batches against a local server: the
# elicitations averaged ~11 ms of injected latency and the NER phase took
# ~1.1 s, ~39 ms per batch of up to 100 phrases. The elicitation mean is
# split into a base, a cost per returned fact and a tail on 3% of subjects
# (40-120 ms, so a layer's slowest subject sets its time); on the
# crawl_remote worlds it comes to 10-10.5 ms. A full NER batch
# injects the same base plus a cost per phrase, 5.6 + 100 x 0.3 = 35.6 ms,
# which with the ~3.5 ms round trip of the local server makes the 39 ms.
LATENCY = {
    "elicit_base_ms": 5.6,
    "per_fact_ms": 0.4,
    "tail_share": 0.03,
    "tail_min_ms": 40.0,
    "tail_max_ms": 120.0,
    "ner_base_ms": 5.6,
    "per_phrase_ms": 0.3,
    "fault_ms": 2.0,
}
# The gateway's 0.5 s default backoff is sized for a hosted model. Taking
# ~1 s for a hosted elicitation of a few facts (an assumption: ~150 output
# tokens; no hosted endpoint is measured here), the injected latencies are
# ~100x below it, so the backoff is scaled by the same 1/100 and retry sleeps
# keep their proportion to request latency. A traced run reports the share
# of worker time spent in backoff (gateway.backoff_share).
BACKOFF_BASE_S = 0.005
NER_FAULT_ORDINALS = (2, 5)  # per run, the n-th distinct NER batch fails once
STAGES = ("crawl", "io", "compare", "ensemble", "export")


@dataclass(frozen=True)
class Workload:
    spec: worlds.WorldSpec
    stages: tuple[str, ...]
    categories: tuple[StructuralCategory, ...] = ()
    remote: bool = False
    buckets: bool = False


WORKLOADS = {
    # Literals repeat, as they do in real crawls, which keeps NER batches
    # per elicitation (1 per ~29 here) nearer the prototype's (1 per 54):
    # the NER phase takes ~10% of the crawl against the prototype's ~8%.
    "crawl_remote": Workload(
        worlds.WorldSpec(
            entities=200, facts_per_entity=6, branching=6, runs=3,
            drop_share=0.15, link_share=0.3, malformed_subjects=4, literal_pool=100,
        ),
        stages=("crawl",),
        remote=True,
    ),
    "compare_large": Workload(
        worlds.WorldSpec(
            entities=430, facts_per_entity=6, branching=8, runs=3,
            drop_share=0.12, link_share=0.3,
        ),
        stages=STAGES,
        categories=tuple(StructuralCategory),
        buckets=True,
    ),
    "ensemble_wide": Workload(
        worlds.WorldSpec(
            entities=620, facts_per_entity=12, branching=8, runs=8,
            drop_share=0.3, link_share=0.3,
        ),
        stages=STAGES,
        categories=(StructuralCategory.PREDICATES, StructuralCategory.CLASSES),
    ),
}
WARMUP = Workload(
    worlds.WorldSpec(entities=60, facts_per_entity=4, branching=4, runs=3, drop_share=0.2, link_share=0.3),
    stages=STAGES,
    categories=tuple(StructuralCategory),
    buckets=True,
)
POPULARITY_SHARE = 0.75


class MockRouter:
    """Serves each run from its own world, chosen by the run's topic."""

    def __init__(self, paths: list[Path]):
        self.gateways = {run_topic(i): MockWorldGateway(p) for i, p in enumerate(paths)}

    def elicit(self, req):
        return self.gateways[req.topic].elicit(req)

    def classify_ner(self, req):
        return self.gateways[req.topic].classify_ner(req)


def run_topic(index: int) -> str:
    return f"benchrun{index}"


class ChatServer:
    """The latency-injecting chat server, in its own process."""

    def __init__(self, world: worlds.World, work: Path):
        config = {
            "worlds": [str(p) for p in world.run_paths],
            "malformed": world.malformed,
            "transient": world.transient,
            "ner_fault_ordinals": list(NER_FAULT_ORDINALS),
            "latency": LATENCY,
        }
        config_path = work / "serve.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "chat_server.py"), str(config_path)],
            stdin=subprocess.PIPE,  # the server exits when this pipe closes
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("chat server did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(self.url + path, data=data, timeout=30) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/_bench/stats")

    def reset(self) -> None:
        self._call("/_bench/reset", b"{}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Bench:
    """One workload's inputs and backend, set up once and run many times."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.server: ChatServer | None = None
        self.router: MockRouter | None = None
        self.calibration_ms: float | None = None  # remote only, see _calibrate

    def setup(self) -> None:
        """World generation, server start, popularity-store seed, warm-up."""
        self.close()
        for stale in ("world", "warmup"):
            shutil.rmtree(self.work / stale, ignore_errors=True)
        share = POPULARITY_SHARE if self.workload.buckets else 0.0
        self.world = worlds.generate(self.workload.spec, self.seed, self.work / "world", share)
        if self.workload.remote:
            self.server = ChatServer(self.world, self.work)
        else:
            self.router = MockRouter(self.world.run_paths)
        self._warm_up()

    def _warm_up(self) -> None:
        warm = worlds.generate(WARMUP.spec, self.seed, self.work / "warmup" / "world", POPULARITY_SHARE)
        run_pipeline(WARMUP, warm, MockRouter(warm.run_paths), self.work / "warmup" / "iter")
        rows = np.random.default_rng(self.seed).random((600, embeddings.EMBED_DIM))
        embeddings.pairwise_cosine_similarity(rows, rows)  # the first large product pays BLAS start-up
        if self.server:
            self.calibration_ms = self._calibrate()

    def _calibrate(self, calls: int = 20) -> float:
        """Client round trip minus injected latency, median over calls in ms.

        Single-phrase NER requests carry no latency tail and no fault.
        """
        gateway = self.remote_gateway(self.work / "warmup")
        req = NerRequest([self.world.seed_entity], run_topic(0))
        self.server.reset()
        client_ms = []
        for _ in range(calls):
            started = time.perf_counter()
            gateway.classify_ner(req)
            client_ms.append((time.perf_counter() - started) * 1000.0)
        injected = self.server.stats()["injected_ms"]["ner"]
        self.server.reset()
        return float(np.median(client_ms) - np.median(injected))

    def remote_gateway(self, run_dir: Path, sleep=time.sleep) -> RemoteChatGateway:
        return RemoteChatGateway(
            BackendDescriptor(kind="remote", endpoint_url=self.server.url),
            api_key="benchmark",
            audit_path=run_dir / "audit.ndjson",
            sleep=sleep,
            backoff_base=BACKOFF_BASE_S,
        )

    def gateway(self, run_dir: Path, sleep=time.sleep):
        """A fresh gateway for one pass; ``sleep`` is the remote retry backoff's."""
        if self.server:
            self.server.reset()
            return self.remote_gateway(run_dir, sleep)
        return self.router

    def close(self) -> None:
        if self.server:
            self.server.close()
            self.server = None


@dataclass
class Outputs:
    """What one pass produced; fields of stages a workload skips stay None."""

    run_dir: Path
    records: list
    loaded: list | None = None
    assignments: list | None = None
    curve: ensemble.SharedTripleCurve | None = None
    k: int | None = None
    kb: model.KnowledgeBase | None = None


def run_pipeline(workload: Workload, world: worlds.World, gateway, run_dir: Path,
                 times: dict | None = None, tracer=None, provider=None) -> Outputs:
    """Run the workload's stages once; their wall times go into ``times``."""
    times = {} if times is None else times

    @contextmanager
    def stage(name: str):
        # Each CLI command runs in a process of its own, so a stage's cyclic
        # garbage collections should walk only its own objects: collect and
        # freeze what earlier stages left before timing this one.
        gc.collect()
        gc.freeze()
        started = time.perf_counter()
        try:
            with tracer.span("stage." + name) if tracer else nullcontext():
                yield
        finally:
            times[name] = time.perf_counter() - started
            gc.unfreeze()

    configs = [
        RunConfig(topic=run_topic(i), seed_entity=world.seed_entity, parallelism=PARALLELISM)
        for i in range(len(world.run_paths))
    ]
    suite_dir = run_dir / "suite"
    with stage("crawl"):
        records = crawler.run_suite(configs, gateway, suite_dir)
    if any(r is None for r in records):
        raise RuntimeError(f"a crawl run failed; see FAILED markers under {suite_dir}")
    out = Outputs(run_dir, records)
    if "io" not in workload.stages:
        return out
    with stage("io"):
        out.loaded = [model.load_run(suite_dir / r.run_id) for r in records]
    with stage("compare"):
        if workload.buckets:
            store = popularity.PopularityStore(world.popularity_path)
            out.assignments = [
                popularity.bucketize(
                    popularity.resolve_many(
                        sorted(metrics.category_elements(r, StructuralCategory.NAMED_ENTITIES)),
                        None, store, offline=True,
                    )
                )
                for r in out.loaded
            ]
        report = metrics.build_stability_report(
            out.loaded, workload.categories,
            provider=provider or embeddings.TrigramHashEmbedder(),
            suite_id="bench", assignments=out.assignments,
        )
        metrics.write_report(report, run_dir / "report")
    with stage("ensemble"):
        out.curve = ensemble.shared_triple_curve(out.loaded)
        out.k = ensemble.elbow_k(out.curve)
        out.kb = ensemble.build_ensemble_kb(out.loaded, out.k)
    with stage("export"):
        export.export_kb(out.kb, run_dir / "export", export.EXPORTERS)
    return out


def operations(workload: Workload, out: Outputs) -> int:
    """Operations of one pipeline pass: each run crawled and loaded, each
    category compared, the ensemble, and each export format."""
    if "io" not in workload.stages:
        return len(out.records)
    return 2 * len(out.records) + len(workload.categories) + 1 + len(export.EXPORTERS)
