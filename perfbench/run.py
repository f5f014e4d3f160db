"""Pipeline benchmark for kbforge: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kbforge checkout; it imports the package from
``src/`` and the independent oracles from ``tests/``, and writes only under
``.bench_work/`` there. It generates the workload's inputs from the seed,
sets up ``SETUP_REPEATS`` times, then repeats the pipeline until
``--seconds`` is spent (at least once), checking the outputs of every
repetition against independent references. ``setup_s`` is the median of the
set-ups, so the first, cold one (BLAS start-up, first calls into each module)
counts only as one sample of five.

With ``--trace 0`` the result holds the end-to-end metrics: stage wall times
are medians over the repetitions. With ``--trace 1`` untraced and traced
repetitions alternate and the result holds the per-layer metrics of the
traced ones, with the tracing overhead. Lines before the last one start with
``#`` and record the machine, the inputs and each repetition.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def info(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value, default=str)}", flush=True)


def unit_of(name: str) -> str:
    if name.startswith("share.") or name.endswith("_share"):
        return "fraction"
    if "bytes" in name:
        return "B"
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS numpy loaded, or None."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                return get, lambda n, put=put: put(ctypes.c_int(n))
    return None


def pin_blas_threads() -> dict:
    """Run OpenBLAS on one thread unless the environment sets a count.

    The library's default, read back from it here, is one thread per CPU.
    On a small shared VM its idle worker threads make each small matrix
    product cost either ~0.05 ms or ~2 ms, chosen per process, which no
    median can steady; one thread keeps small products cheap and large
    ones within 1.5x of the default.
    """
    blas = openblas()
    if blas is None:
        return {"blas_threads_default": None, "blas_threads": None}
    get, put = blas
    default = get()
    if not any(k in os.environ for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        put(1)
    return {"blas_threads_default": default, "blas_threads": get()}


def machine_facts(work: Path, blas_threads: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    with open("/proc/meminfo", encoding="ascii") as handle:
        ram_kb = int(next(line for line in handle if line.startswith("MemTotal")).split()[1])
    mounts = []
    with open("/proc/self/mounts", encoding="utf-8") as handle:
        for line in handle:
            _, point, fstype, *_ = line.split()
            if str(work).startswith(point.rstrip("/") + "/") or point == "/":
                mounts.append((len(point), point, fstype))
    _, point, fstype = max(mounts)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": ram_kb // 1024,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        **blas_threads,
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "work_dir": str(work),
        "work_fs": f"{fstype} at {point}",
        "disk": "writes go to the page cache; disk flush is not measured",
    }


def discard(path: Path) -> None:
    """Delete a pass's outputs while they are young, then commit the journal.

    Files deleted before writeback never reach the disk, and the fsync makes
    the deletions' own file-system work finish before the next timed pass.
    """
    shutil.rmtree(path)
    marker = path.parent / ".committed"
    with marker.open("w") as handle:
        handle.write(path.name)
        handle.flush()
        os.fsync(handle.fileno())


def flush_setup(work: Path) -> None:
    """Keep set-up's writes out of the timed passes: delete the warm-up's
    outputs young and write the world files back now."""
    discard(work / "warmup")
    for path in (work / "world").rglob("*"):
        if path.is_file():
            with path.open("rb") as handle:
                os.fsync(handle.fileno())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Run the clean-up in ``finally`` blocks, stopping the chat server, when terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "kbforge" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print("error: run from a kbforge checkout; src/kbforge and tests/ are missing", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import checks
    import pipeline
    import trace
    from kbforge.embeddings import TrigramHashEmbedder

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    # Offline popularity lookups log one warning per uncached label and the
    # crawler one per malformed subject; keep those stderr writes out of the timings.
    logging.getLogger("kbforge").setLevel(logging.ERROR)
    workload = pipeline.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    info("machine", machine_facts(work, blas_threads))

    bench = pipeline.Bench(workload, args.seed, work)
    setup_s, untraced, traced, layer_samples, digests, failures = [], [], [], [], set(), []
    attempted = 0
    try:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            bench.setup()
            setup_s.append(time.perf_counter() - started)
            flush_setup(work)
        info("setup_s", setup_s)
        if bench.calibration_ms is not None:
            info("server.overhead_ms (setup calibration)", bench.calibration_ms)
        loop_started = time.perf_counter()
        while True:
            tracing = args.trace == 1 and len(untraced) > len(traced)
            index = len(untraced) + len(traced)
            run_dir = work / f"pass-{index}"
            times: dict = {}
            random.seed(args.seed)  # retry backoff jitter
            if tracing:
                tracer = trace.Tracer()
                gateway = bench.gateway(run_dir, sleep=trace.traced_sleep(tracer))
                with trace.patched(tracer):
                    out = pipeline.run_pipeline(
                        workload, bench.world, trace.TracedGateway(gateway, tracer), run_dir, times,
                        tracer=tracer, provider=trace.TracedProvider(TrigramHashEmbedder(), tracer),
                    )
                tracer.write(work / f"spans-{len(traced)}.json")
            else:
                out = pipeline.run_pipeline(workload, bench.world, bench.gateway(run_dir), run_dir, times)
            times["pipeline"] = sum(times.values())
            (traced if tracing else untraced).append(times)
            info(f"{'traced' if tracing else 'untraced'} pass", times)
            attempted += pipeline.operations(workload, out)

            # Checks, outside the timings, on every pass's outputs.
            try:
                if bench.server:
                    faults = checks.remote_faults(bench, out, bench.server.stats())
                    info("crawl operations", {**faults, "failed_share": faults["failed"] / faults["attempted"]})
                checks.check_all(bench, out)
                if (run_dir / "export").is_dir():
                    digests.add(checks.export_digest(run_dir / "export"))
            except checks.CheckError as exc:
                failures.append(f"pass {index}: {exc}")
            if tracing:
                untraced_s = statistics.median(t["pipeline"] for t in untraced)
                layer_samples.append(trace.layer_metrics(tracer.spans, bench, out, times["pipeline"], untraced_s))
            discard(run_dir)

            elapsed = time.perf_counter() - loop_started
            per_pass = elapsed / (index + 1)
            enough = args.trace == 0 or traced
            if enough and elapsed + per_pass > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        info("world", {
            "triples_per_run": [len(r.kb) for r in out.records],
            "layers_per_run": [r.deepest_layer + 1 for r in out.records],
            "elbow_k": out.k,
            "ensemble_triples": len(out.kb) if out.kb else None,
        })
        if len(digests) > 1:
            failures.append(f"exports differ between passes: {len(digests)} digests")
        correct = not failures
        info("checks", failures or "pass")
    finally:
        bench.close()

    if args.trace == 0:
        values = {
            "pipeline_s": statistics.median(t["pipeline"] for t in untraced),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        values = {name: statistics.median(sample[name] for sample in layer_samples) for name in layer_samples[0]}
        for stage in pipeline.STAGES:
            values[f"stage.{stage}_s"] = statistics.median(t.get(stage, 0.0) for t in untraced)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(values.items())},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
