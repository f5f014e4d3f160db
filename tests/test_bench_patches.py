"""The benchmark's hooks into kbforge: the functions its trace mode wraps by
name must exist, and its remote set-up must still drive a checked crawl."""

import dataclasses
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # Loaded under its own name: "trace" alone would find the standard library's module.
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.PATCHES
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in trace.PATCHES if not hasattr(module, attr)]
    assert missing == []


def test_remote_benchmark_pass_meets_its_checks(tmp_path, monkeypatch):
    """One crawl_remote-shaped pass, at the warm-up's size, against the
    benchmark's chat server: the fault accounting and the crawl checks hold."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import pipeline

    spec = dataclasses.replace(pipeline.WARMUP.spec, malformed_subjects=2, literal_pool=20)
    workload = pipeline.Workload(spec, stages=("crawl",), remote=True)
    bench = pipeline.Bench(workload, seed=7, work=tmp_path)
    try:
        bench.setup()
        run_dir = tmp_path / "pass-0"
        out = pipeline.run_pipeline(workload, bench.world, bench.gateway(run_dir), run_dir)
        faults = checks.remote_faults(bench, out, bench.server.stats())
        checks.check_crawl(bench, out)
    finally:
        bench.close()
    assert faults["failed"] == 2 * spec.runs
