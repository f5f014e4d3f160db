"""The benchmark's hooks into kbforge: the functions its trace mode wraps by
name must exist, and its remote and mock set-ups must still drive checked passes."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

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


# The benchmark's calibration (perfbench/pipeline.Bench._calibrate) never
# closes its RemoteChatGateway, so the gateway's keep-alive socket is found
# unclosed at garbage collection (a FOUND: line in CHANGES.md). Closing it is
# a benchmark change; until then only this test lets that warning through.
@pytest.mark.filterwarnings("default::pytest.PytestUnraisableExceptionWarning")
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


def test_mock_benchmark_pass_meets_its_checks(tmp_path, monkeypatch):
    """One full pass of the warm-up workload on the mock backend: the report
    matches independent references within 1e-12, and the ensemble and the
    export bytes hold."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import pipeline

    bench = pipeline.Bench(pipeline.WARMUP, seed=7, work=tmp_path)
    try:
        bench.setup()
        run_dir = tmp_path / "pass-0"
        out = pipeline.run_pipeline(pipeline.WARMUP, bench.world, bench.gateway(run_dir), run_dir)
        checks.check_all(bench, out)
    finally:
        bench.close()
    assert out.loaded and out.kb is not None
