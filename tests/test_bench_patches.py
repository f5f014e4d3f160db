"""The benchmark's trace mode wraps kbforge functions by name; every name must exist."""

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
