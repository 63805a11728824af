import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_resolve_to_callables(monkeypatch):
    # the tracer wraps only the targets that exist, so a renamed library
    # function would read 0 in every per-layer report instead of failing
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.MODULE_TARGETS
               if not callable(getattr(module, attr, None))]
    assert tracing.MODULE_TARGETS and missing == []
