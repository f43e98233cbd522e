"""The traced benchmark wraps public functions by module attribute; a rename
must fail here rather than only when the benchmark runs with tracing."""

from __future__ import annotations

import importlib
import importlib.util
import sys

from conftest import FIXTURES

BENCH_TRACE = FIXTURES.parent / "perfbench" / "bench_trace.py"


def test_every_trace_target_is_a_callable_attribute(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_trace_targets", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_trace)  # its dataclasses look it up
    spec.loader.exec_module(bench_trace)
    assert bench_trace.TARGETS
    for module, attr, span in bench_trace.TARGETS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr} ({span})"
