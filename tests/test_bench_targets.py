"""The traced benchmark wraps public functions by module attribute; a rename
must fail here rather than only when the benchmark runs with tracing."""

from __future__ import annotations

import importlib
import importlib.util
import sys

import pytest

from copyprop import run_acs, transform, used_vars
from conftest import FIXTURES

BENCH_TRACE = FIXTURES.parent / "perfbench" / "bench_trace.py"


@pytest.fixture
def bench_trace(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_trace_targets", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_callable_attribute(bench_trace):
    assert bench_trace.TARGETS
    for module, attr, span in bench_trace.TARGETS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr} ({span})"


def test_trace_counts_every_variable_use_slot(bench_trace, fig1):
    """The trace counts use slots by operand type; an operand encoding it
    does not recognise would read zero without failing the benchmark."""
    analysis = run_acs(fig1)
    tracer = bench_trace.Tracer(bench_trace.Overhead(0, 0, 0))
    bench_trace._observe_transform(tracer, (fig1, analysis), {}, transform(fig1, analysis))
    expected = sum(len(used_vars(fig1.blocks[label].stmt)) for label in analysis.in_sets)
    assert expected > 0
    assert tracer.counts["propagate.use_slots"] == expected
