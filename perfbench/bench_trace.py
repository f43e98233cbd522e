"""Span tracing of copyprop's public functions for the traced benchmark run.

Each function is replaced at the module attribute its callers look up (for
example `copyprop.cli.run_acs`), so the program itself is not edited and
every replacement is undone when tracing ends. A span records name, start,
end, parent span and op id; spans live in flat arrays until written out.
Self time is a span's duration minus the durations of its direct children,
less the tracer's own work inside it, which is measured on an empty function
when the tracer is made (see Overhead). That work is kept apart, so self
times and overhead of all spans of an op add up to the op's root span.
"""

from __future__ import annotations

import gzip
import importlib
import math
import statistics
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

# (module whose attribute is replaced, attribute, span name "<layer>.<function>")
TARGETS = (
    ("copyprop.cli", "main", "cli.main"),
    ("copyprop.cli", "parse_program", "ir.parse_program"),
    ("copyprop.cli", "print_program", "ir.print_program"),
    ("copyprop.cli", "run_acs", "analysis.run_acs"),
    ("copyprop.oracle", "run_acs", "analysis.run_acs"),
    ("copyprop.propagate", "run_acs", "analysis.run_acs"),
    ("copyprop.classic", "run_acs", "analysis.run_acs"),
    ("copyprop.analysis", "solve_forward", "dataflow.solve_forward"),
    ("copyprop.analysis", "transfer", "analysis.transfer"),
    ("copyprop.oracle", "transfer", "analysis.transfer"),
    ("copyprop.cli", "transform", "propagate.transform"),
    ("copyprop.oracle", "transform", "propagate.transform"),
    ("copyprop.propagate", "transform", "propagate.transform"),
    ("copyprop.cli", "transform_to_fixpoint", "propagate.transform_to_fixpoint"),
    ("copyprop.oracle", "transform_to_fixpoint", "propagate.transform_to_fixpoint"),
    ("copyprop.cli", "classic_transform", "classic.classic_transform"),
    ("copyprop.classic", "reaching_definitions", "classic.reaching_definitions"),
    ("copyprop.cli", "differential_check", "oracle.differential_check"),
    ("copyprop.cli", "solve_round_robin", "oracle.solve_round_robin"),
    ("copyprop.cli", "mop_in", "oracle.mop_in"),
    ("copyprop.oracle", "enumerate_paths", "oracle.enumerate_paths"),
    ("copyprop.oracle", "interpret", "oracle.interpret"),
    ("copyprop.oracle", "fact_soundness_violation", "oracle.fact_soundness_violation"),
)
OP_SPAN = "bench.op"
OBSERVE_SPAN = "trace.observe"
CALIBRATION_CALLS = 4000
CALIBRATION_REPEATS = 5

Observer = Callable[["Tracer", tuple, dict, object], None]


def _observe_solve(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    c = tracer.counts
    c["dataflow.solves"] += 1
    c["dataflow.visits"] += result.iterations
    for label in result.reachable:
        facts = result.in_sets[label]
        if not facts.is_top:
            size = len(facts)
            c["in_size_sum"] += size
            c["in_size_n"] += 1
            c["dataflow.in_size_max"] = max(c["dataflow.in_size_max"], size)


def _observe_transform(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    from copyprop.ir import Var, uses  # the set-up re-imports the package

    prog, analysis = args
    c = tracer.counts
    for rep in result[1].replacements:
        c["propagate.replacements"] += 1
        c["chain_len_sum"] += rep.chain_length
        c["propagate.chain_len_max"] = max(c["propagate.chain_len_max"], rep.chain_length)
    for label in analysis.reachable:
        c["propagate.use_slots"] += sum(isinstance(op, Var) for op in uses(prog.blocks[label].stmt))


def _observe_fixpoint(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.counts["fixpoint_calls"] += 1
    tracer.counts["fixpoint_rounds_sum"] += result[1].pass_count


def _observe_classic(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.counts["classic.replacements"] += len(result[1].replacements)


def _observe_interpret(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.counts["oracle.steps"] += len(result.labels)
    tracer.counts["fuel_exhausted"] += result.status == "fuel-exhausted"


def _observe_round_robin(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.counts["oracle.round_robin_sweeps"] += result.iterations


def _observe_paths(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.counts["oracle.mop_paths"] += len(result)


def _observe_parse(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.counts["ir.parsed_blocks"] += len(result.blocks)


OBSERVERS: dict[str, Observer] = {
    "dataflow.solve_forward": _observe_solve,
    "propagate.transform": _observe_transform,
    "propagate.transform_to_fixpoint": _observe_fixpoint,
    "classic.classic_transform": _observe_classic,
    "oracle.interpret": _observe_interpret,
    "oracle.solve_round_robin": _observe_round_robin,
    "oracle.enumerate_paths": _observe_paths,
    "ir.parse_program": _observe_parse,
}


@dataclass(frozen=True)
class Overhead:
    """Seconds of tracer work per event, which would not run untraced.

    inside: within a traced call's own span; outside: within its caller's
    span, beyond the cost of an untraced call; hook: one call of the OUT
    change counter that the solver calls.
    """

    inside: float
    outside: float
    hook: float


def _noop(*args, **kwargs) -> None:
    return None


def calibrate() -> Overhead:
    """Overhead per event: medians over repeats of timed calls of an empty function."""
    inside, outside, hook = [], [], []
    n = CALIBRATION_CALLS
    for _ in range(CALIBRATION_REPEATS):
        tracer = Tracer(Overhead(0.0, 0.0, 0.0))
        traced = tracer.wrap(_noop, "calibrate")
        t0 = perf_counter()
        for _ in range(n):
            pass
        empty = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(n):
            _noop(1, 2)
        plain = perf_counter() - t0
        with tracer.op_span(0):
            for _ in range(n):
                traced(1, 2)
        with tracer.op_span(1):
            on_update = tracer._change_hook(None)
            t0 = perf_counter()
            for _ in range(n):
                on_update(0, None, None)
            hooked = perf_counter() - t0
        # spans: 0 is the root of the traced calls, 1..n the calls themselves
        children = sum(e - s for s, e in zip(tracer.start[1 : n + 1], tracer.end[1 : n + 1]))
        inside.append((children - (plain - empty)) / n)
        outside.append((tracer.end[0] - tracer.start[0] - children - empty) / n)
        hook.append((hooked - empty) / n)
    return Overhead(*(max(statistics.median(v), 0.0) for v in (inside, outside, hook)))


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, overhead: Overhead | None = None) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        # OUT changes counted by the solver hook, by the solve span they fall in
        self.out_changes: defaultdict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id = -1
        self._observe_id = self._name_id(OBSERVE_SPAN)
        self.overhead = calibrate() if overhead is None else overhead

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        observe = OBSERVERS.get(name)
        if name == "dataflow.solve_forward":
            fn = self._count_out_changes(fn)

        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                oid = self._open(self._observe_id)
                try:
                    observe(self, args, kwargs, result)
                finally:
                    self._close(oid)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_out_changes(self, solve_forward: Callable) -> Callable:
        """Count OUT changes through the solver's public on_update hook."""

        def solve(prog, transfer, **kwargs):
            kwargs["on_update"] = self._change_hook(kwargs.get("on_update"))
            return solve_forward(prog, transfer, **kwargs)

        return solve

    def _change_hook(self, caller_hook: Callable | None) -> Callable:
        changes, stack = self.out_changes, self._stack

        def on_update(label, old, new):
            changes[stack[-1]] += 1
            if caller_hook is not None:
                caller_hook(label, old, new)

        return on_update

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Swap every target for its traced wrapper; always swap back."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if hasattr(original, "__wrapped__"):
                    raise RuntimeError(f"{module_name}.{attr} is already wrapped")
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def op_span(self, op_id: int) -> Iterator[None]:
        self._op_id = op_id
        sid = self._open(self._name_id(OP_SPAN))
        try:
            yield
        finally:
            self._close(sid)
            self._op_id = -1

    def self_times(self) -> tuple[list[float], list[float]]:
        """(self time, tracer overhead) per span.

        A span's duration less its direct children's holds, besides its own
        work, the tracer's: `inside` for the span itself (not for an op's
        root), `outside` per direct child and `hook` per OUT change counted in
        it. That is moved to the overhead, but never more than the span has.
        """
        durations = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(durations)
        children = [0] * len(durations)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += durations[sid]
                children[parent] += 1
        o = self.overhead
        selfs, overhead = [], []
        for sid, parent in enumerate(self.parent):
            raw = durations[sid] - covered[sid]
            cost = (parent >= 0) * o.inside + children[sid] * o.outside + self.out_changes.get(sid, 0) * o.hook
            cost = min(cost, max(raw, 0.0))
            selfs.append(raw - cost)
            overhead.append(cost)
        return selfs, overhead

    def write(self, path: Path, pass_id: int, mode: str = "wt") -> None:
        with gzip.open(path, mode) as out:
            if mode.startswith("w"):
                out.write("pass\tid\tparent\top\tname\tstart\tend\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{pass_id}\t{sid}\t{self.parent[sid]}\t{self.op[sid]}\t{self.names[self.name[sid]]}"
                    f"\t{self.start[sid]!r}\t{self.end[sid]!r}\n"
                )


def _slope(points: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median time) against log(size)."""
    xs, ys = [], []
    for size, times in points.items():
        t = statistics.median(times)
        if t > 0:
            xs.append(math.log(size))
            ys.append(math.log(t))
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, op_sizes: list[int]) -> dict[str, float]:
    """Per-layer numbers of one traced pass; times are seconds per pass.

    `op_sizes[i]` is the input size of op i, for the log-log scaling fits.
    Interpreter runs made by the fact replay count as fact replay, not as
    `oracle.interpret_s`; every other time is the self time of one function.
    """
    selfs, overhead = tracer.self_times()
    by_name: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    solve_per_op = defaultdict(float)
    rewrite_per_op = defaultdict(float)
    replay = tracer._name_ids.get("oracle.fact_soundness_violation", -1)
    interpret_all = 0.0
    for sid, self_s in enumerate(selfs):
        name = tracer.names[tracer.name[sid]]
        calls[name] += 1
        if name == "oracle.interpret":
            interpret_all += self_s
            parent = tracer.parent[sid]
            if parent >= 0 and tracer.name[parent] == replay:
                name = "oracle.fact_soundness_violation"
        by_name[name] += self_s
        if name == "dataflow.solve_forward":
            solve_per_op[tracer.op[sid]] += self_s
        elif name.startswith("propagate."):
            rewrite_per_op[tracer.op[sid]] += self_s

    def per_size(per_op: dict[int, float]) -> dict[int, list[float]]:
        points: defaultdict[int, list[float]] = defaultdict(list)
        for op_id, size in enumerate(op_sizes):
            points[size].append(per_op.get(op_id, 0.0))
        return points

    c = tracer.counts
    op_time = sum(e - s for n, s, e in zip(tracer.name, tracer.start, tracer.end) if tracer.names[n] == OP_SPAN)
    outside_layers = by_name[OP_SPAN] + by_name["cli.main"] + by_name[OBSERVE_SPAN]
    visits = c["dataflow.visits"]
    out_changes = sum(tracer.out_changes.values())
    steps = c["oracle.steps"]
    return {
        "dataflow.solve_s": by_name["dataflow.solve_forward"],
        "dataflow.solves": c["dataflow.solves"],
        "dataflow.visits": visits,
        "dataflow.out_changes": out_changes,
        "dataflow.useful_visit_ratio": _ratio(out_changes, visits),
        "dataflow.in_size_max": c["dataflow.in_size_max"],
        "dataflow.in_size_mean": _ratio(c["in_size_sum"], c["in_size_n"]),
        "dataflow.scaling_exp": _slope(per_size(solve_per_op)),
        "analysis.transfer_s": by_name["analysis.transfer"],
        "analysis.transfer_calls": calls["analysis.transfer"],
        "analysis.run_acs_s": by_name["analysis.run_acs"],
        "propagate.transform_s": by_name["propagate.transform"] + by_name["propagate.transform_to_fixpoint"],
        "propagate.replacements": c["propagate.replacements"],
        "propagate.use_slots": c["propagate.use_slots"],
        "propagate.rewrite_ratio": _ratio(c["propagate.replacements"], c["propagate.use_slots"]),
        "propagate.chain_len_mean": _ratio(c["chain_len_sum"], c["propagate.replacements"]),
        "propagate.chain_len_max": c["propagate.chain_len_max"],
        "propagate.fixpoint_rounds": _ratio(c["fixpoint_rounds_sum"], c["fixpoint_calls"]),
        "propagate.scaling_exp": _slope(per_size(rewrite_per_op)),
        "classic.reaching_defs_s": by_name["classic.reaching_definitions"],
        "classic.transform_s": by_name["classic.classic_transform"],
        "classic.replacements": c["classic.replacements"],
        "oracle.interpret_s": by_name["oracle.interpret"],
        "oracle.interpret_calls": calls["oracle.interpret"],
        "oracle.steps": steps,
        "oracle.steps_per_s": _ratio(steps, interpret_all),
        "oracle.fuel_exhausted_ratio": _ratio(c["fuel_exhausted"], calls["oracle.interpret"]),
        "oracle.fact_replay_s": by_name["oracle.fact_soundness_violation"],
        "oracle.differential_s": by_name["oracle.differential_check"],
        "oracle.round_robin_s": by_name["oracle.solve_round_robin"],
        "oracle.round_robin_sweeps": c["oracle.round_robin_sweeps"],
        "oracle.mop_s": by_name["oracle.mop_in"] + by_name["oracle.enumerate_paths"],
        "oracle.mop_paths": c["oracle.mop_paths"],
        "ir.parse_s": by_name["ir.parse_program"],
        "ir.parse_blocks_per_s": _ratio(c["ir.parsed_blocks"], by_name["ir.parse_program"]),
        "ir.print_s": by_name["ir.print_program"],
        "cli.self_s": by_name["cli.main"],
        "trace.layer_share": _ratio(sum(by_name.values()) - outside_layers, op_time),
        "trace.overhead_s": sum(overhead),
        "trace.self_sum_s": sum(selfs) + sum(overhead),
        "trace.op_s": op_time,
    }
