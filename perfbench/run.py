"""copyprop benchmark: one workload per run, one client in a closed loop.

    python3 perfbench/run.py --workload {chain,loopy,fuzz} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from `./src`. Every op
is a real CLI call, `copyprop.cli.main(argv)` made in process with stdout
captured, on `.tac` files generated from the seed, and the next op starts
when the last one returns. Outputs are checked after the timed section and
failures are counted, not raised.

--trace 0 times the loop for S seconds, and at least for the workload's
fixed number of whole input cycles, and reports the end-to-end metrics, with
times given at reference speed (see HostSpeed) and raw wall-clock figures
printed beside them.
--trace 1 alternates an untraced and a traced pass over all the inputs (up
to three pairs, at least one) and reports per-layer metrics as
medians over the traced passes; spans are written to perfbench/.work/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Timers are time.perf_counter and memory is
resource.getrusage; no hardware counters or machine-wide tracing are used.

    python3 perfbench/run.py --write-digests
rewrites perfbench/digests.json, the loopy stdout digests on the recorded
seed; chain and fuzz outputs are checked against their exact expected text.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from bench_check import check_chain, check_check, check_compare, check_transform, reference
from bench_inputs import chain_inputs, fuzz_inputs, loopy_inputs, warmup_input
from bench_trace import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
DIGESTS = BENCH_DIR / "digests.json"
RECORDED_SEED = 0
RUN_SECONDS = 30.0
SETUP_REPEATS = 5
TRACE_PAIRS = 3
# speed at which timed figures are reported: the reference takes this long
REFERENCE_S = 0.001
REFERENCE_EVERY_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "blocks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dataflow.solve_s": "s",
    "dataflow.solves": "count",
    "dataflow.visits": "count",
    "dataflow.out_changes": "count",
    "dataflow.useful_visit_ratio": "ratio",
    "dataflow.in_size_max": "pairs",
    "dataflow.in_size_mean": "pairs",
    "dataflow.scaling_exp": "exponent",
    "analysis.transfer_s": "s",
    "analysis.transfer_calls": "count",
    "analysis.run_acs_s": "s",
    "propagate.transform_s": "s",
    "propagate.replacements": "count",
    "propagate.use_slots": "count",
    "propagate.rewrite_ratio": "ratio",
    "propagate.chain_len_mean": "pairs",
    "propagate.chain_len_max": "pairs",
    "propagate.fixpoint_rounds": "rounds",
    "propagate.scaling_exp": "exponent",
    "classic.reaching_defs_s": "s",
    "classic.transform_s": "s",
    "classic.replacements": "count",
    "oracle.interpret_s": "s",
    "oracle.interpret_calls": "count",
    "oracle.steps": "count",
    "oracle.steps_per_s": "1/s",
    "oracle.fuel_exhausted_ratio": "ratio",
    "oracle.fact_replay_s": "s",
    "oracle.differential_s": "s",
    "oracle.round_robin_s": "s",
    "oracle.round_robin_sweeps": "count",
    "oracle.mop_s": "s",
    "oracle.mop_paths": "count",
    "oracle.mop_checked": "count",
    "ir.parse_s": "s",
    "ir.parse_blocks_per_s": "1/s",
    "ir.print_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.ops": "count",
    "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
}


@dataclass
class Call:
    kind: str
    rc: int | str
    stdout: str
    seconds: float


@dataclass
class Op:
    input: int
    calls: list[Call]
    seconds: float
    start: float


@dataclass(frozen=True)
class Workload:
    make: Callable[[int], list]
    # (kind, argv) per CLI call of one op on the input written at path
    calls: Callable[[object, str], list[tuple[str, list[str]]]]
    # input indices of the timed loop, repeated until time is up
    cycle: Callable[[list], list[int]]
    # whole cycles every timed run makes; the timed figures are taken over
    # exactly these, so their sample is the same whatever the speed
    cycles: int


def _chain_cycle(inputs: list) -> list[int]:
    # Two 400-copy chains, sixteen 200s and eight 100s per cycle, so the
    # median sits well inside the 200s.
    index = {inp.name: i for i, inp in enumerate(inputs)}
    cycle = []
    for root, other in (("v", "c"), ("c", "v")):
        cycle.append(index[f"chain400{root}"])
        for j in range(4):
            a, b = (root, other) if j % 2 == 0 else (other, root)
            cycle += [index[f"chain200{a}"], index[f"chain100{a}"], index[f"chain200{b}"]]
    return cycle


def _workloads() -> dict[str, Workload]:
    return {
        "chain": Workload(
            chain_inputs,
            lambda inp, path: [("transform", ["transform", path, "--report"])],
            _chain_cycle,
            cycles=2,
        ),
        "loopy": Workload(
            loopy_inputs,
            lambda inp, path: [
                ("transform", ["transform", path, "--iterate", "10", "--report"]),
                ("compare", ["compare", path]),
            ],
            lambda inputs: list(range(len(inputs))),
            cycles=2,
        ),
        "fuzz": Workload(
            fuzz_inputs,
            lambda inp, path: [
                ("check", ["check", path, "--inputs", "5", "--acyclic-mop", "--seed", str(inp.check_seed)])
            ],
            lambda inputs: list(range(len(inputs))),
            cycles=1,
        ),
    }


def run_call(cli, kind: str, argv: list[str]) -> Call:
    out = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = f"exit {exc.code}"
        except Exception as exc:  # counted as a failed op; the loop goes on
            rc = f"{type(exc).__name__}: {exc}"
    return Call(kind, rc, out.getvalue(), perf_counter() - t0)


def run_op(cli, workload: Workload, inputs: list, paths: list[str], index: int) -> Op:
    t0 = perf_counter()
    calls = [run_call(cli, kind, argv) for kind, argv in workload.calls(inputs[index], paths[index])]
    return Op(index, calls, perf_counter() - t0, t0)


def load_cli():
    """Import copyprop.cli afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "copyprop" or m.startswith("copyprop.")]:
        del sys.modules[name]
    return importlib.import_module("copyprop.cli")


def setup(workload: Workload, seed: int, run_dir: Path):
    """Import, generate and write the inputs, warm up; returns (cli, inputs, paths, seconds).

    The warm-up runs the workload's op once on a small program that is not
    one of the measured inputs.
    """
    t0 = perf_counter()
    cli = load_cli()
    inputs = workload.make(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for inp in inputs:
        path = run_dir / f"{inp.name}.tac"
        path.write_text(inp.text)
        paths.append(str(path))
    warmup = warmup_input(seed)
    path = run_dir / f"{warmup.name}.tac"
    path.write_text(warmup.text)
    run_op(cli, workload, [warmup], [str(path)], 0)
    return cli, inputs, paths, perf_counter() - t0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def gate(name: str, inputs: list, ops: list[Op], seed: int) -> tuple[int, list[str]]:
    """(failed op count, reasons) under every check for the workload."""
    checks = {
        ("chain", "transform"): check_chain,
        ("loopy", "transform"): check_transform,
        ("loopy", "compare"): check_compare,
        ("fuzz", "check"): check_check,
    }
    # only loopy outputs have no exact expected text to compare with
    recorded = json.loads(DIGESTS.read_text()) if name == "loopy" and seed == RECORDED_SEED else None
    verdicts: dict[tuple[int, str], str | None] = {}
    first: dict[tuple[int, str], str] = {}
    failed, reasons = 0, []
    for op in ops:
        bad = []
        for call in op.calls:
            key = (op.input, call.kind)
            inp = inputs[op.input]
            if call.rc != 0:
                bad.append(f"{inp.name} {call.kind}: exit {call.rc}")
                continue
            if key not in verdicts:
                first[key] = call.stdout
                verdicts[key] = checks[(name, call.kind)](inp, call.stdout)
                if verdicts[key] is None and recorded is not None:
                    if recorded.get(f"{inp.name}/{call.kind}") != digest(call.stdout):
                        verdicts[key] = f"{inp.name} {call.kind}: stdout digest differs from recorded seed"
            if verdicts[key] is not None:
                bad.append(verdicts[key])
            elif call.stdout != first[key]:
                bad.append(f"{inp.name} {call.kind}: stdout differs between repeats")
        if bad:
            failed += 1
            reasons.extend(bad)
    return failed, sorted(set(reasons))


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    Below 21 samples that percentile would sit under the median, so the
    median is reported instead and its percentile says so. The caller keeps
    the sample's size and makeup fixed (see timed_metrics).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class HostSpeed:
    """Times of the reference computation, taken between ops.

    The host's speed swings by up to ~1.8x, in phases from a fraction of a
    second to over a minute, and moves the fixed reference with it. Dividing
    a span by the reference times around it gives the span at reference speed:
    the speed at which the reference takes exactly REFERENCE_S.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference()
        self.at.append(t0)
        self.seconds.append(perf_counter() - t0)

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= REFERENCE_EVERY_S

    def normalize(self, start: float, seconds: float) -> float:
        """seconds of a span that began at start, at reference speed."""
        # one more sample on each side, so that a single interrupted sample
        # cannot set the speed of its neighbours
        first = max(bisect.bisect_right(self.at, start) - 2, 0)
        last = bisect.bisect_left(self.at, start + seconds) + 1
        return seconds * REFERENCE_S / statistics.median(self.seconds[first : last + 1])


def timed_loop(workload: Workload, seed: int, run_dir: Path, seconds: float):
    """Closed loop over the cycle; returns (inputs, ops, wall, set-up times, host, measured op count).

    The loop runs for `seconds` and at least until the workload's `cycles`
    whole cycles are done. The reference runs before any op that starts
    REFERENCE_EVERY_S after the last sample. The set-up is repeated at evenly
    spaced points of the loop, outside the measured time, and each repeat is
    normalized like an op.
    """
    host = HostSpeed()

    def timed_setup():
        host.sample()
        t0 = perf_counter()
        result = setup(workload, seed, run_dir)
        host.sample()
        return result[:3] + (host.normalize(t0, result[3]),)

    cli, inputs, paths, first = timed_setup()
    setup_times = [first]
    cycle = workload.cycle(inputs)
    measured = workload.cycles * len(cycle)
    ops: list[Op] = []
    t_start = perf_counter()
    deadline = t_start + seconds
    paused = 0.0
    while len(ops) < measured or perf_counter() < deadline:
        elapsed = perf_counter() - t_start - paused
        if len(setup_times) < SETUP_REPEATS and elapsed >= seconds * len(setup_times) / SETUP_REPEATS:
            t0 = perf_counter()
            cli, _, _, normalized = timed_setup()
            setup_times.append(normalized)
            paused += perf_counter() - t0
            deadline += perf_counter() - t0
        if host.due():
            host.sample()
        ops.append(run_op(cli, workload, inputs, paths, cycle[len(ops) % len(cycle)]))
    host.sample()
    return inputs, ops, perf_counter() - t_start - paused, setup_times, host, measured


def timed_metrics(
    inputs: list, ops: list[Op], wall: float, host: HostSpeed, measured: int
) -> tuple[dict, list[str]]:
    """End-to-end figures at reference speed.

    The figures are taken over the first `measured` ops, a fixed number of
    whole cycles: a faster program fits more ops into the run, but the sample
    keeps its size and its mix of inputs. Each op counts with the median over
    all its input's visits of the op's time at reference speed (the cycle
    spreads the visits over the run), which damps the error of the speed
    estimate on long ops. Single visits are too noisy on a shared host for a
    bounded metric, so their tail is printed only.
    """
    visits: dict[tuple[int, str | None], list[float]] = {}
    for op in ops:
        visits.setdefault((op.input, None), []).append(host.normalize(op.start, op.seconds))
        start = op.start
        for call in op.calls:
            visits.setdefault((op.input, call.kind), []).append(host.normalize(start, call.seconds))
            start += call.seconds
    typical = {key: statistics.median(times) for key, times in visits.items()}
    sample = ops[:measured]
    op_ms = [typical[(op.input, None)] * 1e3 for op in sample]
    value, pct = tail(op_ms)
    visit_value, visit_pct = tail([host.normalize(op.start, op.seconds) * 1e3 for op in sample])
    blocks = sum(inputs[op.input].blocks * len(op.calls) for op in sample)
    busy = sum(op_ms) / 1e3
    counts = [len(times) for (_, kind), times in visits.items() if kind is None]
    metrics = {
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.tail": value,
        "blocks_per_s": blocks / busy,
    }
    n = (
        f"n={len(sample)} ops of the first whole cycles, {len(ops)} run; "
        f"{len(counts)} inputs, {min(counts)}-{max(counts)} visits each"
    )
    all_blocks = sum(inputs[op.input].blocks * len(op.calls) for op in ops)
    ref_ms = [t * 1e3 for t in host.seconds]
    lines = [
        f"op_ms.p50 = {metrics['op_ms.p50']:.3f} ms ({n})",
        f"op_ms.tail = {value:.3f} ms (p{pct:.2f}, {n})",
        f"single-visit op tail = {visit_value:.3f} ms (p{visit_pct:.2f}, {n})",
        f"blocks_per_s = {metrics['blocks_per_s']:.1f} 1/s ({blocks} blocks in {busy:.3f} s at reference speed)",
        f"raw wall clock: op p50 {statistics.median(op.seconds for op in ops) * 1e3:.3f} ms, "
        f"{all_blocks / wall:.1f} blocks per second over {wall:.3f} s, all ops",
        f"reference: {len(ref_ms)} samples, median {statistics.median(ref_ms):.4f} ms, "
        f"range {min(ref_ms):.4f}-{max(ref_ms):.4f} ms; figures above are at {REFERENCE_S * 1e3:g} ms",
    ]
    for kind in dict.fromkeys(call.kind for op in sample for call in op.calls):
        ms = [typical[(op.input, kind)] * 1e3 for op in sample for call in op.calls if call.kind == kind]
        k_value, k_pct = tail(ms)
        lines.append(f"{kind}_ms.p50 = {statistics.median(ms):.3f} ms (n={len(ms)})")
        lines.append(f"{kind}_ms.tail = {k_value:.3f} ms (p{k_pct:.2f}, n={len(ms)})")
    return metrics, lines


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "copyprop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def trace_run(cli, name: str, workload: Workload, inputs: list, paths: list[str], seconds: float, seed: int):
    """Untraced/traced pass pairs; per-layer medians over the traced passes."""
    sizes = [inp.size for inp in inputs]
    ops: list[Op] = []
    per_pass: list[dict] = []
    tracers = []
    t_start = perf_counter()
    while len(per_pass) < TRACE_PAIRS and (not per_pass or perf_counter() - t_start < seconds):
        t0 = perf_counter()
        ops += [run_op(cli, workload, inputs, paths, i) for i in range(len(inputs))]
        untraced = perf_counter() - t0
        tracer = Tracer()
        traced_ops = []
        with tracer.installed():
            t0 = perf_counter()
            for i in range(len(inputs)):
                with tracer.op_span(i):
                    traced_ops.append(run_op(cli, workload, inputs, paths, i))
            traced = perf_counter() - t0
        ops += traced_ops
        tracers.append(tracer)
        metrics = layer_metrics(tracer, sizes)
        calls = [call for op in traced_ops for call in op.calls]
        metrics["oracle.mop_checked"] = sum("mop: PASS" in call.stdout for call in calls)
        metrics["cli.output_bytes"] = sum(len(call.stdout.encode()) for call in calls)
        metrics["cli.ops"] = len(traced_ops)
        metrics["trace.overhead_ratio"] = traced / untraced
        per_pass.append(metrics)
    spans = WORK_DIR / f"trace-{name}-seed{seed}.tsv.gz"
    for pass_id, tracer in enumerate(tracers):
        tracer.write(spans, pass_id, "wt" if pass_id == 0 else "at")
    medians = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    lines = [f"{key} = {medians[key]:.6g} {PER_LAYER[key]}" for key in PER_LAYER]
    op_s, layers = medians["trace.op_s"], medians["trace.layer_share"]
    wrapper = medians["trace.overhead_s"] / op_s
    lines.append(
        f"accounting: self times and tracer overhead sum to {medians['trace.self_sum_s']:.6f} s over op spans "
        f"of {op_s:.6f} s; layers {layers:.4f}, cli.self_s {medians['cli.self_s'] / op_s:.4f}, "
        f"tracer overhead taken out of the layers {wrapper:.4f}, "
        f"observers and capture {1 - layers - medians['cli.self_s'] / op_s - wrapper:.4f}"
    )
    lines.append(
        "tracer overhead per event (median over passes): "
        + ", ".join(
            f"{field} {statistics.median(getattr(t.overhead, field) for t in tracers) * 1e6:.3f} us"
            for field in ("inside", "outside", "hook")
        )
    )
    lines.append(f"trace passes: {len(per_pass)} of {len(inputs)} ops; spans in {spans.relative_to(ROOT)}")
    return ops, {key: medians[key] for key in PER_LAYER}, lines


def write_digests() -> None:
    """Record the stdout digests of every loopy call on the recorded seed."""
    workload = _workloads()["loopy"]
    run_dir = WORK_DIR / "digests-loopy"
    cli, inputs, paths, _ = setup(workload, RECORDED_SEED, run_dir)
    table = {}
    for i, inp in enumerate(inputs):
        for call in run_op(cli, workload, inputs, paths, i).calls:
            table[f"{inp.name}/{call.kind}"] = digest(call.stdout)
    shutil.rmtree(run_dir)
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("chain", "loopy", "fuzz"))
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_digests:
        parser.error("--workload is required")

    src = ROOT / "src"
    if not (src / "copyprop" / "__init__.py").is_file():
        print(f"error: no copyprop package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    cli = load_cli()
    if Path(cli.__file__).resolve().parent != src / "copyprop":
        print(f"error: imported copyprop from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    if args.write_digests:
        write_digests()
        return 0

    workload = _workloads()[args.workload]
    run_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            setups = [setup(workload, args.seed, run_dir) for _ in range(SETUP_REPEATS)]
            cli, inputs, paths, _ = setups[-1]
            setup_times = [s[3] for s in setups]
            ops, metrics, lines = trace_run(cli, args.workload, workload, inputs, paths, args.seconds, args.seed)
            units = PER_LAYER
        else:
            inputs, ops, wall, setup_times, host, measured = timed_loop(workload, args.seed, run_dir, args.seconds)
            metrics, lines = timed_metrics(inputs, ops, wall, host, measured)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed, reasons = gate(args.workload, inputs, ops, args.seed)
    lines += [
        f"setup_s = {statistics.median(setup_times):.6f} s (median of {len(setup_times)} set-ups of import, "
        f"input generation and warm-up{'' if args.trace else ' at reference speed'}: "
        f"{', '.join(f'{t:.4f}' for t in setup_times)})",
        f"ops_failed_ratio = {failed / len(ops):.6g} ({failed} of {len(ops)} ops)",
    ]
    if args.trace == 0:
        lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.3f} MB")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "digests_checked": args.workload == "loopy" and args.seed == RECORDED_SEED,
        "clients": 1,
        "loop": "closed",
        "instruments": "time.perf_counter and resource.getrusage only; no hardware counters, no machine-wide tracing",
    }
    for line in lines:
        print(line)
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
