"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import copyprop.cli as cli  # noqa: E402
import run  # noqa: E402
from bench_check import check_chain, check_check, check_transform  # noqa: E402
from bench_inputs import chain_inputs, fuzz_inputs, loopy_inputs  # noqa: E402
from bench_trace import OP_SPAN, TARGETS, Tracer, _noop, layer_metrics  # noqa: E402


@pytest.mark.parametrize("make", [chain_inputs, loopy_inputs, fuzz_inputs])
def test_generators_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert [i.text for i in make(7)] != [i.text for i in make(8)]


def write_inputs(tmp_path: Path, inputs: list) -> list[str]:
    paths = []
    for inp in inputs:
        path = tmp_path / f"{inp.name}.tac"
        path.write_text(inp.text)
        paths.append(str(path))
    return paths


def test_chain_check_accepts_cli_output_and_rejects_a_wrong_one(tmp_path):
    inp = chain_inputs(3)[0]
    path = write_inputs(tmp_path, [inp])[0]
    call = run.run_call(cli, "transform", ["transform", path, "--report"])
    assert call.rc == 0 and check_chain(inp, call.stdout) is None
    wrong = call.stdout.replace("(chain 100)", "(chain 99)")
    assert wrong != call.stdout
    assert "closed form" in check_chain(inp, wrong)
    assert check_chain(inp, call.stdout.replace("# passes: 1", "# passes: 2")) is not None


def test_transform_check_rejects_a_behaviour_change():
    inp = loopy_inputs(1)[0]
    # Rewriting one constant assignment changes the program's final values.
    first_copy = next(line for line in inp.text.splitlines() if line.startswith("B1: "))
    assert check_transform(inp, inp.text + "# passes: 1\n") is None
    wrong = inp.text.replace(first_copy, first_copy.replace(" = ", " = 1000 + ", 1))
    assert check_transform(inp, wrong + "# passes: 1\n") is not None


def test_check_gate_requires_pass_and_the_right_mop_verdict():
    acyclic = next(i for i in fuzz_inputs(2) if i.acyclic)
    ok = "differential: PASS\nsolver-agreement: PASS\nmop: PASS\nPASS\n"
    assert check_check(acyclic, ok) is None
    assert check_check(acyclic, ok.replace("mop: PASS", "mop: SKIP (cyclic-cfg)")) is not None
    assert check_check(acyclic, ok[: -len("PASS\n")] + "FAIL\n") is not None


def traced_pass(tmp_path: Path):
    chain = chain_inputs(5)[:2]
    fuzz = fuzz_inputs(5)[:6]
    inputs = chain + fuzz
    paths = write_inputs(tmp_path, inputs)
    argvs = [["transform", p, "--report"] for p in paths[:2]]
    argvs += [["check", p, "--inputs", "2", "--acyclic-mop"] for p in paths[2:]]
    argvs.append(["compare", paths[-1]])
    tracer = Tracer()
    with tracer.installed():
        for op_id, argv in enumerate(argvs):
            with tracer.op_span(op_id):
                assert run.run_call(cli, argv[0], argv).rc == 0
    sizes = [inp.size for inp in inputs] + [inputs[-1].size]
    return tracer, sizes


def test_every_wrapper_is_removed_after_the_traced_run(tmp_path):
    traced_pass(tmp_path)
    import copyprop.analysis

    assert copyprop.cli.run_acs is copyprop.analysis.run_acs
    defining = {}
    for module_name, attr, _ in TARGETS:
        value = getattr(importlib.import_module(module_name), attr)
        assert not hasattr(value, "__wrapped__"), f"{module_name}.{attr}"
        defining.setdefault(attr, value)
        assert value is defining[attr], f"{module_name}.{attr}"


def test_wrappers_are_removed_when_an_op_raises():
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            1 / 0
    assert all(
        not hasattr(getattr(importlib.import_module(m), a), "__wrapped__") for m, a, _ in TARGETS
    )


def test_self_times_sum_to_each_root_op_span(tmp_path):
    tracer, sizes = traced_pass(tmp_path)
    selfs, overhead = tracer.self_times()
    for op_id in range(len(sizes)):
        root = next(
            s for s in range(len(selfs)) if tracer.op[s] == op_id and tracer.names[tracer.name[s]] == OP_SPAN
        )
        total = sum(selfs[s] + overhead[s] for s in range(len(selfs)) if tracer.op[s] == op_id)
        assert total == pytest.approx(tracer.end[root] - tracer.start[root], rel=1e-9)
        assert min(t for s, t in enumerate(selfs) if tracer.op[s] == op_id) >= 0
    metrics = layer_metrics(tracer, sizes)
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.op_s"], rel=1e-9)
    for layer in ("dataflow.solve_s", "analysis.transfer_s", "propagate.transform_s", "oracle.interpret_s",
                  "oracle.mop_s", "oracle.round_robin_s", "classic.reaching_defs_s", "ir.parse_s", "ir.print_s"):
        assert metrics[layer] > 0, layer
    assert metrics["dataflow.visits"] >= metrics["dataflow.out_changes"] > 0
    assert metrics["propagate.chain_len_max"] == 100


def test_tracer_overhead_is_taken_out_of_the_caller():
    tracer = Tracer()
    traced = tracer.wrap(_noop, "noop")
    with tracer.op_span(0):
        for _ in range(3000):
            traced()
    selfs, overhead = tracer.self_times()
    # the root only loops over the calls, so nearly all its raw self time is
    # the wrappers' work outside the calls' spans
    assert selfs[0] < 0.75 * (selfs[0] + overhead[0])
    assert min(selfs) >= 0


def simulated_chain_run(speed: float, seconds: float = 30.0):
    """A closed loop as timed_loop runs it, on fake ops `speed` times faster."""
    inputs = chain_inputs(0)
    cycle = run._chain_cycle(inputs)
    measured = run._workloads()["chain"].cycles * len(cycle)
    cost = {100: 0.07, 200: 0.24, 400: 2.0}
    jitter = random.Random(1)
    ops, now = [], 0.0
    while len(ops) < measured or now < seconds:
        i = cycle[len(ops) % len(cycle)]
        t = cost[inputs[i].size] * (1 + 0.2 * jitter.random()) / speed
        ops.append(run.Op(i, [run.Call("transform", 0, "", t)], t, now))
        now += t
    host = run.HostSpeed()
    host.at, host.seconds = [0.0, now], [run.REFERENCE_S] * 2
    return run.timed_metrics(inputs, ops, now, host, measured)[0]


@pytest.mark.parametrize("speed", [1.5, 2.0, 4.0])
def test_a_uniformly_faster_op_lowers_every_timed_figure(speed):
    slow, fast = simulated_chain_run(1.0), simulated_chain_run(speed)
    assert fast["op_ms.tail"] == pytest.approx(slow["op_ms.tail"] / speed, rel=0.15)
    assert fast["op_ms.p50"] == pytest.approx(slow["op_ms.p50"] / speed, rel=0.15)
    assert fast["blocks_per_s"] == pytest.approx(slow["blocks_per_s"] * speed, rel=0.15)


@pytest.mark.parametrize("name", ["chain", "loopy", "fuzz"])
def test_tail_sample_lies_above_the_median(name):
    workload = run._workloads()[name]
    assert workload.cycles * len(workload.cycle(workload.make(0))) >= 21


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run._workloads())
    assert spec["run_seconds"] == run.RUN_SECONDS
