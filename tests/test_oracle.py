from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copyprop.oracle as oracle
import copyprop.propagate as propagate
from copyprop import (
    EMPTY,
    Binary,
    Block,
    Branch,
    Copy,
    CyclicGraphError,
    FactSet,
    GenParams,
    Nop,
    PathBudgetError,
    Program,
    differential_check,
    parse_program,
    print_program,
    enumerate_paths,
    fact_soundness_violation,
    interpret,
    mop_in,
    random_program,
    run_acs,
    solve_round_robin,
    transform,
    transform_to_fixpoint,
    validate,
    variables,
)
from copyprop.analysis import transfer
from copyprop.dataflow import AnalysisResult
from conftest import fan_in, load_fixture, looped_counter, sequential_diamonds, straight_line, wide
from strategies import VARIABLES, environments, programs
from test_mutants import no_kill_of_uses_of_the_defined_variable

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------- paths / mop


def test_enumerate_paths_fig1(fig1):
    assert enumerate_paths(fig1, "B4") == [
        ("B0", "B1", "B2", "B4"),
        ("B0", "B1", "B3", "B4"),
    ]
    assert enumerate_paths(fig1, "B0") == [("B0",)]
    assert len(enumerate_paths(fig1, "B5")) == 2


def test_enumerate_paths_unreachable_target():
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Nop(), ()),
        "B9": Block(Nop(), ("B1",)),
    }
    prog = Program(blocks, "B0", "B1")
    assert enumerate_paths(prog, "B9") == []
    assert "B9" not in mop_in(prog)


def test_cyclic_graph_is_rejected():
    with pytest.raises(CyclicGraphError, match="cyclic-cfg"):
        enumerate_paths(looped_counter(), "B4")


def test_deep_straight_line_has_one_path():
    # deeper than the interpreter's default recursion limit
    prog = straight_line(*[Binary("x", "+", "x", 1)] * 1200)
    paths = enumerate_paths(prog, prog.exit)
    assert paths == [tuple(f"B{i}" for i in range(1202))]
    assert mop_in(prog)[prog.exit] == EMPTY == run_acs(prog).in_sets[prog.exit]


def test_path_budget_admits_exactly_its_size():
    # the 2**12 paths of 12 diamonds take 860,172 steps, the 2**13 of 13
    # take 1,867,788: the budget admits the one walk and not the other
    assert oracle.STEP_BUDGET == 2**20
    assert 860_172 <= oracle.STEP_BUDGET < 1_867_788
    assert len(enumerate_paths(sequential_diamonds(12), "X")) == 4096
    with pytest.raises(PathBudgetError):
        enumerate_paths(sequential_diamonds(13), "X")


def test_path_budget_counts_paths_that_miss_the_target():
    # one path reaches L0, but the walk toward it follows all 2**12 paths
    # through R0; the budget bounds the walk, not only what it returns
    prog = sequential_diamonds(13)
    assert len(enumerate_paths(sequential_diamonds(12), "L0")) == 1
    with pytest.raises(PathBudgetError):
        mop_in(prog)["L0"]


def test_cycle_through_the_target_is_rejected():
    # a walk that stopped at B2 would see one path and return { (x, 1) }
    prog = parse_program(
        "entry: B0\nexit: B4\nB0: nop -> B1\nB1: x = 1 -> B2\n"
        "B2: branch x -> B3, B4\nB3: x = 2 -> B2\nB4: nop\n"
    )
    for target in ("B2", "B1"):
        with pytest.raises(CyclicGraphError, match="cyclic-cfg"):
            enumerate_paths(prog, target)
    with pytest.raises(CyclicGraphError, match="cyclic-cfg"):
        mop_in(prog)


def test_cycle_among_unreachable_blocks_is_not_walked():
    prog = parse_program(
        "entry: B0\nexit: B2\nB0: nop -> B1\nB1: x = 1 -> B2\nB2: nop\n"
        "B8: x = x + 1 -> B9\nB9: branch p -> B8, B2\n"
    )
    assert enumerate_paths(prog, "B2") == [("B0", "B1", "B2")]
    assert mop_in(prog) == {"B0": EMPTY, "B1": EMPTY, "B2": FactSet({"x": 1})}
    assert enumerate_paths(prog, "B8") == []


def test_path_budget_counts_whole_paths_for_an_early_target():
    # one path reaches B1, but the walk goes on to all 2**13 paths to the exit
    assert enumerate_paths(sequential_diamonds(12), "B1") == [("B0", "B1")]
    with pytest.raises(PathBudgetError):
        enumerate_paths(sequential_diamonds(13), "B1")


def test_cycle_the_walk_reaches_past_the_budget_reports_the_budget(monkeypatch):
    # 13 diamonds are walked before the loop on B1's second branch
    lines = print_program(sequential_diamonds(13)).splitlines()
    lines[lines.index("B1: x = 1 -> D0")] = "B1: branch q -> D0, C0"
    lines += ["C0: x = x + 1 -> C1", "C1: branch p -> C0, X"]
    prog = parse_program("\n".join(lines) + "\n")
    for walk in (lambda: enumerate_paths(prog, "X"), lambda: mop_in(prog)):
        with pytest.raises(PathBudgetError):
            walk()
    monkeypatch.setattr(oracle, "STEP_BUDGET", 2**22)
    for walk in (lambda: enumerate_paths(prog, "X"), lambda: mop_in(prog)):
        with pytest.raises(CyclicGraphError):
            walk()


def test_step_budget_bounds_a_walk_within_the_path_budget(monkeypatch):
    # an acyclic fuzz program has at most 16 blocks, 10 of them body blocks,
    # so at most 2**10 paths: at most 2**10 * 16 pushes at depth 16 or less
    assert oracle.STEP_BUDGET == 2**20 > 2**10 * 16 * 16
    # 2**12 paths, each through a 2000-copy tail: 8 million pushes without it
    prog = sequential_diamonds(12, tail=2000)
    calls = 0

    def counted(stmt, facts):
        nonlocal calls
        calls += 1
        if calls > 2 * oracle.STEP_BUDGET:
            raise AssertionError("walked past twice the step budget")
        return transfer(stmt, facts)

    monkeypatch.setattr(oracle, "transfer", counted)
    with pytest.raises(PathBudgetError):
        mop_in(prog)
    assert calls <= oracle.STEP_BUDGET + 1
    with pytest.raises(PathBudgetError):
        enumerate_paths(prog, "X")


def test_step_budget_bounds_the_pairs_a_walk_transfers(monkeypatch):
    # 2000 distinct copies c_j = y after 12 diamonds: fact sets grow by a
    # pair per copy, and a budget that counted pushes alone let the walk
    # transfer and meet them for minutes
    prog = sequential_diamonds(12, tail=2000)
    blocks = dict(prog.blocks)
    for j in range(2000):
        blocks[f"T{j}"] = Block(Copy(f"c{j}", "y"), blocks[f"T{j}"].succs)
    prog = Program(blocks, prog.entry, prog.exit)
    pairs = 0

    def counted(stmt, facts):
        nonlocal pairs
        pairs += len(facts)
        if pairs > 2 * oracle.STEP_BUDGET:
            raise AssertionError("transferred past twice the step budget in pairs")
        return transfer(stmt, facts)

    monkeypatch.setattr(oracle, "transfer", counted)
    with pytest.raises(PathBudgetError):
        mop_in(prog)


def test_mop_fig1(fig1):
    mop = mop_in(fig1)
    assert mop["B4"] == FactSet({"y": "x"})
    assert mop["B2"] == EMPTY
    assert mop["B5"] == FactSet({"y": "x"})


def acyclic_corpus() -> list[Program]:
    rng = random.Random(31)
    return [
        random_program(
            GenParams(
                seed=rng.randrange(2**32),
                min_blocks=7,
                max_blocks=12,
                branch_prob=0.35,
                loop_prob=0.0,
            )
        )
        for _ in range(60)
    ]


def test_mop_matches_solver_on_acyclic_corpus():
    for prog in acyclic_corpus():
        res = run_acs(prog)
        mop = mop_in(prog)
        for label in res.in_sets:
            assert mop[label] == res.in_sets[label], label


def reference_mop_in(prog: Program, target: str) -> FactSet | None:
    """Meet-over-paths by its definition: the transfers along each path of
    `enumerate_paths(prog, target)` composed from the entry, the target's own
    statement excluded, and the results met. None when no path reaches it."""
    acc = None
    for path in enumerate_paths(prog, target):
        facts = EMPTY
        for label in path[:-1]:
            facts = transfer(prog.blocks[label].stmt, facts)
        acc = facts if acc is None else acc.meet(facts)
    return acc


def reference_mop(prog: Program) -> dict[str, FactSet]:
    """`reference_mop_in` of every block some path reaches."""
    ins = {label: reference_mop_in(prog, label) for label in prog.blocks}
    return {label: facts for label, facts in ins.items() if facts is not None}


@pytest.mark.parametrize("k", range(13))
def test_mop_matches_the_per_target_reference_on_diamonds(k):
    prog = sequential_diamonds(k)
    assert mop_in(prog) == reference_mop(prog)


def test_mop_matches_the_per_target_reference_on_acyclic_corpus():
    for prog in acyclic_corpus():
        assert mop_in(prog) == reference_mop(prog)


def reference_steps(prog: Program) -> int:
    """The steps of a path walk by its rule: a walk pushes each path from
    the entry once, at a cost of the path's length."""
    return sum(len(path) for label in prog.blocks for path in enumerate_paths(prog, label))


@settings(max_examples=200)
@given(prog=programs(), budget=st.integers(0, 200))
def test_mop_matches_the_per_target_reference_on_any_program(prog, budget):
    # cyclic graphs and unreachable blocks included, under a step budget
    # small enough to run out: the one walk raises what the walk toward the
    # exit raises, or agrees with the reference, and on an acyclic graph the
    # budget runs out exactly when it is below the walk's steps
    try:
        steps = reference_steps(prog)
    except CyclicGraphError:
        steps = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "STEP_BUDGET", budget)
        try:
            enumerate_paths(prog, prog.exit)
        except (CyclicGraphError, PathBudgetError) as err:
            assert steps is None or (isinstance(err, PathBudgetError) and budget < steps)
            with pytest.raises(type(err)):
                mop_in(prog)
            with pytest.raises(type(err)):
                reference_mop(prog)
            return
        assert steps <= budget
        assert mop_in(prog) == reference_mop(prog)


def test_round_robin_matches_worklist():
    rng = random.Random(37)
    progs = [load_fixture("fig1.tac"), load_fixture("fig2.tac"), looped_counter()]
    progs += [
        random_program(GenParams(seed=rng.randrange(2**32), branch_prob=0.3, loop_prob=0.2))
        for _ in range(60)
    ]
    for prog in progs:
        a = run_acs(prog)
        b = solve_round_robin(prog)
        assert a.in_sets == b.in_sets
        assert a.out_sets == b.out_sets


@pytest.mark.parametrize("shape", [sequential_diamonds, fan_in], ids=["sequential_diamonds", "fan_in"])
def test_round_robin_transfers_each_block_at_most_twice(shape, monkeypatch):
    # labels run against the flow in both shapes, so a sweep moves the facts
    # one diamond or one branch forward, and transferring every block on every
    # sweep would make about 300 and 150 transfers per block
    prog = shape(300)
    calls = 0

    def counted(stmt, facts):
        nonlocal calls
        calls += 1
        return transfer(stmt, facts)

    monkeypatch.setattr(oracle, "transfer", counted)
    result = solve_round_robin(prog)
    assert calls <= 2 * len(prog.blocks)
    assert result == run_acs(prog)


def test_round_robin_on_an_entry_that_is_no_block_returns_nothing():
    # in a process of its own: a solver that waits for a label no sweep
    # visits to be solved would spin forever
    code = (
        "from copyprop import Block, Nop, Program, solve_round_robin\n"
        "result = solve_round_robin(Program({'B0': Block(Nop())}, 'B9', 'B0'))\n"
        "print(result.in_sets, result.out_sets)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "{} {}\n", "")


# ---------------------------------------------------------------- interpreter


def test_interpret_fig2(fig2):
    trace = interpret(fig2, {"a": 3}, 100)
    assert trace.status == "exit"
    assert trace.labels == ("B0", "B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8")
    assert trace.final_env == {"a": 3, "b": 3, "c": 3, "d": 4, "e": 3, "f": 7, "g": 6}


def test_interpret_minimal_passes_env_through():
    trace = interpret(load_fixture("minimal.tac"), {"q": -2}, 10)
    assert trace.status == "exit"
    assert trace.final_env == {"q": -2}
    assert trace.labels == ("B0", "B1")


def test_interpret_branch_polarity():
    prog = looped_counter()
    taken = interpret(prog, {"p": 0}, 100)
    assert taken.status == "exit"
    assert taken.labels == ("B0", "B1", "B2", "B3", "B4")
    assert taken.final_env["x"] == 1
    looping = interpret(prog, {"p": 1}, 50)
    assert looping.status == "fuel-exhausted"
    assert len(looping.labels) == 50
    assert looping.final_env["x"] > 1


@pytest.mark.parametrize(
    "a,b,expected",
    [(-7, 2, -3), (7, -2, -3), (-7, -2, 3), (7, 2, 3), (1, 3, 0)],
)
def test_division_truncates_toward_zero(a, b, expected):
    prog = straight_line(Binary("x", "/", a, b))
    assert interpret(prog, {}, 10).final_env == {"x": expected}


def test_division_by_zero_is_runtime_error():
    prog = straight_line(Binary("x", "/", 1, "y"))
    trace = interpret(prog, {"y": 0}, 10)
    assert trace.status == "runtime-error"
    assert trace.error == "div-by-zero"
    assert trace.labels == ("B0",)  # the faulting block is not committed


def test_unbound_variable_is_runtime_error():
    prog = straight_line(Copy("x", "q"))
    trace = interpret(prog, {}, 10)
    assert trace.status == "runtime-error"
    assert trace.error == "unbound-variable q"


def test_arithmetic_wraps_64_bits():
    prog = straight_line(
        Binary("x", "+", 2**63 - 1, 1),
        Binary("y", "*", 2**62, 4),
        Binary("z", "-", -(2**63), 1),
    )
    env = interpret(prog, {}, 10).final_env
    assert env == {"x": -(2**63), "y": 0, "z": 2**63 - 1}


def test_trace_records_env_after_each_step():
    prog = straight_line(Copy("x", 5), Binary("x", "+", "x", 1))
    seen = []
    trace = interpret(prog, {}, 10, on_step=lambda label, env: seen.append((label, dict(env))))
    # the environment after step i is the one step i + 1 sees, and after the last is final_env
    after = [env for _, env in seen[1:]] + [trace.final_env]
    assert [label for label, _ in seen] == list(trace.labels)
    assert list(zip(trace.labels, after)) == [
        ("B0", {}),
        ("B1", {"x": 5}),
        ("B2", {"x": 6}),
        ("B3", {"x": 6}),
    ]


def test_on_step_sees_env_before_statement():
    prog = straight_line(Copy("x", 5))
    seen = []
    interpret(prog, {}, 10, on_step=lambda label, env: seen.append((label, dict(env))))
    assert seen == [("B0", {}), ("B1", {}), ("B2", {"x": 5})]


# A copy of the step-by-step interpreter that `interpret` replaced: it neither
# decodes the program nor fast-forwards a loop, so every step runs here.

class _RefStop(Exception):
    def __init__(self, code: str):
        self.code = code


def _ref_wrap(value: int) -> int:
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _ref_value(op, env):
    if isinstance(op, int):
        return op
    try:
        return env[op]
    except KeyError:
        raise _RefStop(f"unbound-variable {op}") from None


def _ref_apply(op: str, a: int, b: int) -> int:
    if op == "+":
        return _ref_wrap(a + b)
    if op == "-":
        return _ref_wrap(a - b)
    if op == "*":
        return _ref_wrap(a * b)
    if b == 0:
        raise _RefStop("div-by-zero")
    quot = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quot = -quot
    return _ref_wrap(quot)


def reference_interpret(prog: Program, env0: dict, fuel: int, on_step=None) -> tuple:
    """(labels, final_env, status, error) of a run, one block per step."""
    env = dict(env0)
    labels = []
    status = "fuel-exhausted"
    error = None
    label = prog.entry
    for _ in range(fuel):
        block = prog.blocks[label]
        stmt = block.stmt
        if on_step is not None:
            on_step(label, env)
        try:
            if isinstance(stmt, Copy):
                env[stmt.dst] = _ref_value(stmt.src, env)
                nxt = block.succs[0]
            elif isinstance(stmt, Binary):
                env[stmt.dst] = _ref_apply(stmt.op, _ref_value(stmt.lhs, env), _ref_value(stmt.rhs, env))
                nxt = block.succs[0]
            elif isinstance(stmt, Branch):
                nxt = block.succs[0] if _ref_value(stmt.cond, env) != 0 else block.succs[1]
            else:
                nxt = block.succs[0] if block.succs else ""
        except _RefStop as stop:
            status, error = "runtime-error", stop.code
            break
        labels.append(label)
        if label == prog.exit:
            status = "exit"
            break
        label = nxt
    return tuple(labels), env, status, error


def _observed(trace) -> tuple:
    return trace.labels, trace.final_env, trace.status, trace.error


def _state(label: str, env: dict) -> tuple:
    return label, tuple(sorted(env.items()))


def _uninitialised(prog: Program, var: str) -> Program:
    """prog with the generator's constant assignment to var made a nop, so
    var is read from the input environment."""
    blocks = dict(prog.blocks)
    for label, block in prog.blocks.items():
        if isinstance(block.stmt, Copy) and block.stmt.dst == var and isinstance(block.stmt.src, int):
            blocks[label] = Block(Nop(), block.succs)
            break
    return Program(blocks, prog.entry, prog.exit)


FUELS = (1, 7, 100, 10000)


def test_interpret_matches_the_step_by_step_reference():
    outcomes: Counter = Counter()
    for seed in range(3000):
        params = GenParams(seed=seed, branch_prob=0.4, loop_prob=0.5, allow_div=seed % 2 == 1)
        prog = random_program(params)
        rng = random.Random(seed)
        if seed % 3 == 0:
            prog = _uninitialised(prog, "a")
        env = {name: rng.randint(-64, 64) for name in sorted(variables(prog))}
        if seed % 6 == 0:
            env.pop("a", None)
        for fuel in FUELS:
            expected = reference_interpret(prog, env, fuel)
            assert _observed(interpret(prog, env, fuel)) == expected, (seed, fuel)
            outcomes[fuel, expected[2], expected[3]] += 1
    assert sum(n for (_, status, _), n in outcomes.items() if status == "fuel-exhausted") >= 1000
    assert outcomes[10000, "fuel-exhausted", None] >= 150
    assert outcomes[10000, "runtime-error", "unbound-variable a"] >= 100
    assert outcomes[10000, "runtime-error", "div-by-zero"] >= 20


@settings(max_examples=200)
@given(prog=programs(), env=environments, fuel=st.sampled_from(FUELS))
def test_interpret_matches_the_reference_on_any_program(prog, env, fuel):
    """A hook sees the reference's steps up to where the run is fast-forwarded,
    which is past the first repeated state: every state the run is in."""
    expected_seen, seen = [], []
    expected = reference_interpret(prog, env, fuel, on_step=lambda *state: expected_seen.append(_state(*state)))
    assert _observed(interpret(prog, env, fuel)) == expected
    hooked = interpret(prog, env, fuel, on_step=lambda *state: seen.append(_state(*state)))
    assert _observed(hooked) == expected
    assert seen == expected_seen[: len(seen)]
    assert set(seen) == set(expected_seen)


def _executed_step_by_step(monkeypatch) -> list[int]:
    """Records how many blocks each `_run` call executes."""
    counts: list[int] = []
    run = oracle._run

    def counting(code, exit_label, label, env, labels, *args):
        before = len(labels)
        try:
            return run(code, exit_label, label, env, labels, *args)
        finally:
            counts.append(len(labels) - before)

    monkeypatch.setattr(oracle, "_run", counting)
    return counts


SELF_LOOP = parse_program(
    """
entry: B0
exit: B3
B0: nop -> B1
B1: x = 5 -> B2
B2: branch p -> B2, B3
B3: nop
"""
)


def test_self_loop_is_fast_forwarded(monkeypatch):
    executed = _executed_step_by_step(monkeypatch)
    trace = interpret(SELF_LOOP, {"p": 1}, 10**6)
    assert trace.labels == ("B0", "B1") + ("B2",) * (10**6 - 2)
    assert trace.status == "fuel-exhausted"
    assert trace.final_env == {"p": 1, "x": 5}
    assert sum(executed) < 20
    assert _observed(interpret(SELF_LOOP, {"p": 1}, 1000)) == reference_interpret(SELF_LOOP, {"p": 1}, 1000)


# a loop of period 3 after a two-block lead-in: B1, B2, B3, B1, ...
THREE_CYCLE = parse_program(
    """
entry: B0
exit: B5
B0: nop -> B1
B1: x = 1 -> B2
B2: y = x + 1 -> B3
B3: branch p -> B1, B4
B4: x = 0 -> B5
B5: nop
"""
)


@pytest.mark.parametrize("fuel", [10, 11, 12, 100, 1000, 10001, 10002])
def test_fuel_not_a_multiple_of_the_period(fuel):
    trace = interpret(THREE_CYCLE, {"p": 7}, fuel)
    assert _observed(trace) == reference_interpret(THREE_CYCLE, {"p": 7}, fuel)
    assert len(trace.labels) == fuel
    assert trace.labels[-1] == ("B1", "B2", "B3")[(fuel - 2) % 3]


def test_a_state_that_never_repeats_runs_every_step(monkeypatch):
    executed = _executed_step_by_step(monkeypatch)
    prog = looped_counter()
    trace = interpret(prog, {"p": 1}, 10000)
    assert _observed(trace) == reference_interpret(prog, {"p": 1}, 10000)
    assert trace.final_env["x"] == 4999
    assert sum(executed) == 10000


def test_int64_wrap_inside_a_loop_repeats_after_four_laps(monkeypatch):
    # x = x + 2**62 wraps to its start value after four laps of B2, B3
    blocks = dict(looped_counter().blocks)
    blocks["B2"] = Block(Binary("x", "+", "x", 2**62), ("B3",))
    prog = Program(blocks, "B0", "B4")
    executed = _executed_step_by_step(monkeypatch)
    for fuel in (2, 9, 10, 13, 10000, 10003):
        assert _observed(interpret(prog, {"p": 1}, fuel)) == reference_interpret(prog, {"p": 1}, fuel)
    assert all(step_count < 40 for step_count in executed)
    # B0, B1, B2, B3, B2: two additions of 2**62 wrap
    assert interpret(prog, {"p": 1}, 5).final_env["x"] == -(2**63)


def test_a_hooked_looping_run_sees_every_state_before_the_fast_forward():
    seen = []
    trace = interpret(SELF_LOOP, {"p": 1}, 10000, on_step=lambda label, env: seen.append((label, dict(env))))
    assert trace.status == "fuel-exhausted"
    assert len(trace.labels) == 10000
    assert [label for label, _ in seen] == list(trace.labels[: len(seen)])
    assert seen[:3] == [("B0", {"p": 1}), ("B1", {"p": 1}), ("B2", {"p": 1, "x": 5})]
    assert all(state == ("B2", {"p": 1, "x": 5}) for state in seen[3:])
    assert len(seen) < 20


# ------------------------------------------------------- compact trace compare
# `_difference` compares traces kept as prefix + cycle without expanding them.
# The reference is the comparison of whole label tuples.


def expanded_divergence(t1, t2) -> int | None:
    """The first step at which the expanded label tuples differ, if any."""
    labels1, labels2 = t1.labels, t2.labels
    if labels1 == labels2:
        return None
    return next((i for i, (a, b) in enumerate(zip(labels1, labels2)) if a != b), min(len(labels1), len(labels2)))


def _compact(prefix, cycle, length) -> oracle.Trace:
    return oracle.Trace(tuple(prefix), tuple(cycle), length, {"x": 1}, "fuel-exhausted")


@st.composite
def compact_traces(draw):
    # two labels, so that independent traces often agree for a while
    prefix = draw(st.lists(st.sampled_from("BC"), max_size=6))
    cycle = draw(st.lists(st.sampled_from("BC"), max_size=4))
    laps = draw(st.integers(1, 60)) if cycle else 0
    return _compact(prefix, cycle, len(prefix) + len(cycle) * laps + draw(st.integers(0, len(cycle))))


def unrolled(trace, count: int, repeats: int = 1) -> oracle.Trace:
    """The same run with its first `count` labels in the prefix and its cycle
    rotated to follow them and repeated; all of it in the prefix, with no
    cycle, when `count` reaches its length."""
    if not trace.cycle or count >= trace.length:
        return _compact(trace.labels, (), trace.length)
    count = max(count, len(trace.prefix))
    shift = (count - len(trace.prefix)) % len(trace.cycle)
    return _compact(trace.head(count), (trace.cycle[shift:] + trace.cycle[:shift]) * repeats, trace.length)


def with_changed_step(trace, step: int) -> oracle.Trace:
    """The same run with the label at `step` swapped for the other one."""
    moved = unrolled(trace, step + 1)
    prefix = list(moved.prefix)
    prefix[step] = "B" if prefix[step] == "C" else "C"
    return _compact(prefix, moved.cycle, moved.length)


@settings(max_examples=400)
@given(t1=compact_traces(), data=st.data())
def test_compact_difference_matches_the_expanded_comparison(t1, data):
    """Whatever the two representations, including one cycle missing, equal
    runs kept differently, and a change many laps into the cycle, the verdict
    and step are those of comparing the expanded label tuples."""
    kind = data.draw(st.sampled_from(("independent", "shared start", "same run", "changed step", "cut short")))
    if kind == "independent":
        t2 = data.draw(compact_traces())
    elif kind == "shared start":
        other = data.draw(compact_traces())
        start = t1.head(data.draw(st.integers(0, 8)))
        t2 = _compact(start + other.prefix, other.cycle, len(start) + other.length)
    else:
        t2 = unrolled(t1, data.draw(st.integers(0, t1.length + 2)), data.draw(st.integers(1, 3)))
        assert t2.labels == t1.labels
        if kind == "changed step" and t1.length:
            t2 = with_changed_step(t2, data.draw(st.integers(0, t1.length - 1)))
        elif kind == "cut short":
            t2 = _compact(t2.prefix, t2.cycle, data.draw(st.integers(len(t2.prefix), t2.length)))
    env0 = {"x": 0}
    for a, b in ((t1, t2), (t2, t1)):
        step = expanded_divergence(a, b)
        expected = None if step is None else oracle.Verdict(False, f"trace divergence at step {step}", env0, step)
        assert oracle._difference(a, b, env0) == expected


# ------------------------------------------------------------------ generator


def test_generator_is_deterministic():
    params = GenParams(seed=12345, branch_prob=0.4, loop_prob=0.3)
    assert random_program(params) == random_program(params)
    assert random_program(params) != random_program(GenParams(seed=12346))


def test_generated_programs_are_valid():
    rng = random.Random(41)
    for _ in range(50):
        prog = random_program(
            GenParams(seed=rng.randrange(2**32), branch_prob=0.4, loop_prob=0.4)
        )
        assert validate(prog) == []


def test_generator_initialises_every_variable():
    prog = random_program(GenParams(seed=3, num_vars=5, min_blocks=10))
    inits = [prog.blocks[f"B{i}"].stmt for i in range(1, 6)]
    assert all(isinstance(s, Copy) and isinstance(s.src, int) for s in inits)
    assert {s.dst for s in inits} == {"a", "b", "c", "d", "e"}


def test_generator_without_branches_is_a_straight_line():
    prog = random_program(GenParams(seed=9, branch_prob=0.0))
    assert all(len(b.succs) <= 1 for b in prog.blocks.values())


def test_generator_zero_loop_prob_is_acyclic():
    rng = random.Random(43)
    for _ in range(40):
        prog = random_program(
            GenParams(seed=rng.randrange(2**32), branch_prob=0.5, loop_prob=0.0)
        )
        enumerate_paths(prog, prog.exit)  # raises on a cycle


def test_generator_emits_back_edges_eventually():
    hits = 0
    for seed in range(100):
        prog = random_program(GenParams(seed=seed, branch_prob=0.6, loop_prob=0.6))
        try:
            enumerate_paths(prog, prog.exit)
        except CyclicGraphError:
            hits += 1
    assert hits > 10


def test_generator_const_copy_only():
    prog = random_program(GenParams(seed=8, const_copy_only=True))
    for block in prog.blocks.values():
        if isinstance(block.stmt, Copy):
            assert isinstance(block.stmt.src, int)


def test_generator_rejects_bad_params():
    with pytest.raises(ValueError):
        GenParams(num_vars=0)
    with pytest.raises(ValueError):
        GenParams(num_vars=8, min_blocks=6)
    with pytest.raises(ValueError):
        GenParams(min_blocks=12, max_blocks=8)
    with pytest.raises(ValueError):
        GenParams(branch_prob=1.5)


# --------------------------------------------------------------- differential


def test_differential_fig1(fig1):
    envs = [{"p": 0, "x": 5, "w": 2}, {"p": 1, "x": 5, "w": 2}]
    assert differential_check(fig1, envs, 100).ok


def test_differential_fig2(fig2):
    verdict = differential_check(fig2, [{"a": 3}, {"a": -1}], 100)
    assert verdict.ok
    assert verdict.reason is None


def test_differential_random_corpus():
    rng = random.Random(47)
    for _ in range(50):
        prog = random_program(
            GenParams(seed=rng.randrange(2**32), branch_prob=0.3, loop_prob=0.2)
        )
        names = sorted(variables(prog))
        envs = [{n: rng.randint(-64, 64) for n in names} for _ in range(3)]
        assert differential_check(prog, envs, 2000).ok


def test_fact_replay_accepts_fixture(fig2):
    res = run_acs(fig2)
    assert fact_soundness_violation(fig2, res, {"a": 3}, 100) is None


def test_fact_replay_catches_a_planted_lie(fig2):
    """A deliberately corrupted IN set must be flagged by the replay."""
    res = run_acs(fig2)
    bad_ins = dict(res.in_sets)
    bad_ins["B2"] = FactSet({"b": 5})
    bad = AnalysisResult(bad_ins, res.out_sets, res.iterations)
    violation = fact_soundness_violation(fig2, bad, {"a": 3}, 100)
    assert violation is not None
    reason, step = violation
    assert "(b, 5)" in reason and "B2" in reason
    assert step == 2  # B0, B1, then the lie is visible entering B2


def test_fact_replay_names_the_first_broken_pair_in_sort_order(fig2):
    res = run_acs(fig2)
    bad_ins = dict(res.in_sets)
    bad_ins["B2"] = FactSet({"z": 7, "b": 5})
    bad = AnalysisResult(bad_ins, res.out_sets, res.iterations)
    reason, _ = fact_soundness_violation(fig2, bad, {"a": 3}, 100)
    assert "(b, 5)" in reason


def test_fact_replay_halts_with_program():
    # the replayed run stops at the same runtime error as the original
    prog = straight_line(Copy("x", "q"))
    res = run_acs(prog)
    assert fact_soundness_violation(prog, res, {}, 10) is None


# round 1 rewrites B3 to y = a; only round 2 sees (y, a) on both paths into B5
TWO_ROUNDS = parse_program(
    """
entry: B0
exit: B6
B0: nop -> B1
B1: x = a -> B2
B2: branch p -> B3, B4
B3: y = x -> B5
B4: y = a -> B5
B5: z = y + 1 -> B6
B6: nop
"""
)


def _with_stmt(prog: Program, label: str, stmt) -> Program:
    blocks = dict(prog.blocks)
    blocks[label] = Block(stmt, prog.blocks[label].succs)
    return Program(blocks, prog.entry, prog.exit)


def test_two_rounds_program_needs_both_rounds():
    one, _ = transform(TWO_ROUNDS, run_acs(TWO_ROUNDS))
    iterated, report = transform_to_fixpoint(TWO_ROUNDS, 10)
    assert iterated != one
    assert report.pass_count == 3


def _count_decodes(monkeypatch) -> list[Program]:
    """The programs `interpret` decodes from here on, one entry per decoding."""
    decoded: list[Program] = []
    decode = oracle._decode
    monkeypatch.setattr(oracle, "_decode", lambda prog: decoded.append(prog) or decode(prog))
    return decoded


def _decoded_at_most_once_each(decoded: list[Program]) -> bool:
    # the list keeps every program alive, so ids do not repeat
    return len({id(prog) for prog in decoded}) == len(decoded)


def test_differential_runs_the_original_once_per_input(monkeypatch):
    runs: list[Program] = []

    def counting(prog, *args, **kwargs):
        runs.append(prog)
        return interpret(prog, *args, **kwargs)

    monkeypatch.setattr(oracle, "interpret", counting)
    decoded = _count_decodes(monkeypatch)
    envs = [{"a": 1, "p": 0}, {"a": 2, "p": 1}, {"a": -3, "p": 5}]
    # x is assigned before it is read, but every run reads the input's a and p
    envs += [{"a": 4, "p": 1, "x": 0}, {"a": 4, "p": 1, "x": 9}]
    assert differential_check(TWO_ROUNDS, iter(envs), 100).ok
    assert sum(prog is TWO_ROUNDS for prog in runs) == 5
    assert len(runs) == 3 * 5  # original, one-pass and iterated
    assert _decoded_at_most_once_each(decoded)  # however many runs a program makes


def test_differential_skips_an_iterated_program_equal_to_one_pass(fig2, monkeypatch):
    runs: list[Program] = []

    def counting(prog, *args, **kwargs):
        runs.append(prog)
        return interpret(prog, *args, **kwargs)

    monkeypatch.setattr(oracle, "interpret", counting)
    decoded = _count_decodes(monkeypatch)
    assert differential_check(fig2, [{"a": 3}, {"a": -1}], 100).ok
    assert len(runs) == 4  # original and one-pass per input
    assert _decoded_at_most_once_each(decoded)


def test_differential_solves_the_one_pass_program_only_if_a_copy_source_moved(fig1, monkeypatch):
    """fig1's one pass rewrites z = y + w and no copy source, so another round
    would replace nothing and the iterated program is not built; TWO_ROUNDS'
    first pass moves a copy source, so its one-pass program is solved."""
    solved: list[Program] = []
    run_acs = propagate.run_acs
    monkeypatch.setattr(propagate, "run_acs", lambda prog: solved.append(prog) or run_acs(prog))
    envs = [{"p": 1, "x": 2, "w": 3}, {"p": 0, "x": -4, "w": 5}]
    assert differential_check(fig1, envs, 100, result=run_acs(fig1)).ok
    assert solved == []
    one, _ = transform(TWO_ROUNDS, run_acs(TWO_ROUNDS))
    assert differential_check(TWO_ROUNDS, [{"a": 1, "p": 0}], 100, result=run_acs(TWO_ROUNDS)).ok
    assert solved[0] == one


def test_differential_catches_a_broken_iterated_program(fig2, monkeypatch):
    def broken(prog, max_rounds):
        rewritten, report = transform_to_fixpoint(prog, max_rounds)
        return _with_stmt(rewritten, "B6", Copy("e", 99)), report

    monkeypatch.setattr(oracle, "transform_to_fixpoint", broken)
    verdict = differential_check(fig2, [{"a": 3}, {"a": -1}], 100)
    assert not verdict.ok
    assert verdict.reason == "final value of e differs: 3 vs 99"
    assert verdict.env == {"a": 3}


def test_differential_reports_the_one_pass_failure_first(fig2, monkeypatch):
    def broken_one(prog, result):
        rewritten, report = transform(prog, result)
        return _with_stmt(rewritten, "B6", Copy("e", 3)), report

    def broken_iterated(prog, max_rounds):
        rewritten, report = transform_to_fixpoint(prog, max_rounds)
        return _with_stmt(rewritten, "B6", Copy("e", 99)), report

    monkeypatch.setattr(oracle, "transform", broken_one)
    monkeypatch.setattr(oracle, "transform_to_fixpoint", broken_iterated)
    # the one-pass program is right on the first input, the iterated one is not
    verdict = differential_check(fig2, [{"a": 3}, {"a": -1}], 100)
    assert not verdict.ok
    assert verdict.reason == "final value of e differs: -1 vs 3"
    assert verdict.env == {"a": -1}


def test_differential_compares_values_when_only_the_fast_forward_differs(monkeypatch):
    # y = x reaches its fixed point 1 after several laps, while y = 2 repeats
    # the loop's state from its first lap: the two runs are fast-forwarded at
    # different steps, yet execute the same labels
    prog = parse_program(
        "entry: B0\nexit: B6\nB0: nop -> B1\nB1: x = 8 -> B2\nB2: y = x -> B3\n"
        "B3: z = y + 1 -> B4\nB4: x = z / 2 -> B5\nB5: branch p -> B2, B6\nB6: nop\n"
    )
    variant = _with_stmt(prog, "B2", Copy("y", 2))
    original, planted = interpret(prog, {"p": 1}, 100), interpret(variant, {"p": 1}, 100)
    assert original.prefix != planted.prefix and original.labels == planted.labels
    monkeypatch.setattr(oracle, "transform", lambda prog, result: (variant, transform(prog, result)[1]))
    verdict = differential_check(prog, [{"p": 1}], 100)
    assert verdict == oracle.Verdict(False, "final value of y differs: 1 vs 2", {"p": 1})


def test_differential_replays_facts_on_the_original_run(fig2, monkeypatch):
    """The planted (b, 5) lie of the replay test, reached through differential_check."""
    res = run_acs(fig2)
    bad_ins = dict(res.in_sets)
    bad_ins["B2"] = FactSet({"b": 5})
    bad = AnalysisResult(bad_ins, res.out_sets, res.iterations)
    monkeypatch.setattr(oracle, "run_acs", lambda prog: bad)
    # the rewrite stays honest, so only the replay can see the lie
    monkeypatch.setattr(oracle, "transform", lambda prog, result: transform(prog, run_acs(prog)))
    reason, step = fact_soundness_violation(fig2, bad, {"a": 3}, 100)
    verdict = differential_check(fig2, [{"a": 3}], 100)
    assert verdict == oracle.Verdict(False, reason, {"a": 3}, 2)
    assert step == 2


def reference_differential(prog: Program, envs, fuel: int) -> oracle.Verdict:
    """`differential_check` as it was before inputs could share a run:
    every input runs the original, the one-pass program and, until it
    fails, the iterated program."""
    result = oracle.run_acs(prog)
    one, report = oracle.transform(prog, result)
    iterated = None
    if not propagate._moved_no_copy_source(report):
        iterated = oracle.transform_to_fixpoint(one, oracle.ROUNDS - 1)[0]
        if iterated == one:
            iterated = None
    iterated_failure = None
    for env0 in envs:
        hook, found = oracle._fact_replay(result.in_sets)
        original = interpret(prog, env0, fuel, on_step=hook)
        verdict = oracle._difference(original, interpret(one, env0, fuel), env0)
        if verdict is not None:
            return verdict
        if found:
            return oracle.Verdict(False, found[0][0], env0, found[0][1])
        if iterated is not None and iterated_failure is None:
            iterated_failure = oracle._difference(original, interpret(iterated, env0, fuel), env0)
    return iterated_failure or oracle.Verdict(True)


def _inputs_that_matter(seed: int) -> tuple[Program, list[dict[str, int]]]:
    """A generated program with about half its initialisations turned into
    nops, so that it reads some of its inputs, and six inputs over few
    values, so that inputs often agree on what is read. Every third program
    divides, and one input in five lacks a name, so runtime errors occur."""
    rng = random.Random(seed)
    params = GenParams(seed=seed, allow_div=seed % 3 == 0)
    prog = random_program(params)
    blocks = dict(prog.blocks)
    for i in range(1, params.num_vars + 1):  # B1.. assign each variable a constant
        if rng.random() < 0.5:
            blocks[f"B{i}"] = Block(Nop(), blocks[f"B{i}"].succs)
    prog = Program(blocks, prog.entry, prog.exit)
    names = sorted(variables(prog))
    envs = []
    for _ in range(6):
        env = {name: rng.choice((-1, 0, 1, 2)) for name in names}
        if names and rng.random() < 0.2:
            del env[rng.choice(names)]
        envs.append(env)
    return prog, envs


@pytest.mark.parametrize(
    "mutant", [None, no_kill_of_uses_of_the_defined_variable], ids=lambda mutant: getattr(mutant, "__name__", None)
)
def test_differential_gives_the_verdict_of_running_every_input(mutant, monkeypatch):
    """Sharing a run changes which runs are made, never the verdict: 500
    programs whose inputs matter, as they are and under a mutant that makes
    the oracles fail."""
    if mutant is not None:
        mutant(monkeypatch)
    runs = Counter()

    def counting(prog, env0, fuel, **kwargs):
        trace = interpret(prog, env0, fuel, **kwargs)
        runs["original" if kwargs else "variant"] += 1
        runs[trace.status] += 1
        return trace

    def outcome(check, prog, envs):
        try:
            return check(prog, envs, 300)
        except ValueError as err:  # the mutant can build a cyclic pair set
            return str(err)

    failures = inputs = 0
    for seed in range(500):
        prog, envs = _inputs_that_matter(seed)
        expected = outcome(reference_differential, prog, envs)
        with monkeypatch.context() as counted:
            counted.setattr(oracle, "interpret", counting)
            assert outcome(differential_check, prog, envs) == expected, seed
        if isinstance(expected, oracle.Verdict):
            failures += not expected.ok
            inputs += len(envs) if expected.ok else envs.index(expected.env) + 1
    assert runs["runtime-error"] and runs["fuel-exhausted"]
    assert runs["original"] < inputs  # inputs shared runs
    assert (failures > 50) if mutant else failures == 0


BASE = "entry: B0\nexit: B3\nB0: nop -> B1\nB1: y = 1 -> B2\nB2: nop -> B3\nB3: nop\n"
DIVIDES = "entry: B0\nexit: B3\nB0: nop -> B1\nB1: x = 6 / d -> B2\nB2: y = x -> B3\nB3: nop\n"


@pytest.mark.parametrize(
    "text, label, stmt, envs, reason",
    [
        # a division by zero ends the run before the trace holds the block
        # that read d, so the first run shares nothing
        (DIVIDES, "B2", Copy("y", 5), [{"d": 0}, {"d": 2}], "final value of y differs: 3 vs 5"),
        # q is read by the one-pass program alone
        (BASE, "B1", Copy("y", "q"), [{"q": 1}, {"q": 2}], "final value of y differs: 1 vs 2"),
        # a moved target: the original ends with the input's q
        (BASE, "B2", Copy("q", 1), [{"q": 1}, {"q": 2}], "final value of q differs: 2 vs 1"),
    ],
    ids=["div-by-zero", "one-pass-read", "moved-target"],
)
def test_differential_runs_an_input_that_a_planted_variant_fails(text, label, stmt, envs, reason, monkeypatch):
    """Each planted one-pass program passes on the first input and fails on
    the second, so the second must not share the first one's run."""
    prog = parse_program(text)
    variant = _with_stmt(prog, label, stmt)
    monkeypatch.setattr(oracle, "transform", lambda prog, result: (variant, transform(prog, result)[1]))
    verdict = differential_check(prog, envs, 100)
    assert verdict == oracle.Verdict(False, reason, envs[1]) == reference_differential(prog, envs, 100)


def test_differential_runs_an_input_that_only_the_replay_reads(monkeypatch):
    """A planted (y, q) pair is the only read of q: it holds on the first
    input and breaks on the second."""
    prog = parse_program(BASE)
    res = run_acs(prog)
    bad = AnalysisResult({**res.in_sets, "B2": FactSet({"y": "q"})}, res.out_sets, res.iterations)
    monkeypatch.setattr(oracle, "run_acs", lambda prog: bad)
    envs = [{"q": 1}, {"q": 2}]
    verdict = differential_check(prog, envs, 100)
    assert verdict == oracle.Verdict(False, "fact (y, q) broken at B2: 1 vs 2", {"q": 2}, 2)
    assert verdict == reference_differential(prog, envs, 100)


def test_differential_shares_a_run_that_reads_no_input_with_every_later_input(monkeypatch):
    """BASE assigns y before any read and reads nothing else, so the first
    input's run gives the verdict of every later one, whatever names it
    carries: those are drawn but not run."""
    originals: list[dict[str, int]] = []
    drawn: list[dict[str, int]] = []

    def counting(prog, env0, fuel, **kwargs):
        if kwargs:  # the original's run carries the replay hook
            originals.append(env0)
        return interpret(prog, env0, fuel, **kwargs)

    monkeypatch.setattr(oracle, "interpret", counting)
    envs = [{"y": 0}, {"y": 7}, {"y": 0, "q": 5}, {}]
    prog = parse_program(BASE)
    verdict = differential_check(prog, (drawn.append(env) or env for env in envs), 100)
    assert verdict == oracle.Verdict(True)
    assert originals == [envs[0]]
    assert drawn == envs
    assert verdict == reference_differential(prog, envs, 100)


@pytest.mark.parametrize("shape, envs", [(wide, [{}, {}]), (fan_in, [{"p": 1}, {"p": 0}])], ids=["wide", "fan_in"])
def test_differential_keeps_no_copy_of_the_solution(shape, envs):
    """The fact replay reads the solver's IN sets as they are: on shapes
    whose IN sets hold up to 1000 pairs, the differential's own peak stays
    under a tenth of what the solution takes."""
    prog = shape(1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_acs(prog)
        solution = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        verdict = differential_check(prog, envs, 10000, result=result)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert verdict.ok
    assert peak < solution / 10, (peak, solution)


# ------------------------------------------------- fast-forwarded fact replay
# The replay hook runs under `interpret`'s fast-forward: it stops checking
# once the (label, env) state repeats. The reference below checks every pair
# of the plan on every step of the step-by-step reference interpreter.


def reference_replay(prog: Program, plan: dict, env0: dict, fuel: int) -> tuple:
    """(labels, final_env, status, error) and the first (reason, step) at
    which a live value breaks a planned pair, or None. `plan` maps each
    label to a map from destination to source; a step that breaks several
    pairs names the smallest destination."""
    found = []
    steps = iter(range(fuel))

    def check(label, env):
        step = next(steps)
        if found:
            return
        broken = []
        for dst, src in plan.get(label, {}).items():
            x = env.get(dst)
            e = src if isinstance(src, int) else env.get(src)
            if x is None or e is None or x != e:
                broken.append((dst, f"fact ({dst}, {src}) broken at {label}: {x} vs {e}"))
        if broken:
            found.append((min(broken)[1], step))

    observed = reference_interpret(prog, env0, fuel, on_step=check)
    return observed, found[0] if found else None


def fast_forwarded_replay(prog: Program, plan: dict, env0: dict, fuel: int) -> tuple:
    hook, found = oracle._fact_replay(plan)
    trace = interpret(prog, env0, fuel, on_step=hook)
    return _observed(trace), found[0] if found else None


def _with_lies(plan: dict, lies) -> dict:
    """plan with each (label, dst, src) set in its label's map: a lie on a
    destination the map holds replaces that pair."""
    planted = dict(plan)
    for label, dst, src in lies:
        planted[label] = {**planted.get(label, {}), dst: src}
    return planted


lies = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.sampled_from(VARIABLES),
        st.one_of(st.sampled_from(VARIABLES), st.integers(-8, 8)),
    ),
    max_size=3,
)


@settings(max_examples=200)
@given(prog=programs(), env=environments, fuel=st.sampled_from(FUELS), planted=lies)
def test_fast_forwarded_replay_matches_the_reference_on_any_program(prog, env, fuel, planted):
    labels = list(prog.blocks)
    lies_at = [(labels[i % len(labels)], dst, src) for i, dst, src in planted]
    plan = _with_lies(run_acs(prog).in_sets, lies_at)
    assert fast_forwarded_replay(prog, plan, env, fuel) == reference_replay(prog, plan, env, fuel)


def test_fast_forwarded_replay_matches_the_reference_on_random_programs():
    """3000 looping programs at fuel 1000: even seeds replay the solver's own
    IN sets through `fact_soundness_violation`, odd seeds plant two lies at
    a random reachable block, the larger destination first: its source is
    drawn, the smaller one's is a constant. A step that breaks both must
    name the smaller one, whatever order its set was built in."""
    outcomes: Counter = Counter()
    for seed in range(3000):
        prog = random_program(GenParams(seed=seed, branch_prob=0.4, loop_prob=0.5))
        rng = random.Random(seed)
        env = {name: rng.randint(-4, 4) for name in sorted(variables(prog))}
        result = run_acs(prog)
        plan = result.in_sets
        if seed % 2 == 0:
            expected = reference_replay(prog, plan, env, 1000)
            assert fact_soundness_violation(prog, result, env, 1000) == expected[1] is None, seed
        else:
            names = sorted(variables(prog))
            label = rng.choice(sorted(result.in_sets))
            src = rng.choice([*names, rng.randint(-4, 4)])
            plan = _with_lies(plan, [(label, max(names), src), (label, min(names), rng.randint(-4, 4))])
            expected = reference_replay(prog, plan, env, 1000)
            assert fast_forwarded_replay(prog, plan, env, 1000) == expected, seed
        outcomes[expected[0][2], expected[1] is not None] += 1
    assert outcomes["fuel-exhausted", False] >= 100
    assert outcomes["fuel-exhausted", True] >= 30


# i counts 333 laps of B3-B5, a new state on every lap; then B6 loops on
# itself forever, so the state first repeats only after the lie at B6 broke
LATE_BREAK = parse_program(
    """
entry: B0
exit: B7
B0: nop -> B1
B1: i = 0 -> B2
B2: x = 0 -> B3
B3: i = i + 1 -> B4
B4: c = i - 333 -> B5
B5: branch c -> B3, B6
B6: branch 1 -> B6, B7
B7: nop
"""
)


def test_a_late_violation_is_found_before_the_run_is_fast_forwarded(monkeypatch):
    plan = {"B3": {"x": 0}, "B6": {"x": "i"}}
    executed = _executed_step_by_step(monkeypatch)
    replay = fast_forwarded_replay(LATE_BREAK, plan, {}, 10**5)
    assert replay == reference_replay(LATE_BREAK, plan, {}, 10**5)
    # B0, B1, B2, then 333 laps of three blocks: B6 is step 1002
    assert replay[1] == ("fact (x, i) broken at B6: 0 vs 333", 1002)
    assert replay[0][2] == "fuel-exhausted"
    # Brent's saved state is at most twice as old as the repeat that ends the run
    assert sum(executed) < 2 * 1003 + len(LATE_BREAK.blocks)


def test_replay_of_a_self_loop_is_fast_forwarded(monkeypatch):
    result = run_acs(SELF_LOOP)
    assert result.in_sets["B2"] == {"x": 5}
    executed = _executed_step_by_step(monkeypatch)
    assert fact_soundness_violation(SELF_LOOP, result, {"p": 1}, 10**6) is None
    assert sum(executed) < 40
