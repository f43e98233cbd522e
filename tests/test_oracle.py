from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copyprop.oracle as oracle
from copyprop import (
    EMPTY,
    Binary,
    Block,
    Branch,
    Const,
    Copy,
    CyclicGraphError,
    FactSet,
    GenParams,
    Nop,
    PathBudgetError,
    Program,
    Var,
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
from conftest import load_fixture, looped_counter, sequential_diamonds, straight_line
from strategies import VARIABLES, environments, programs


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
    prog = straight_line(*[Binary("x", "+", Var("x"), Const(1))] * 1200)
    paths = enumerate_paths(prog, prog.exit)
    assert paths == [tuple(f"B{i}" for i in range(1202))]
    assert mop_in(prog)[prog.exit] == EMPTY == run_acs(prog).in_sets[prog.exit]


def test_path_budget_admits_exactly_its_size():
    # 12 diamonds have 2**12 == PATH_BUDGET paths to the exit, 13 twice that
    assert oracle.PATH_BUDGET == 4096
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
    assert mop_in(prog) == {"B0": EMPTY, "B1": EMPTY, "B2": FactSet({"x": Const(1)})}
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
    monkeypatch.setattr(oracle, "PATH_BUDGET", 2**13)
    for walk in (lambda: enumerate_paths(prog, "X"), lambda: mop_in(prog)):
        with pytest.raises(CyclicGraphError):
            walk()


def test_step_budget_bounds_a_walk_within_the_path_budget(monkeypatch):
    # on 16 blocks, as in every fuzz program, a walk within the path budget
    # follows at most 4097 paths of 16 blocks and stays within the steps
    assert oracle.STEP_BUDGET == 2**17 > (oracle.PATH_BUDGET + 1) * 16
    # 2**12 paths, each through a 2000-copy tail: 8 million steps without it
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


def test_mop_fig1(fig1):
    mop = mop_in(fig1)
    assert mop["B4"] == FactSet({"y": Var("x")})
    assert mop["B2"] == EMPTY
    assert mop["B5"] == FactSet({"y": Var("x")})


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


@settings(max_examples=200)
@given(prog=programs())
def test_mop_matches_the_per_target_reference_on_any_program(prog):
    # cyclic graphs and unreachable blocks included: the one walk raises what
    # the walk toward the exit raises, or agrees with the reference
    try:
        enumerate_paths(prog, prog.exit)
    except (CyclicGraphError, PathBudgetError) as err:
        with pytest.raises(type(err)):
            mop_in(prog)
        with pytest.raises(type(err)):
            reference_mop(prog)
        return
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
    prog = straight_line(Binary("x", "/", Const(a), Const(b)))
    assert interpret(prog, {}, 10).final_env == {"x": expected}


def test_division_by_zero_is_runtime_error():
    prog = straight_line(Binary("x", "/", Const(1), Var("y")))
    trace = interpret(prog, {"y": 0}, 10)
    assert trace.status == "runtime-error"
    assert trace.error == "div-by-zero"
    assert trace.labels == ("B0",)  # the faulting block is not committed


def test_unbound_variable_is_runtime_error():
    prog = straight_line(Copy("x", Var("q")))
    trace = interpret(prog, {}, 10)
    assert trace.status == "runtime-error"
    assert trace.error == "unbound-variable q"


def test_arithmetic_wraps_64_bits():
    prog = straight_line(
        Binary("x", "+", Const(2**63 - 1), Const(1)),
        Binary("y", "*", Const(2**62), Const(4)),
        Binary("z", "-", Const(-(2**63)), Const(1)),
    )
    env = interpret(prog, {}, 10).final_env
    assert env == {"x": -(2**63), "y": 0, "z": 2**63 - 1}


def test_trace_records_env_after_each_step():
    prog = straight_line(Copy("x", Const(5)), Binary("x", "+", Var("x"), Const(1)))
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
    prog = straight_line(Copy("x", Const(5)))
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
    if isinstance(op, Const):
        return op.value
    try:
        return env[op.name]
    except KeyError:
        raise _RefStop(f"unbound-variable {op.name}") from None


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
        if isinstance(block.stmt, Copy) and block.stmt.dst == var and isinstance(block.stmt.src, Const):
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
    blocks["B2"] = Block(Binary("x", "+", Var("x"), Const(2**62)), ("B3",))
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
    assert all(isinstance(s, Copy) and isinstance(s.src, Const) for s in inits)
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
            assert isinstance(block.stmt.src, Const)


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
    bad_ins["B2"] = FactSet({"b": Const(5)})
    bad = AnalysisResult(bad_ins, res.out_sets, res.iterations)
    violation = fact_soundness_violation(fig2, bad, {"a": 3}, 100)
    assert violation is not None
    reason, step = violation
    assert "(b, 5)" in reason and "B2" in reason
    assert step == 2  # B0, B1, then the lie is visible entering B2


def test_replay_plan_lists_pairs_in_sort_order():
    rng = random.Random(3)
    for _ in range(40):
        prog = random_program(GenParams(seed=rng.randrange(2**32), num_vars=6, min_blocks=12, max_blocks=30))
        res = run_acs(prog)
        plan = oracle._replay_plan(res)
        assert set(plan) == {label for label, facts in res.in_sets.items() if facts}
        for label, pairs in plan.items():
            facts = res.in_sets[label]
            assert [dst for dst, _ in pairs] == sorted(facts)
            assert all(src == (facts[dst].value if isinstance(facts[dst], Const) else facts[dst].name) for dst, src in pairs)


def test_fact_replay_names_the_first_broken_pair_in_sort_order(fig2):
    res = run_acs(fig2)
    bad_ins = dict(res.in_sets)
    bad_ins["B2"] = FactSet({"z": Const(7), "b": Const(5)})
    bad = AnalysisResult(bad_ins, res.out_sets, res.iterations)
    reason, _ = fact_soundness_violation(fig2, bad, {"a": 3}, 100)
    assert "(b, 5)" in reason


def test_fact_replay_halts_with_program():
    # the replayed run stops at the same runtime error as the original
    prog = straight_line(Copy("x", Var("q")))
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


def test_differential_runs_the_original_once_per_input(monkeypatch):
    runs: list[Program] = []

    def counting(prog, *args, **kwargs):
        runs.append(prog)
        return interpret(prog, *args, **kwargs)

    monkeypatch.setattr(oracle, "interpret", counting)
    envs = [{"a": 1, "p": 0}, {"a": 2, "p": 1}, {"a": -3, "p": 5}]
    assert differential_check(TWO_ROUNDS, iter(envs), 100).ok
    assert sum(prog is TWO_ROUNDS for prog in runs) == len(envs)
    assert len(runs) == 3 * len(envs)  # original, one-pass and iterated


def test_differential_skips_an_iterated_program_equal_to_one_pass(fig2, monkeypatch):
    runs: list[Program] = []

    def counting(prog, *args, **kwargs):
        runs.append(prog)
        return interpret(prog, *args, **kwargs)

    monkeypatch.setattr(oracle, "interpret", counting)
    assert differential_check(fig2, [{"a": 3}, {"a": -1}], 100).ok
    assert len(runs) == 4  # original and one-pass per input


def test_differential_catches_a_broken_iterated_program(fig2, monkeypatch):
    def broken(prog, max_rounds):
        rewritten, report = transform_to_fixpoint(prog, max_rounds)
        return _with_stmt(rewritten, "B6", Copy("e", Const(99))), report

    monkeypatch.setattr(oracle, "transform_to_fixpoint", broken)
    verdict = differential_check(fig2, [{"a": 3}, {"a": -1}], 100)
    assert not verdict.ok
    assert verdict.reason == "final value of e differs: 3 vs 99"
    assert verdict.env == {"a": 3}


def test_differential_reports_the_one_pass_failure_first(fig2, monkeypatch):
    def broken_one(prog, result):
        rewritten, report = transform(prog, result)
        return _with_stmt(rewritten, "B6", Copy("e", Const(3))), report

    def broken_iterated(prog, max_rounds):
        rewritten, report = transform_to_fixpoint(prog, max_rounds)
        return _with_stmt(rewritten, "B6", Copy("e", Const(99))), report

    monkeypatch.setattr(oracle, "transform", broken_one)
    monkeypatch.setattr(oracle, "transform_to_fixpoint", broken_iterated)
    # the one-pass program is right on the first input, the iterated one is not
    verdict = differential_check(fig2, [{"a": 3}, {"a": -1}], 100)
    assert not verdict.ok
    assert verdict.reason == "final value of e differs: -1 vs 3"
    assert verdict.env == {"a": -1}


def test_differential_replays_facts_on_the_original_run(fig2, monkeypatch):
    """The planted (b, 5) lie of the replay test, reached through differential_check."""
    res = run_acs(fig2)
    bad_ins = dict(res.in_sets)
    bad_ins["B2"] = FactSet({"b": Const(5)})
    bad = AnalysisResult(bad_ins, res.out_sets, res.iterations)
    monkeypatch.setattr(oracle, "run_acs", lambda prog: bad)
    # the rewrite stays honest, so only the replay can see the lie
    monkeypatch.setattr(oracle, "transform", lambda prog, result: transform(prog, run_acs(prog)))
    reason, step = fact_soundness_violation(fig2, bad, {"a": 3}, 100)
    verdict = differential_check(fig2, [{"a": 3}], 100)
    assert verdict == oracle.Verdict(False, reason, {"a": 3}, 2)
    assert step == 2


# ------------------------------------------------- fast-forwarded fact replay
# The replay hook runs under `interpret`'s fast-forward: it stops checking
# once the (label, env) state repeats. The reference below checks every pair
# of the plan on every step of the step-by-step reference interpreter.


def reference_replay(prog: Program, plan: dict, env0: dict, fuel: int) -> tuple:
    """(labels, final_env, status, error) and the first (reason, step) at
    which a live value breaks a planned pair, or None."""
    found = []
    steps = iter(range(fuel))

    def check(label, env):
        step = next(steps)
        if found:
            return
        for dst, src in plan.get(label, ()):
            x = env.get(dst)
            e = src if isinstance(src, int) else env.get(src)
            if x is None or e is None or x != e:
                found.append((f"fact ({dst}, {src}) broken at {label}: {x} vs {e}", step))
                return

    observed = reference_interpret(prog, env0, fuel, on_step=check)
    return observed, found[0] if found else None


def fast_forwarded_replay(prog: Program, plan: dict, env0: dict, fuel: int) -> tuple:
    hook, found = oracle._fact_replay(plan)
    trace = interpret(prog, env0, fuel, on_step=hook)
    return _observed(trace), found[0] if found else None


def _with_lies(plan: dict, lies) -> dict:
    """plan with each (label, dst, src) appended to its label's pairs."""
    planted = dict(plan)
    for label, dst, src in lies:
        planted[label] = planted.get(label, ()) + ((dst, src),)
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
    plan = _with_lies(oracle._replay_plan(run_acs(prog)), lies_at)
    assert fast_forwarded_replay(prog, plan, env, fuel) == reference_replay(prog, plan, env, fuel)


def test_fast_forwarded_replay_matches_the_reference_on_random_programs():
    """3000 looping programs at fuel 1000: even seeds replay the solver's own
    IN sets through `fact_soundness_violation`, odd seeds add a planted lie
    at a random reachable block."""
    outcomes: Counter = Counter()
    for seed in range(3000):
        prog = random_program(GenParams(seed=seed, branch_prob=0.4, loop_prob=0.5))
        rng = random.Random(seed)
        env = {name: rng.randint(-4, 4) for name in sorted(variables(prog))}
        result = run_acs(prog)
        plan = oracle._replay_plan(result)
        if seed % 2 == 0:
            expected = reference_replay(prog, plan, env, 1000)
            assert fact_soundness_violation(prog, result, env, 1000) == expected[1] is None, seed
        else:
            label = rng.choice(sorted(result.in_sets))
            src = rng.choice([*sorted(variables(prog)), rng.randint(-4, 4)])
            plan = _with_lies(plan, [(label, rng.choice(sorted(variables(prog))), src)])
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
    plan = {"B3": (("x", 0),), "B6": (("x", "i"), ("x", 1))}
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
    assert oracle._replay_plan(result)["B2"] == (("x", 5),)
    executed = _executed_step_by_step(monkeypatch)
    assert fact_soundness_violation(SELF_LOOP, result, {"p": 1}, 10**6) is None
    assert sum(executed) < 40
