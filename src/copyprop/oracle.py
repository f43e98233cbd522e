"""Independent checking machinery.

Everything here recomputes results by other means than the reverse-postorder
solver: meet-over-paths by one depth-first walk over every entry-to-exit path,
a round-robin solver, a concrete interpreter with a fuel budget, a random
program generator, and a differential check that runs original and
transformed programs side by side while replaying availability facts against
live values.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .analysis import run_acs, transfer
from .dataflow import (
    EMPTY,
    AnalysisResult,
    FactSet,
    predecessors,
    reverse_postorder,
)
from .ir import (
    INT64_MAX,
    INT64_MIN,
    Binary,
    Block,
    Branch,
    Const,
    Copy,
    Nop,
    Operand,
    Program,
    Statement,
    Var,
    natural_key,
    validate,
)
from .propagate import transform, transform_to_fixpoint

INT64_MASK = (1 << 64) - 1
Env = dict[str, int]


class CyclicGraphError(ValueError):
    pass


class PathBudgetError(ValueError):
    pass


# most entry-to-exit paths `enumerate_paths` and `mop_in` walk, whatever the target
PATH_BUDGET = 4096
# most blocks one walk pushes onto its path, however few paths it follows
STEP_BUDGET = 1 << 17


def enumerate_paths(prog: Program, target: str) -> list[tuple[str, ...]]:
    """All entry-to-target block sequences. A cycle reachable from the entry
    makes them infinite, and the walk raises `CyclicGraphError` on it.

    Depth-first in successor order with an explicit stack, so path length is
    not bounded by the interpreter's recursion limit. The walk goes on past
    the target, so it enters every reachable cycle, the target's included.
    The number of paths grows exponentially with sequential branches, so it
    raises `PathBudgetError` once it has followed more than `PATH_BUDGET`
    whole entry-to-exit paths, whatever the target, or pushed more than
    `STEP_BUDGET` blocks onto its path, which bounds its work on long paths.
    """
    paths: list[tuple[str, ...]] = []
    walked = steps = 0
    path: list[str] = []
    on_path: set[str] = set()
    # stack[i + 1] iterates the successors of path[i]; stack[0] yields the entry
    stack: list[Iterator[str]] = [iter((prog.entry,))]
    while stack:
        label = next(stack[-1], None)
        if label is None:
            stack.pop()
            if stack:
                on_path.discard(path.pop())
            continue
        if label in on_path:
            raise CyclicGraphError("cyclic-cfg")
        steps += 1
        if steps > STEP_BUDGET:
            raise PathBudgetError(f"more than {STEP_BUDGET} steps toward {target}")
        path.append(label)
        on_path.add(label)
        if label == target:
            paths.append(tuple(path))
        succs = prog.blocks[label].succs
        if not succs:
            walked += 1
            if walked > PATH_BUDGET:
                raise PathBudgetError(f"more than {PATH_BUDGET} paths toward {target}")
        stack.append(iter(succs))
    return paths


def mop_in(prog: Program) -> dict[str, FactSet]:
    """The meet over all entry paths of the transfer composition, excluding
    each block's own statement: the MOP IN of every reachable block. Ground
    truth for the solver where the paths are finite.

    One depth-first walk with the same rules as `enumerate_paths`: successor
    order, an explicit stack, `CyclicGraphError` on a block already on the
    path, and `PathBudgetError` once more than `PATH_BUDGET` whole
    entry-to-exit paths are followed or more than `STEP_BUDGET` blocks are
    pushed. The stack carries each path prefix's facts, so a block's
    statement is transferred once per push and not once per path through it,
    at most `STEP_BUDGET` times, and each arrival meets the facts into that
    block's.
    """
    ins: dict[str, FactSet] = {}
    walked = steps = 0
    path: list[str] = []
    on_path: set[str] = set()
    # stack[i + 1] iterates the successors of path[i] with its OUT facts;
    # stack[0] yields the entry with none
    stack: list[tuple[Iterator[str], FactSet]] = [(iter((prog.entry,)), EMPTY)]
    while stack:
        succs, facts = stack[-1]
        label = next(succs, None)
        if label is None:
            stack.pop()
            if stack:
                on_path.discard(path.pop())
            continue
        if label in on_path:
            raise CyclicGraphError("cyclic-cfg")
        steps += 1
        if steps > STEP_BUDGET:
            raise PathBudgetError(f"more than {STEP_BUDGET} steps")
        path.append(label)
        on_path.add(label)
        seen = ins.get(label)
        ins[label] = facts if seen is None else seen.meet(facts)
        block = prog.blocks[label]
        if not block.succs:
            walked += 1
            if walked > PATH_BUDGET:
                raise PathBudgetError(f"more than {PATH_BUDGET} paths")
        stack.append((iter(block.succs), transfer(block.stmt, facts)))
    return ins


def solve_round_robin(prog: Program) -> AnalysisResult:
    """Sweep the reachable blocks in label order until nothing changes.

    The entry's IN is empty; any other block's IN is the meet of the OUTs its
    predecessors have, and a sweep skips the block while none has one.
    Deliberately shares no iteration logic with the reverse-postorder
    solver; the two must land on the same fixpoint.
    """
    preds = predecessors(prog)
    labels = sorted(reverse_postorder(prog), key=natural_key)
    ins: dict[str, FactSet] = {}
    outs: dict[str, FactSet] = {}
    sweeps = 0
    changed = True
    while changed:
        changed = False
        sweeps += 1
        for label in labels:
            if label == prog.entry:
                in_f = EMPTY
            else:
                solved = [outs[pred] for pred in preds[label] if pred in outs]
                if not solved:
                    continue
                in_f = solved[0]
                for out in solved[1:]:
                    in_f = in_f.meet(out)
            out_f = transfer(prog.blocks[label].stmt, in_f)
            if in_f != ins.get(label) or out_f != outs.get(label):
                ins[label] = in_f
                outs[label] = out_f
                changed = True
    return AnalysisResult(ins, outs, sweeps)


@dataclass(frozen=True)
class Trace:
    labels: tuple[str, ...]
    final_env: Env
    status: str  # "exit" | "fuel-exhausted" | "runtime-error"
    error: str | None = None


def _wrap(value: int) -> int:
    return ((value + (1 << 63)) & INT64_MASK) - (1 << 63)


# kind, dst, first operand, second operand, next label, branch-not-taken label
Decoded = tuple[str, str | None, int | str | None, int | str | None, str, str | None]


def _decode(prog: Program) -> dict[str, Decoded]:
    """Each block as a tuple the interpreter dispatches on. The kind is "=" for
    a copy, the operator for a binary, "?" for a branch and "" for a nop; an
    operand is its int if constant, else its name (inline: a call per operand
    is a noticeable share of a short run)."""
    code: dict[str, Decoded] = {}
    for label, block in prog.blocks.items():
        stmt, succs = block.stmt, block.succs
        nxt = succs[0] if succs else ""
        kind = stmt.__class__
        if kind is Copy:
            src = stmt.src
            code[label] = ("=", stmt.dst, src.value if src.__class__ is Const else src.name, None, nxt, None)
        elif kind is Binary:
            lhs, rhs = stmt.lhs, stmt.rhs
            code[label] = (
                stmt.op,
                stmt.dst,
                lhs.value if lhs.__class__ is Const else lhs.name,
                rhs.value if rhs.__class__ is Const else rhs.name,
                nxt,
                None,
            )
        elif kind is Branch:
            cond = stmt.cond
            code[label] = ("?", None, cond.value if cond.__class__ is Const else cond.name, None, nxt, succs[1])
        else:
            code[label] = ("", None, None, None, nxt, None)
    return code


StepHook = Callable[[str, Env], None]


def _run(
    code: dict[str, Decoded],
    exit_label: str,
    label: str,
    env: Env,
    labels: list[str],
    steps: int,
    on_step: StepHook | None,
) -> tuple[str, str, str | None, int]:
    """Execute at most `steps` blocks from `label`, updating `env` and
    appending each executed label. Returns (next label, status, error, period).

    Brent's cycle detection runs on the (label, env) state: one state is
    saved, and replaced whenever the steps since it reach the next power of
    two, starting from the block count so that a run shorter than the program
    copies nothing. A run that meets its saved state again stops there with
    the steps since it as `period`, the length of the loop it is caught in;
    otherwise `period` is 0.
    """
    append = labels.append
    saved_label = saved_env = None
    power, period = len(code), 1
    for _ in range(steps):
        kind, dst, a, b, nxt, alt = code[label]
        if on_step is not None:
            on_step(label, env)
        try:
            if kind == "=":
                env[dst] = a if type(a) is int else env[a]
            elif kind == "?":
                if (a if type(a) is int else env[a]) == 0:
                    nxt = alt
            elif kind:
                x = a if type(a) is int else env[a]
                y = b if type(b) is int else env[b]
                if kind == "+":
                    value = x + y
                elif kind == "-":
                    value = x - y
                elif kind == "*":
                    value = x * y
                elif y == 0:
                    return label, "runtime-error", "div-by-zero", 0
                else:
                    value = abs(x) // abs(y)
                    if (x < 0) != (y < 0):
                        value = -value
                if not INT64_MIN <= value <= INT64_MAX:
                    value = _wrap(value)
                env[dst] = value
        except KeyError as err:
            return label, "runtime-error", f"unbound-variable {err.args[0]}", 0
        append(label)
        if label == exit_label:
            return label, "exit", None, 0
        label = nxt
        if label == saved_label and env == saved_env:
            return label, "fuel-exhausted", None, period
        if period == power:
            saved_label, saved_env = label, dict(env)
            power *= 2
            period = 0
        period += 1
    return label, "fuel-exhausted", None, 0


def interpret(prog: Program, env0: Env, fuel: int, *, on_step: StepHook | None = None) -> Trace:
    """Run the program concretely, at most `fuel` block executions.

    Arithmetic wraps around 64 signed bits and division truncates toward
    zero. A nonzero branch condition takes the first successor. Division by
    zero and reads of unbound variables end the run as a runtime error.

    The run is fast-forwarded once it reaches a (label, environment) state it
    was in `period` steps before (Brent's cycle detection, see `_run`). Runs
    are deterministic, so from there it repeats those blocks until the fuel
    runs out, and that loop holds neither the exit nor a runtime error, or the
    run would have ended. Their labels are appended once per whole lap the
    fuel leaves and the last few steps run as usual: the trace is exactly that
    of a run executing every step, at a cost in steps of the loop's start plus
    its length instead of `fuel`. `on_step` sees each block label with the
    environment before its statement runs, on every step until the run is
    fast-forwarded and none after. That is never before the first repeated
    state, so the hook sees every state of the run at least once: it suits a
    check of the state that keeps its first finding, such as the fact replay.
    """
    code = _decode(prog)
    env = dict(env0)
    labels: list[str] = []
    label, status, error, period = _run(code, prog.exit, prog.entry, env, labels, fuel, on_step)
    if period:
        laps, rest = divmod(fuel - len(labels), period)
        labels.extend(labels[-period:] * laps)
        label, status, error, _ = _run(code, prog.exit, label, env, labels, rest, None)
    return Trace(tuple(labels), env, status, error)


# `random_program`'s constant range and share of copies among body statements
CONST_MIN, CONST_MAX = -8, 8
COPY_RATIO = 0.5


@dataclass(frozen=True)
class GenParams:
    seed: int = 0
    min_blocks: int = 8
    max_blocks: int = 16
    num_vars: int = 4
    branch_prob: float = 0.25
    loop_prob: float = 0.1
    allow_div: bool = False
    const_copy_only: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.num_vars <= 26:
            raise ValueError("num_vars must be in 1..26")
        # entry + exit + one init block per variable must fit
        if self.min_blocks < self.num_vars + 3:
            raise ValueError("min_blocks too small for the variable pool")
        if self.max_blocks < self.min_blocks:
            raise ValueError("max_blocks below min_blocks")
        for p in (self.branch_prob, self.loop_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")


def random_program(params: GenParams) -> Program:
    """Deterministic random program for the given params.

    Always valid: a nop entry, one constant assignment per pool variable so
    nothing is ever read unbound, a body of copies, binaries and branches,
    and a nop exit. Back edges only appear with loop_prob; with it at zero
    every edge goes forward, so the graph is acyclic.
    """
    rng = random.Random(params.seed)
    pool = list(string.ascii_lowercase[: params.num_vars])
    total = rng.randint(params.min_blocks, params.max_blocks)
    labels = [f"B{i}" for i in range(total)]
    ops = ["+", "-", "*"] + (["/"] if params.allow_div else [])
    blocks: dict[str, Block] = {}

    def operand() -> Operand:
        if rng.random() < 0.7:
            return Var(rng.choice(pool))
        return Const(rng.randint(CONST_MIN, CONST_MAX))

    blocks[labels[0]] = Block(Nop(), (labels[1],))
    for i, name in enumerate(pool, start=1):
        const = Const(rng.randint(CONST_MIN, CONST_MAX))
        blocks[labels[i]] = Block(Copy(name, const), (labels[i + 1],))
    for i in range(len(pool) + 1, total - 1):
        label = labels[i]
        if rng.random() < params.branch_prob:
            if rng.random() < params.loop_prob:
                other = labels[rng.randint(1, i)]
            else:
                other = labels[rng.randint(i + 1, total - 1)]
            blocks[label] = Block(Branch(Var(rng.choice(pool))), (labels[i + 1], other))
            continue
        if rng.random() < COPY_RATIO:
            if params.const_copy_only or rng.random() < 0.4:
                src: Operand = Const(rng.randint(CONST_MIN, CONST_MAX))
            else:
                src = Var(rng.choice(pool))
            stmt: Statement = Copy(rng.choice(pool), src)
        else:
            stmt = Binary(rng.choice(pool), rng.choice(ops), operand(), operand())
        blocks[label] = Block(stmt, (labels[i + 1],))
    blocks[labels[-1]] = Block(Nop(), ())
    prog = Program(blocks, labels[0], labels[-1])
    diags = validate(prog)
    if diags:  # a generator bug, not a caller error
        raise AssertionError(f"generated invalid program: {diags}")
    return prog


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str | None = None
    env: Env | None = None
    step: int | None = None


ReplayPlan = dict[str, tuple[tuple[str, int | str], ...]]


def _replay_plan(result: AnalysisResult) -> ReplayPlan:
    """Each reachable block's IN pairs as (dst, src), in destination order
    so the first broken pair a replay names does not follow string hashing.
    A source is decoded as `_decode` decodes operands: a constant as its int,
    a variable as its name."""
    plan = {}
    for label, facts in result.in_sets.items():
        if facts:
            plan[label] = tuple(
                (dst, src.value if isinstance(src, Const) else src.name)
                for dst, src in sorted(facts.items())  # by dst alone: dsts are unique
            )
    return plan


def _fact_replay(plan: ReplayPlan) -> tuple[StepHook | None, list[tuple[str, int]]]:
    """The `on_step` hook of `fact_soundness_violation` over a `_replay_plan`.
    The first violation lands in the returned list as (reason, step index).
    The hook is None for an empty plan, where nothing can fail. A step's
    verdict depends on its (label, env) state alone and only the first
    finding is kept, so the steps `interpret` fast-forwards need no check."""
    found: list[tuple[str, int]] = []
    if not plan:
        return None, found
    get = plan.get
    step = -1

    def check(label: str, env: Env) -> None:
        nonlocal step
        step += 1
        if found:
            return
        for dst, src in get(label, ()):
            # env is keyed by names only: env.get(src, src) is a constant
            # itself, and a name read unbound stays a str, which no value equals
            if env.get(dst) != env.get(src, src):
                want = env.get(src) if isinstance(src, str) else src
                found.append((f"fact ({dst}, {src}) broken at {label}: {env.get(dst)} vs {want}", step))
                return

    return check, found


def fact_soundness_violation(
    prog: Program, result: AnalysisResult, env0: Env, fuel: int
) -> tuple[str, int] | None:
    """Replay one run, checking every available pair against live values.

    At each executed block, every (x, e) in its IN set must satisfy
    value(x) == value(e) in the environment before the statement runs.
    Returns (reason, step index) for the first violation, or None. The run
    is fast-forwarded once its (label, env) state repeats: every later step
    is in a state already checked, so the first violation comes before.
    """
    hook, found = _fact_replay(_replay_plan(result))
    interpret(prog, env0, fuel, on_step=hook)
    return found[0] if found else None


def _difference(t1: Trace, t2: Trace, env0: Env) -> Verdict | None:
    """How the variant's run t2 first differs from the original's run t1, if at all."""
    if t1.status != t2.status or t1.error != t2.error:
        return Verdict(
            False,
            f"status mismatch: {t1.status}/{t1.error} vs {t2.status}/{t2.error}",
            env0,
        )
    if t1.labels != t2.labels:
        step = next(
            (i for i, (a, b) in enumerate(zip(t1.labels, t2.labels)) if a != b),
            min(len(t1.labels), len(t2.labels)),
        )
        return Verdict(False, f"trace divergence at step {step}", env0, step)
    if t1.final_env != t2.final_env:
        keys = set(t1.final_env) | set(t2.final_env)
        bad = sorted(k for k in keys if t1.final_env.get(k) != t2.final_env.get(k))[0]
        return Verdict(
            False,
            f"final value of {bad} differs: {t1.final_env.get(bad)} vs {t2.final_env.get(bad)}",
            env0,
        )
    return None


ROUNDS = 10


def differential_check(
    prog: Program, envs: Iterable[Env], fuel: int, *, result: AnalysisResult | None = None
) -> Verdict:
    """Compare original and transformed runs over the given inputs.

    Equivalence means the same termination status, the same block sequence
    (hence the same branch decisions), and the same final environment. Two
    variants are compared: the one-pass program, and the program rewritten
    until a round changes nothing or `ROUNDS` rounds are done, continued from
    the one-pass program so the original is solved once. The original runs
    once per input and every variant is compared against that run; the same
    run replays the analysis' IN sets against live values, as in
    `fact_soundness_violation`. The first failure is reported in this order:
    the one-pass program over all inputs, each input's fact violation right
    after its comparison, then the iterated program. An iterated program
    equal to the one-pass program is not run: runs are deterministic.
    `result` is the availability solution of prog when the caller already
    has it; otherwise it is solved here.
    """
    if result is None:
        result = run_acs(prog)
    one, _ = transform(prog, result)
    iterated: Program | None = transform_to_fixpoint(one, ROUNDS - 1)[0]
    if iterated == one:
        iterated = None
    plan = _replay_plan(result)
    iterated_failure: Verdict | None = None
    for env0 in envs:
        hook, found = _fact_replay(plan)
        original = interpret(prog, env0, fuel, on_step=hook)
        verdict = _difference(original, interpret(one, env0, fuel), env0)
        if verdict is not None:
            return verdict
        if found:
            return Verdict(False, found[0][0], env0, found[0][1])
        if iterated is not None and iterated_failure is None:
            iterated_failure = _difference(original, interpret(iterated, env0, fuel), env0)
    return iterated_failure or Verdict(True)
