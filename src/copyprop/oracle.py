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
from functools import reduce
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

from .analysis import run_acs, transfer
from .dataflow import (
    EMPTY,
    AnalysisResult,
    FactSet,
    predecessors,
)
from .ir import (
    INT64_MAX,
    INT64_MIN,
    Binary,
    Block,
    Branch,
    Copy,
    Nop,
    Operand,
    Program,
    Statement,
    validate,
)
from .propagate import _moved_no_copy_source, transform, transform_to_fixpoint

INT64_MASK = (1 << 64) - 1
Env = dict[str, int]


class CyclicGraphError(ValueError):
    pass


class PathBudgetError(ValueError):
    pass


# most steps one path walk takes: pushing a block at path depth d costs d
STEP_BUDGET = 1 << 20


def enumerate_paths(prog: Program, target: str) -> list[tuple[str, ...]]:
    """All entry-to-target block sequences. A cycle reachable from the entry
    makes them infinite, and the walk raises `CyclicGraphError` on it.

    Depth-first in successor order with an explicit stack, so path length is
    not bounded by the interpreter's recursion limit. The walk goes on past
    the target, so it enters every reachable cycle, the target's included.
    Pushing a block at path depth d costs d steps, and the walk raises
    `PathBudgetError` once its steps pass `STEP_BUDGET`, whatever the target.
    """
    paths: list[tuple[str, ...]] = []
    steps = 0
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
        path.append(label)
        steps += len(path)
        if steps > STEP_BUDGET:
            raise PathBudgetError(f"more than {STEP_BUDGET} steps toward {target}")
        on_path.add(label)
        if label == target:
            paths.append(tuple(path))
        stack.append(iter(prog.blocks[label].succs))
    return paths


def mop_in(prog: Program) -> dict[str, FactSet]:
    """The meet over all entry paths of the transfer composition, excluding
    each block's own statement: the MOP IN of every reachable block. Ground
    truth for the solver where the paths are finite.

    One depth-first walk with the same rules as `enumerate_paths`: successor
    order, an explicit stack, `CyclicGraphError` on a block already on the
    path, and `PathBudgetError` once its steps pass `STEP_BUDGET`, a push at
    depth d costing d. The stack carries each path prefix's facts, so a
    block's statement is transferred once per push, and each arrival meets
    the facts into that block's. A fact set holds at most one pair per block
    on its path, so depth also bounds what one push transfers and meets.
    """
    ins: dict[str, FactSet] = {}
    steps = 0
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
        path.append(label)
        steps += len(path)
        if steps > STEP_BUDGET:
            raise PathBudgetError(f"more than {STEP_BUDGET} steps")
        on_path.add(label)
        seen = ins.get(label)
        ins[label] = facts if seen is None else seen.meet(facts)
        block = prog.blocks[label]
        stack.append((iter(block.succs), transfer(block.stmt, facts)))
    return ins


def solve_round_robin(prog: Program) -> AnalysisResult:
    """Sweep the stale blocks in label order until none is stale.

    Only the entry starts stale, and a block turns stale when a predecessor's
    OUT changes, so a block no OUT reaches is never solved. The entry's IN is
    empty; any other's is the meet of the OUTs its predecessors have. Shares
    no iteration logic with the reverse-postorder solver, by design: the two
    must land on the same fixpoint.
    """
    preds = predecessors(prog)
    ins: dict[str, FactSet] = {}
    outs: dict[str, FactSet] = {}
    stale = {prog.entry} & prog.blocks.keys()  # a label that is no block would stay stale
    sweeps = 0
    while stale:
        sweeps += 1
        for label, block in prog.blocks.items():
            if label not in stale:
                continue
            stale.remove(label)
            if label == prog.entry:
                in_f = EMPTY
            else:
                in_f = reduce(FactSet.meet, [outs[pred] for pred in preds[label] if pred in outs])
            ins[label] = in_f
            out_f = transfer(block.stmt, in_f)
            if out_f != outs.get(label):
                outs[label] = out_f
                stale.update(block.succs)
    return AnalysisResult(ins, outs, sweeps)


@dataclass(frozen=True)
class Trace:
    """A run's block sequence, kept as `prefix` then `cycle` repeated until
    `length` labels: `prefix` holds the labels the run executed before the
    loop it was fast-forwarded through, and `cycle` one lap of that loop, or
    () when the run was not fast-forwarded and `prefix` is all of it. The two
    hold as many labels as the run executed step by step, whatever the fuel."""

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]
    length: int
    final_env: Env
    status: str  # "exit" | "fuel-exhausted" | "runtime-error"
    error: str | None = None

    def head(self, count: int) -> tuple[str, ...]:
        """The first `count` labels of the run, at most `length`."""
        count = min(count, self.length)
        if count <= len(self.prefix):
            return self.prefix[:count]
        laps, rest = divmod(count - len(self.prefix), len(self.cycle))
        return self.prefix + self.cycle * laps + self.cycle[:rest]

    @property
    def labels(self) -> tuple[str, ...]:
        """Every label of the run, one per executed block: `length` of them."""
        return self.head(self.length)


def _wrap(value: int) -> int:
    return ((value + (1 << 63)) & INT64_MASK) - (1 << 63)


# kind, dst, first operand, second operand, next label, branch-not-taken label
Decoded = tuple[str, str | None, Operand | None, Operand | None, str, str | None]


def _decode(prog: Program) -> dict[str, Decoded]:
    """Each block as a tuple the interpreter dispatches on. The kind is "=" for
    a copy, the operator for a binary, "?" for a branch and "" for a nop; the
    operands are the statement's own. `interpret` decodes a program once and
    keeps the result on it (see `Program`)."""
    code: dict[str, Decoded] = {}
    for label, block in prog.blocks.items():
        stmt, succs = block.stmt, block.succs
        nxt = succs[0] if succs else ""
        kind = stmt.__class__
        if kind is Copy:
            code[label] = ("=", stmt.dst, stmt.src, None, nxt, None)
        elif kind is Binary:
            code[label] = (stmt.op, stmt.dst, stmt.lhs, stmt.rhs, nxt, None)
        elif kind is Branch:
            code[label] = ("?", None, stmt.cond, None, nxt, succs[1])
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
    run would have ended. The trace keeps the labels of those `period` steps
    once, as its cycle, and counts the whole laps the fuel leaves without
    running them; the last few steps run only for the final environment. So
    the trace is exactly that of a run executing every step, at a cost in
    steps and in memory of the loop's start plus its length instead of `fuel`.
    `on_step` sees each block label with the environment before its statement
    runs, on every step until the run is fast-forwarded and none after. That
    is never before the first repeated state, so the hook sees every state of
    the run at least once: it suits a check of the state that keeps its first
    finding, such as the fact replay. A program is decoded on its first run
    only (`_decode`).
    """
    code = prog._derive(_decode)
    env = dict(env0)
    labels: list[str] = []
    label, status, error, period = _run(code, prog.exit, prog.entry, env, labels, fuel, on_step)
    if not period:
        return Trace(tuple(labels), (), len(labels), env, status, error)
    start = len(labels) - period
    rest = (fuel - start) % period
    _run(code, prog.exit, label, env, [], rest, None)
    return Trace(tuple(labels[:start]), tuple(labels[start:]), fuel, env, status, error)


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
            return rng.choice(pool)
        return rng.randint(CONST_MIN, CONST_MAX)

    blocks[labels[0]] = Block(Nop(), (labels[1],))
    for i, name in enumerate(pool, start=1):
        blocks[labels[i]] = Block(Copy(name, rng.randint(CONST_MIN, CONST_MAX)), (labels[i + 1],))
    for i in range(len(pool) + 1, total - 1):
        label = labels[i]
        if rng.random() < params.branch_prob:
            if rng.random() < params.loop_prob:
                other = labels[rng.randint(1, i)]
            else:
                other = labels[rng.randint(i + 1, total - 1)]
            blocks[label] = Block(Branch(rng.choice(pool)), (labels[i + 1], other))
            continue
        if rng.random() < COPY_RATIO:
            if params.const_copy_only or rng.random() < 0.4:
                src: Operand = rng.randint(CONST_MIN, CONST_MAX)
            else:
                src = rng.choice(pool)
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


def _fact_replay(in_sets: Mapping[str, Mapping[str, Operand]]) -> tuple[StepHook, list[tuple[str, int]]]:
    """The `on_step` hook of `fact_soundness_violation` over the IN sets of
    each label. The first violation lands in the returned list as (reason,
    step index), and names the smallest broken destination of its step, so
    the finding does not follow the order a set was built in. A step's
    verdict depends on its (label, env) state alone and only the first
    finding is kept, so the steps `interpret` fast-forwards need no check."""
    found: list[tuple[str, int]] = []
    get = in_sets.get
    step = -1

    def check(label: str, env: Env) -> None:
        nonlocal step
        step += 1
        if found:
            return
        facts = get(label, EMPTY)
        for dst, src in facts.items():
            # env is keyed by names only: env.get(src, src) is a constant
            # itself, and a name read unbound stays a str, which no value equals
            if env.get(dst) != env.get(src, src):
                dst = min(d for d, s in facts.items() if env.get(d) != env.get(s, s))
                src = facts[dst]
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
    hook, found = _fact_replay(result.in_sets)
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
    if (t1.prefix, t1.cycle, t1.length) != (t2.prefix, t2.cycle, t2.length):
        # Past both prefixes both runs repeat their cycles, and two periodic
        # sequences that agree on as many labels as their periods sum to agree
        # for good (Fine and Wilf): the first difference, if any, is in that window.
        shorter = min(t1.length, t2.length)
        window = min(max(len(t1.prefix), len(t2.prefix)) + len(t1.cycle) + len(t2.cycle), shorter)
        step = next(
            (i for i, (a, b) in enumerate(zip(t1.head(window), t2.head(window))) if a != b),
            None if t1.length == t2.length else shorter,
        )
        if step is not None:
            return Verdict(False, f"trace divergence at step {step}", env0, step)
    if t1.final_env != t2.final_env:
        keys = set(t1.final_env) | set(t2.final_env)
        bad = min(k for k in keys if t1.final_env.get(k) != t2.final_env.get(k))
        return Verdict(
            False,
            f"final value of {bad} differs: {t1.final_env.get(bad)} vs {t2.final_env.get(bad)}",
            env0,
        )
    return None


def _reads_input(
    trace: Trace,
    codes: list[dict[str, Decoded]],
    in_sets: Mapping[str, Mapping[str, Operand]],
    names: Iterable[str],
) -> bool:
    """Whether a run reads one of `names` before assigning it: `trace` is
    the run of the first program of `codes`, the others are read along the
    same labels, and the fact replay of `in_sets` reads both sides of each
    IN pair before the block's statement runs. A block whose target differs
    between the programs counts as reading its targets, as a name assigned in
    one program and not in another ends with its input value in the latter.

    The names assigned only grow along a run, so a block reads the most
    unassigned names on its first visit, and the blocks run before that visit
    are those first visited before it: one pass over the first visits, in
    order, is enough. They all lie in `prefix` and one lap of `cycle`, and
    the pass stops at the first read or once every name is assigned."""
    unassigned = set(names)
    for label in dict.fromkeys(chain(trace.prefix, trace.cycle)):
        if not unassigned:
            return False
        target = codes[0][label][1]
        for code in codes:
            _, dst, a, b, _, _ = code[label]
            if not unassigned.isdisjoint((a, b) if dst == target else (a, b, dst, target)):
                return True
        facts = in_sets.get(label, EMPTY)
        if not (unassigned.isdisjoint(facts) and unassigned.isdisjoint(facts.values())):
            return True
        unassigned.discard(target)
    return False


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
    on each input until one run reads no input (below), and every variant is
    compared against that run; the same run replays the analysis' IN sets
    against live values, as in `fact_soundness_violation`. The first failure
    is reported in this order: the one-pass program over all inputs, each
    input's fact violation right after its comparison, then the iterated
    program. An iterated program equal to the one-pass program is not run:
    runs are deterministic. It is not even built when the one pass moved no
    copy source, as the next round would replace nothing
    (`propagate._moved_no_copy_source`). `result` is the availability
    solution of prog when the caller already has it; otherwise it is solved
    here.

    Shared runs. Once an input's original run ends at the exit or out of
    fuel and no run reads one of its values before assigning it (the
    original, the one-pass program, the iterated program when it ran, and
    the fact replay: `_reads_input`), later inputs are drawn from `envs` but
    not run. The verdict is what running them gives. A read of a name the
    input lacks would have ended the run as `unbound-variable`, and the
    replay flags a pair with a missing side, so every read was of an
    assigned name: any later input, whatever names it carries, gives the
    same labels, status, error and replay finding. A name no program assigns
    keeps that input's value in each; one that a program assigns and another
    does not is a differing target, read, when the input holds it, and a
    final value missing on one side when it does not. So the final values
    compare the same. An iterated program that failed is not run again.
    Brent's fast-forward (`_run`) compares whole environments, unread names
    included, so a later input may cut its trace elsewhere; no verdict
    depends on the cut. A run that ends in a runtime error shares nothing:
    `_run` returns before it appends the failing block, so its trace misses
    that block's reads.
    """
    if result is None:
        result = run_acs(prog)
    one, report = transform(prog, result)
    iterated: Program | None = None
    if not _moved_no_copy_source(report):
        iterated = transform_to_fixpoint(one, ROUNDS - 1)[0]
        if iterated == one:
            iterated = None
    iterated_failure: Verdict | None = None
    shared = False  # a run that read no input gives every later input's verdict
    for env0 in envs:  # drawn to the end: a lazy caller's rng goes on to later programs
        if shared:
            continue
        hook, found = _fact_replay(result.in_sets)
        original = interpret(prog, env0, fuel, on_step=hook)
        verdict = _difference(original, interpret(one, env0, fuel), env0)
        if verdict is not None:
            return verdict
        if found:
            return Verdict(False, found[0][0], env0, found[0][1])
        ran = [prog, one]
        if iterated is not None and iterated_failure is None:
            iterated_failure = _difference(original, interpret(iterated, env0, fuel), env0)
            ran.append(iterated)
        if original.status != "runtime-error":
            shared = not _reads_input(original, [p._derive(_decode) for p in ran], result.in_sets, env0)
    return iterated_failure or Verdict(True)
