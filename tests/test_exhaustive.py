"""Bounded-exhaustive checking: every small program, not a sample.

Most bugs show on small inputs (the small-scope hypothesis, Jackson,
*Software Abstractions*, 2006), so the corpus holds every program of a few
statements over three variables `a`, `b`, `c` and the constant 1 (Sullivan et
al., ISSTA 2004). Its statements are the six variable copies, the three
constant copies `x = 1` and the three kills `x = x + 1`; its programs are
every straight line of 1 to 4 statements, every diamond
`[s]; branch a -> s | s; s` and every do-while `[s]; s; s; branch a -> back |
exit`, where `[s]` is an optional statement. A program whose listing differs
from an earlier one only in variable names is left out: 46,956 programs, of
which 15,971 are kept.

Each program goes through the checks of `copyprop check` (`cli._check_one`)
on two fixed inputs: unchanged, every one passes; under each planted mutant
of `test_mutants.py`, some program fails.
"""

from __future__ import annotations

import argparse
import itertools
from collections import Counter

import pytest

import copyprop.cli as cli
from copyprop import Binary, Block, Branch, Copy, Nop, Program, Statement, format_statement, print_program
from test_mutants import MUTANTS

VARS = ("a", "b", "c")
STATEMENTS: tuple[Statement, ...] = (
    *(Copy(x, y) for x in VARS for y in VARS if x != y),
    *(Copy(x, 1) for x in VARS),
    *(Binary(x, "+", x, 1) for x in VARS),
)
BRANCH = Branch("a")
ENVS = ({"a": 0, "b": 5, "c": -3}, {"a": 7, "b": 7, "c": 2})
ARGS = argparse.Namespace(fuel=200)

# each statement's listing as tokens, for the renaming
_TOKENS = {stmt: tuple(format_statement(stmt).split()) for stmt in (*STATEMENTS, BRANCH)}


def _shapes():
    """Every program as (statements, jumps): the statements of B1..Bn in
    order, and the successor indices of each block that does not fall
    through to the next one."""
    for n in range(1, 5):
        for body in itertools.product(STATEMENTS, repeat=n):
            yield body, {}
    for pre in [(), *((stmt,) for stmt in STATEMENTS)]:
        k = len(pre)
        for arms_and_join in itertools.product(STATEMENTS, repeat=3):
            yield (*pre, BRANCH, *arms_and_join), {k + 1: (k + 2, k + 3), k + 2: (k + 4,)}
    for pre in [(), *((stmt,) for stmt in STATEMENTS)]:
        k = len(pre)
        for body in itertools.product(STATEMENTS, repeat=2):
            yield (*pre, *body, BRANCH), {k + 3: (k + 1, k + 4)}


def _renamed(stmts: tuple[Statement, ...]) -> tuple[object, ...]:
    """The statements' listing with each variable numbered in order of first appearance."""
    names: dict[str, int] = {}
    return tuple(names.setdefault(tok, len(names)) if tok in VARS else tok for stmt in stmts for tok in _TOKENS[stmt])


def _program(stmts: tuple[Statement, ...], jumps: dict[int, tuple[int, ...]]) -> Program:
    """Entry B0, then B1..Bn holding `stmts`, then the exit B(n+1)."""
    n = len(stmts)
    blocks = {"B0": Block(Nop(), ("B1",)), f"B{n + 1}": Block(Nop(), ())}
    for i, stmt in enumerate(stmts, start=1):
        blocks[f"B{i}"] = Block(stmt, tuple(f"B{j}" for j in jumps.get(i, (i + 1,))))
    return Program(blocks, "B0", f"B{n + 1}")


@pytest.fixture(scope="module")
def corpus() -> list[Program]:
    """The first program of each renaming class, in generation order: the
    straight lines by length, then the diamonds, then the do-whiles."""
    first: dict[tuple[object, ...], tuple] = {}
    for stmts, jumps in _shapes():
        first.setdefault((*jumps.items(), _renamed(stmts)), (stmts, jumps))
    return [_program(stmts, jumps) for stmts, jumps in first.values()]


def test_the_corpus_holds_every_small_program(corpus):
    assert sum(1 for _ in _shapes()) == 46_956
    assert len(corpus) == 15_971


def test_every_small_program_passes_every_check(corpus):
    """ac5-ac8 on the whole corpus: the rewrite keeps every run (ac6), every
    IN fact holds in the runs (ac7), round robin reaches the same fixpoint
    (ac8), and so does meet-over-paths (ac5) on every program but the 942
    do-whiles, whose cycle it cannot walk."""
    outcomes: Counter[tuple[str, str | None]] = Counter()
    for prog in corpus:
        check, verdict = cli._check_one(prog, ENVS, ARGS)
        assert verdict.ok, (print_program(prog), check, verdict)
        outcomes[check, verdict.reason] += 1
    print(dict(outcomes))
    assert outcomes == {("mop", None): 15_029, ("solver-agreement", "cyclic-cfg"): 942}


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda mutant: mutant.__name__)
def test_some_small_program_kills_the_mutant(mutant, corpus):
    """The first program that fails under the mutant is printed; a
    `ValueError` inside the checks, such as a cyclic fact set, fails them too."""
    with pytest.MonkeyPatch.context() as mp:
        mutant(mp)
        for index, prog in enumerate(corpus):
            check, verdict = cli._check_one(prog, ENVS, ARGS)
            if not verdict.ok:
                break
        else:
            pytest.fail(f"{mutant.__name__} survives every small program")
    print(f"program {index} kills {mutant.__name__} at {check}: {verdict.reason}")
    print(print_program(prog), end="")
