"""Order independence as a metamorphic property (Chen, Cheung & Yiu, 1998).

Renaming a program's labels by one bijection and its variables by another,
and listing its blocks in any order, must rename every result by the same
bijections and change nothing else. A `Program` keeps its blocks in
`natural_key` order, so a renaming may move blocks in that order, and the
listing order must not reach any result at all.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copyprop import (
    Binary,
    Block,
    Branch,
    Copy,
    CyclicGraphError,
    FactSet,
    PathBudgetError,
    Program,
    Replacement,
    classic_transform,
    differential_check,
    mop_in,
    print_program,
    run_acs,
    solve_round_robin,
    transform,
    transform_to_fixpoint,
)
from copyprop.cli import main
from copyprop.ir import natural_key, parse_program, variables
from conftest import FIXTURES
from strategies import VARIABLES, environments, programs
from test_golden import FILE_COMMANDS, FIXTURE_NAMES, GOLDEN

# names the bijections draw from; B01, B010 and L10 tie with or cross
# B1, B10 and L2 in natural order
LABEL_POOL = [f"B{i}" for i in range(12)] + ["B01", "B010", "L2", "L10", "x", "_7", "Z", "b"]
VARIABLE_POOL = ["a", "b", "c", "d", "x", "y", "z", "t", "v2", "v10"]
FUEL = 200


class Renaming:
    """A bijection on labels and one on variables, applied to programs and
    to every result the package derives from one."""

    def __init__(self, labels: dict[str, str], names: dict[str, str]) -> None:
        self.labels = labels
        self.names = names

    def operand(self, op):
        return self.names[op] if isinstance(op, str) else op

    def statement(self, stmt):
        if isinstance(stmt, Copy):
            return Copy(self.names[stmt.dst], self.operand(stmt.src))
        if isinstance(stmt, Binary):
            return Binary(self.names[stmt.dst], stmt.op, self.operand(stmt.lhs), self.operand(stmt.rhs))
        if isinstance(stmt, Branch):
            return Branch(self.operand(stmt.cond))
        return stmt

    def program(self, prog: Program, rng: random.Random | None = None) -> Program:
        """The renamed program, its blocks listed in `rng`'s shuffle of the
        renamed labels when one is given."""
        items = [
            (self.labels[label], Block(self.statement(block.stmt), tuple(self.labels[s] for s in block.succs)))
            for label, block in prog.blocks.items()
        ]
        if rng is not None:
            rng.shuffle(items)
        return Program(dict(items), self.labels[prog.entry], self.labels[prog.exit])

    def facts(self, facts: FactSet) -> FactSet:
        return FactSet({self.names[dst]: self.operand(src) for dst, src in facts.items()})

    def sets(self, sets: dict) -> dict:
        return {self.labels[label]: self.facts(facts) for label, facts in sets.items()}

    def replacements(self, report) -> set[Replacement]:
        renamed = set()
        for r in report.replacements:
            block, original = self.labels[r.block], self.names[r.original]
            renamed.add(replace(r, block=block, original=original, replacement=self.operand(r.replacement)))
        return renamed

    def env(self, env: dict[str, int]) -> dict[str, int]:
        return {self.names[name]: value for name, value in env.items()}


def _mop(prog: Program):
    """The meet over paths, or the type of the error that stops it."""
    try:
        return mop_in(prog)
    except (CyclicGraphError, PathBudgetError) as err:
        return type(err)


def _shuffled(prog: Program, rng: random.Random) -> Program:
    items = list(prog.blocks.items())
    rng.shuffle(items)
    return Program(dict(items), prog.entry, prog.exit)


@settings(max_examples=100)
@given(programs(), st.randoms(use_true_random=False))
def test_a_program_lists_its_blocks_in_natural_order(prog, rng):
    listed = _shuffled(prog, rng)
    assert list(listed.blocks) == sorted(listed.blocks, key=natural_key)
    assert listed == prog
    assert print_program(listed) == print_program(prog)


@settings(max_examples=100)
@given(programs(), st.randoms(use_true_random=False), st.lists(environments, min_size=1, max_size=3))
def test_renaming_and_relisting_rename_every_result(prog, rng, envs):
    labels = list(prog.blocks)
    pool = rng.sample(LABEL_POOL, len(labels))
    r = Renaming(dict(zip(labels, pool)), dict(zip(VARIABLES, rng.sample(VARIABLE_POOL, len(VARIABLES)))))
    renamed = r.program(prog, rng)
    assert list(renamed.blocks) == sorted(renamed.blocks, key=natural_key)

    result, renamed_result = run_acs(prog), run_acs(renamed)
    assert r.sets(result.in_sets) == renamed_result.in_sets
    assert r.sets(result.out_sets) == renamed_result.out_sets
    assert renamed_result == solve_round_robin(renamed)
    assert r.sets(solve_round_robin(prog).in_sets) == renamed_result.in_sets

    for rewrite in (transform, classic_transform):
        out, report = rewrite(prog, result)
        renamed_out, renamed_report = rewrite(renamed, renamed_result)
        assert r.program(out) == renamed_out
        assert r.replacements(report) == set(renamed_report.replacements)
    out, report = transform_to_fixpoint(prog, 4)
    renamed_out, renamed_report = transform_to_fixpoint(renamed, 4)
    assert r.program(out) == renamed_out
    assert r.replacements(report) == set(renamed_report.replacements)
    assert (report.pass_count, report.converged) == (renamed_report.pass_count, renamed_report.converged)

    mop, renamed_mop = _mop(prog), _mop(renamed)
    assert (r.sets(mop) if isinstance(mop, dict) else mop) == renamed_mop

    verdict = differential_check(prog, envs, FUEL)
    renamed_verdict = differential_check(renamed, [r.env(env) for env in envs], FUEL)
    assert (verdict.ok, verdict.step) == (renamed_verdict.ok, renamed_verdict.step)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("cmd", FILE_COMMANDS)
def test_renamed_fixture_prints_the_golden_lines_renamed(name, cmd, tmp_path, capsys):
    """Each fixture with its labels renamed to reverse their natural order
    and its variables prefixed, which keeps their order, so each line keeps
    its pairs' order and `check` draws the same inputs: every command prints
    the golden lines renamed, in any order."""
    prog = parse_program((FIXTURES / f"{name}.tac").read_text())
    labels = list(prog.blocks)
    r = Renaming(dict(zip(labels, reversed(labels))), {var: f"v_{var}" for var in variables(prog)})
    path = tmp_path / f"{name}.tac"
    path.write_text(print_program(r.program(prog)))
    verb, *flags = FILE_COMMANDS[cmd]
    code = main([verb, str(path), *flags])
    back = {new: old for old, new in [*r.labels.items(), *r.names.items()]}
    token = re.compile(r"\b(?:" + "|".join(map(re.escape, back)) + r")\b")
    actual = token.sub(lambda m: back[m.group()], f"exit: {code}\n" + capsys.readouterr().out)
    assert sorted(actual.splitlines()) == sorted((GOLDEN / f"{name}-{cmd}.txt").read_text().splitlines())
