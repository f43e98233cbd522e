"""Planted faults that `check --fuzz` must catch (mutation analysis).

Each mutant is patched into the package for one `check --fuzz --programs 200
--acyclic-mop` run at a fixed seed, which must end in a FAIL dump and exit
code 1. A mutant replaces the faulty function wherever the package looks it
up, as a fault in its source would, so the oracles that share that code share
the fault. A mutant that survives marks a weak oracle: strengthen the oracle,
do not drop the mutant.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import copyprop.analysis as analysis
import copyprop.cli as cli
import copyprop.oracle as oracle
import copyprop.propagate as propagate
from copyprop import Const, Copy, FactSet, Var
from copyprop.cli import main
from copyprop.ir import defined_var


def _first_operand_meet(self, other):
    return self


def meet_returns_its_first_operand(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(FactSet, "meet", _first_operand_meet)


def _off_by_one_after(min_hops: int):
    resolve_chain = propagate.resolve_chain

    def resolve(var, facts):
        target, hops = resolve_chain(var, facts)
        if hops >= min_hops and isinstance(target, Const):
            target = Const(target.value + 1)
        return target, hops

    return resolve


def chain_endpoint_off_by_one_after_three_hops(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(propagate, "resolve_chain", _off_by_one_after(3))


def _transfer_without_use_kill(stmt, facts):
    dst = defined_var(stmt)
    if dst is None:
        return facts
    kept = {d: src for d, src in facts.items() if d != dst}
    if isinstance(stmt, Copy) and stmt.src != Var(dst):
        kept[dst] = stmt.src
    return FactSet(kept)


def no_kill_of_uses_of_the_defined_variable(mp: pytest.MonkeyPatch) -> None:
    # (*, x) survives a definition of x, in the solver and in the oracles
    mp.setattr(analysis, "transfer", _transfer_without_use_kill)
    mp.setattr(oracle, "transfer", _transfer_without_use_kill)


def fault_only_in_rounds_after_the_first(mp: pytest.MonkeyPatch) -> None:
    # `check` makes its first round through `oracle.transform`; every later
    # round goes through `propagate.transform`, and only those go wrong
    transform = propagate.transform
    off_by_one = _off_by_one_after(1)

    def later_round(prog, result):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(propagate, "resolve_chain", off_by_one)
            return transform(prog, result)

    mp.setattr(propagate, "transform", later_round)


# mutant -> `check --fuzz --seed` value. The default generator rarely builds
# a chain of three copies ending in a constant, so 200 programs catch the
# off-by-one endpoint at only 8 of the seeds 0-19, 3 the first of them.
MUTANTS = {
    meet_returns_its_first_operand: 0,
    chain_endpoint_off_by_one_after_three_hops: 3,
    no_kill_of_uses_of_the_defined_variable: 0,
    fault_only_in_rounds_after_the_first: 0,
}


def run_check_with(mutant, seed: int) -> int:
    with pytest.MonkeyPatch.context() as mp:
        mutant(mp)
        return main(["check", "--fuzz", "--programs", "200", "--acyclic-mop", "--seed", str(seed)])


# Recorded stdout and exit code of every mutant at seeds 0-5, which hold each
# fixed seed above, as "exit: N" and then stdout; a change to the oracles that
# keeps its verdicts keeps these bytes, `reason:` and `step:` lines included.
MUTANT_GOLDEN = Path(__file__).resolve().parent / "golden" / "mutants"
GOLDEN_SEEDS = range(6)


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda mutant: mutant.__name__)
def test_check_catches_the_mutant(mutant, capsys):
    assert run_check_with(mutant, MUTANTS[mutant]) == 1
    out = capsys.readouterr().out
    assert out.endswith("FAIL\n")
    assert "PASS" not in out


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda mutant: mutant.__name__)
def test_check_builds_no_program_past_the_failing_one(mutant, monkeypatch, capsys):
    """`check --fuzz` draws every seed first but builds each program just
    before checking it, so a failure leaves the rest unbuilt."""
    built, checked = [], []
    random_program, check_one = cli.random_program, cli._check_one

    def build(params):
        built.append(params.seed)
        return random_program(params)

    def check(prog, *args):
        checked.append(prog)
        return check_one(prog, *args)

    monkeypatch.setattr(cli, "random_program", build)
    monkeypatch.setattr(cli, "_check_one", check)
    assert run_check_with(mutant, MUTANTS[mutant]) == 1
    capsys.readouterr()
    assert len(built) == len(checked) < 200


def test_check_reports_a_broken_fact_set_invariant_as_a_fail(capsys):
    """At this seed the mutant transfer builds a cyclic pair set inside the
    meet-over-paths oracle: `check` must print a FAIL dump, not a traceback."""
    assert run_check_with(no_kill_of_uses_of_the_defined_variable, 2) == 1
    out = capsys.readouterr().out
    assert out.endswith("FAIL\n")
    assert "cyclic pair set" in out


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda mutant: mutant.__name__)
def test_mutant_output_matches_golden(mutant, seed, capsys):
    code = run_check_with(mutant, seed)
    actual = f"exit: {code}\n" + capsys.readouterr().out
    assert actual.encode() == (MUTANT_GOLDEN / f"{mutant.__name__}-seed{seed}.txt").read_bytes()
