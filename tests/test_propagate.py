from __future__ import annotations

import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copyprop.ir as ir
import copyprop.oracle as oracle
import copyprop.propagate as propagate
from copyprop import (
    Binary,
    Block,
    Branch,
    Copy,
    GenParams,
    Nop,
    Program,
    ReplacementReport,
    classic_transform,
    defined_var,
    interpret,
    parse_program,
    predecessors,
    print_program,
    random_program,
    resolve_chain,
    reverse_postorder,
    run_acs,
    transform,
    transform_to_fixpoint,
    uses,
)
from copyprop.ir import USE_SLOTS, natural_key
from copyprop.propagate import _chain_endpoint, _rewrite_program
from conftest import copy_chain, pairs, straight_line
from strategies import environments, programs


def rewrite_statement(stmt, facts, block=""):
    """The unified rule applied to the uses of one statement, as the only
    block of a program: the rewritten statement and its replacements."""
    out, report = _rewrite_program(Program({block: Block(stmt)}, block, block), {block: facts}, _chain_endpoint)
    return out.blocks[block].stmt, list(report.replacements)


RESOLVE_CASES = [
    ("c", (("c", "b"), ("b", "a")), "a", 2),
    ("d", (("d", "c"), ("c", 2)), 2, 2),
    ("b", (("b", "a"),), "a", 1),
    ("a", (("b", "a"),), "a", 0),
    ("x", (), "x", 0),
    ("x", (("x", 7),), 7, 1),
]


@pytest.mark.parametrize(
    "var,specs,expected,hops",
    RESOLVE_CASES,
    # pytest would name a plain operand by its value; these ids stay as they were
    ids=[f"{var}-specs{i}-expected{i}-{hops}" for i, (var, _, _, hops) in enumerate(RESOLVE_CASES)],
)
def test_resolve_chain(var, specs, expected, hops):
    assert resolve_chain(var, pairs(*specs)) == (expected, hops)


def test_resolve_returns_operand_only():
    facts = pairs(("c", "b"), ("b", "a"))
    assert resolve_chain("c", facts)[0] == "a"
    assert resolve_chain("q", facts)[0] == "q"


def test_rewrite_copy_source():
    stmt, reps = rewrite_statement(Copy("e", "c"), pairs(("c", "b"), ("b", "a")), "B6")
    assert stmt == Copy("e", "a")
    assert len(reps) == 1
    rep = reps[0]
    assert (rep.block, rep.position) == ("B6", "copy-src")
    assert rep.original == "c"
    assert rep.replacement == "a"
    assert rep.chain_length == 2


def test_rewrite_binary_operands():
    stmt, reps = rewrite_statement(
        Binary("z", "+", "y", "w"), pairs(("y", "x")), "B4"
    )
    assert stmt == Binary("z", "+", "x", "w")
    assert [r.position for r in reps] == ["binary-lhs"]


def test_rewrite_leaves_destination_alone():
    # x is both defined and used; only the use slot changes
    stmt, reps = rewrite_statement(Binary("x", "+", "x", 1), pairs(("x", 4)))
    assert stmt == Binary("x", "+", 4, 1)
    assert len(reps) == 1


def test_rewrite_branch_condition():
    stmt, reps = rewrite_statement(Branch("p"), pairs(("p", "q")))
    assert stmt == Branch("q")
    assert reps[0].position == "branch-cond"


def test_rewrite_without_facts_is_identity():
    stmt = Binary("z", "+", "y", "w")
    assert rewrite_statement(stmt, pairs()) == (stmt, [])


def test_every_statement_kind_has_its_use_slots():
    assert set(USE_SLOTS) == set(typing.get_args(ir.Statement))
    slot_order = [slot for slots in USE_SLOTS.values() for _, slot in slots]
    assert slot_order == ["copy-src", "binary-lhs", "binary-rhs", "branch-cond"]


def rename_every_use(label, facts, name, position):
    """A rule that rewrites every variable use, whatever its IN set holds."""
    return name.upper(), 1


@settings(max_examples=300)
@given(prog=programs())
def test_the_walker_asks_about_every_variable_use_in_slot_order(prog):
    """Under a rule that renames every use, each reachable statement keeps
    its kind, destination and operator, its uses are renamed in place with
    constants untouched, and its report names its variable slots in the
    order `USE_SLOTS` lists them."""
    slot_order = [slot for slots in USE_SLOTS.values() for _, slot in slots]
    in_sets = run_acs(prog).in_sets
    out, report = _rewrite_program(prog, in_sets, rename_every_use)
    for label in in_sets:
        old, new = prog.blocks[label].stmt, out.blocks[label].stmt
        assert type(new) is type(old)
        assert defined_var(new) == defined_var(old)
        assert getattr(new, "op", None) == getattr(old, "op", None)
        assert uses(new) == tuple(u.upper() if isinstance(u, str) else u for u in uses(old))
        positions = [r.position for r in report.replacements if r.block == label]
        assert positions == [slot for name, slot in USE_SLOTS[type(old)] if isinstance(getattr(old, name), str)]
        assert positions == sorted(positions, key=slot_order.index)


def test_transform_fig1(fig1):
    out, report = transform(fig1, run_acs(fig1))
    assert out.blocks["B4"].stmt == Binary("z", "+", "x", "w")
    assert out.blocks["B2"].stmt == Copy("y", "x")  # nothing known at B2
    assert len(report.replacements) == 1
    assert report.pass_count == 1
    assert report.converged


def test_transform_fig2_single_pass(fig2):
    out, report = transform(fig2, run_acs(fig2))
    assert out.blocks["B2"].stmt == Binary("d", "+", "a", 1)
    assert out.blocks["B3"].stmt == Copy("c", "a")
    assert out.blocks["B4"].stmt == Binary("f", "+", "a", "d")
    assert out.blocks["B5"].stmt == Binary("g", "+", "a", "a")
    assert out.blocks["B6"].stmt == Copy("e", "a")
    assert len(report.replacements) == 6
    # chain uses resolve all the way in one pass
    assert "B6: e = a -> B7" in print_program(out)


def test_transform_records_chain_lengths(fig2):
    _, report = transform(fig2, run_acs(fig2))
    by_site = {(r.block, r.position): r.chain_length for r in report.replacements}
    assert by_site[("B2", "binary-lhs")] == 1
    assert by_site[("B6", "copy-src")] == 2


def test_transform_is_shape_preserving():
    rng = random.Random(5)
    for _ in range(30):
        prog = random_program(
            GenParams(seed=rng.randrange(2**32), branch_prob=0.3, loop_prob=0.2)
        )
        out, _ = transform(prog, run_acs(prog))
        assert out.entry == prog.entry and out.exit == prog.exit
        assert set(out.blocks) == set(prog.blocks)
        for label, block in prog.blocks.items():
            new = out.blocks[label]
            assert new.succs == block.succs
            assert type(new.stmt) is type(block.stmt)
            assert defined_var(new.stmt) == defined_var(block.stmt)


def test_transform_copy_free_is_identity():
    prog = straight_line(Binary("z", "+", "a", 1), Nop())
    out, report = transform(prog, run_acs(prog))
    assert out == prog
    assert report.replacements == ()


def test_replacements_never_reintroduce_original():
    rng = random.Random(11)
    for _ in range(30):
        prog = random_program(GenParams(seed=rng.randrange(2**32), branch_prob=0.3))
        _, report = transform(prog, run_acs(prog))
        for rep in report.replacements:
            assert rep.chain_length >= 1
            assert rep.replacement != rep.original


def test_fixpoint_needs_multiple_rounds_when_pairs_go_stale():
    # b = a; c = b; b = 1; d = c
    prog = straight_line(
        Copy("b", "a"),
        Copy("c", "b"),
        Copy("b", 1),
        Copy("d", "c"),
    )
    out, report = transform_to_fixpoint(prog, 10)
    assert report.pass_count == 3
    assert report.converged
    assert len(report.replacements) == 2
    # round one rewrites c = b into c = a, unblocking d = c in round two
    assert out.blocks["B2"].stmt == Copy("c", "a")
    assert out.blocks["B4"].stmt == Copy("d", "a")


def test_fixpoint_fig2_terminates_in_two(fig2):
    out, report = transform_to_fixpoint(fig2, 10)
    assert report.pass_count == 2
    assert report.converged
    assert len(report.replacements) == 6
    assert out.blocks["B6"].stmt == Copy("e", "a")


def test_fixpoint_copy_free_single_pass():
    prog = straight_line(Binary("z", "+", "a", 1))
    out, report = transform_to_fixpoint(prog, 10)
    assert out == prog
    assert report.pass_count == 1
    assert report.converged


@pytest.mark.parametrize("n", [2, 4, 7])
def test_chain_collapses_in_one_pass(n):
    prog, use_label = copy_chain(n)
    out, report = transform(prog, run_acs(prog))
    assert out.blocks[use_label].stmt == Binary("u", "+", "x0", 0)
    chain_rep = [r for r in report.replacements if r.block == use_label]
    assert chain_rep[0].chain_length == n


def test_fixpoint_respects_round_budget():
    prog = straight_line(
        Copy("b", "a"),
        Copy("c", "b"),
        Copy("b", 1),
        Copy("d", "c"),
    )
    out, report = transform_to_fixpoint(prog, 1)
    assert report.pass_count == 1
    assert not report.converged
    assert out.blocks["B4"].stmt == Copy("d", "c")  # second round never ran


def test_fixpoint_rejects_bad_budget(fig1):
    with pytest.raises(ValueError):
        transform_to_fixpoint(fig1, 0)


def solving_every_round(prog, max_rounds):
    """Reference for transform_to_fixpoint without its early stop: solve and
    rewrite every round until one replaces nothing or the budget is spent."""
    replacements = []
    for rounds in range(1, max_rounds + 1):
        prog, report = transform(prog, run_acs(prog))
        replacements.extend(report.replacements)
        if not report.replacements:
            return prog, ReplacementReport(tuple(replacements), rounds, True)
    return prog, ReplacementReport(tuple(replacements), max_rounds, False)


@settings(max_examples=500)
@given(prog=programs(), max_rounds=st.integers(1, 4))
def test_fixpoint_matches_solving_every_round(prog, max_rounds):
    """A round it counts without solving is one that would replace nothing."""
    out, report = transform_to_fixpoint(prog, max_rounds)
    expected, expected_report = solving_every_round(prog, max_rounds)
    assert out == expected
    assert report.replacements == expected_report.replacements
    assert report.pass_count == expected_report.pass_count
    assert report.converged is expected_report.converged


@pytest.mark.parametrize("max_rounds, passes, converged", [(10, 2, True), (1, 1, False)])
def test_fixpoint_counts_a_confirming_round_without_solving_it(max_rounds, passes, converged, monkeypatch):
    # round one rewrites y = x + 1 and no copy source, so round two would
    # have round one's IN sets and nothing left to resolve; it is counted
    # only when the budget has room for it
    solves = []
    run_acs = propagate.run_acs
    monkeypatch.setattr(propagate, "run_acs", lambda prog: solves.append(prog) or run_acs(prog))
    out, report = transform_to_fixpoint(straight_line(Copy("x", 1), Binary("y", "+", "x", 1)), max_rounds)
    assert out.blocks["B2"].stmt == Binary("y", "+", 1, 1)
    assert report.pass_count == passes
    assert report.converged is converged
    assert len(solves) == 1


REWRITES = {
    "transform": lambda prog: transform(prog, run_acs(prog)),
    "classic_transform": classic_transform,
    "rename_every_use": lambda prog: _rewrite_program(prog, run_acs(prog).in_sets, rename_every_use),
}


@pytest.mark.parametrize("rewrite", list(REWRITES.values()), ids=list(REWRITES))
@settings(max_examples=300)
@given(prog=programs())
def test_a_pass_shares_every_block_it_does_not_rewrite(rewrite, prog):
    """Unrewritten blocks are the input's objects, rewritten ones are new, a
    pass that rewrites nothing returns its input, and the input is left as
    it was."""
    text = print_program(prog)
    out, report = rewrite(prog)
    rewritten = {r.block for r in report.replacements}
    if not rewritten:
        assert out is prog
    for label, block in prog.blocks.items():
        if label in rewritten:
            assert out.blocks[label] is not block
            assert out.blocks[label].stmt is not block.stmt
        else:
            assert out.blocks[label] is block
            assert out.blocks[label].stmt is block.stmt
    assert prog == parse_program(text)


PROGRAM_REWRITES = {
    "transform": lambda prog: transform(prog, run_acs(prog))[0],
    "transform_to_fixpoint": lambda prog: transform_to_fixpoint(prog, 10)[0],
    "classic_transform": lambda prog: classic_transform(prog)[0],
}


@pytest.mark.parametrize("rewrite", list(PROGRAM_REWRITES.values()), ids=list(PROGRAM_REWRITES))
@settings(max_examples=200)
@given(prog=programs(), env=environments)
def test_a_rewritten_program_has_the_views_of_a_fresh_one(rewrite, prog, env):
    """A pass hands its result the input's edge views and label order, as it
    moves no successor; those, and the form the interpreter decodes, must be
    what a program built afresh from the same blocks finds."""
    interpret(prog, env, 50)  # the input's decoded form exists before the pass
    out = rewrite(prog)
    fresh = Program(dict(out.blocks), out.entry, out.exit)
    assert list(out.blocks) == sorted(out.blocks, key=natural_key)
    assert predecessors(out) == predecessors(fresh)
    assert reverse_postorder(out) == reverse_postorder(fresh)
    assert interpret(out, env, 50) == interpret(fresh, env, 50)
    assert out._derive(oracle._decode) == oracle._decode(fresh)
