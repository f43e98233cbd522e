from __future__ import annotations

import random

import pytest

from copyprop import (
    Binary,
    Branch,
    Const,
    Copy,
    GenParams,
    Nop,
    Var,
    defined_var,
    print_program,
    random_program,
    resolve_chain,
    run_acs,
    transform,
    transform_to_fixpoint,
)
from copyprop.propagate import _chain_endpoint, _rewrite_slots
from conftest import copy_chain, pairs, straight_line


def rewrite_statement(stmt, facts, block=""):
    """The unified rule applied to the uses of one statement."""
    return _rewrite_slots(stmt, block, facts, _chain_endpoint)


@pytest.mark.parametrize(
    "var,specs,expected,hops",
    [
        ("c", (("c", "b"), ("b", "a")), Var("a"), 2),
        ("d", (("d", "c"), ("c", 2)), Const(2), 2),
        ("b", (("b", "a"),), Var("a"), 1),
        ("a", (("b", "a"),), Var("a"), 0),
        ("x", (), Var("x"), 0),
        ("x", (("x", 7),), Const(7), 1),
    ],
)
def test_resolve_chain(var, specs, expected, hops):
    assert resolve_chain(var, pairs(*specs)) == (expected, hops)


def test_resolve_returns_operand_only():
    facts = pairs(("c", "b"), ("b", "a"))
    assert resolve_chain("c", facts)[0] == Var("a")
    assert resolve_chain("q", facts)[0] == Var("q")


def test_rewrite_copy_source():
    stmt, reps = rewrite_statement(Copy("e", Var("c")), pairs(("c", "b"), ("b", "a")), "B6")
    assert stmt == Copy("e", Var("a"))
    assert len(reps) == 1
    rep = reps[0]
    assert (rep.block, rep.position) == ("B6", "copy-src")
    assert rep.original == "c"
    assert rep.replacement == Var("a")
    assert rep.chain_length == 2


def test_rewrite_binary_operands():
    stmt, reps = rewrite_statement(
        Binary("z", "+", Var("y"), Var("w")), pairs(("y", "x")), "B4"
    )
    assert stmt == Binary("z", "+", Var("x"), Var("w"))
    assert [r.position for r in reps] == ["binary-lhs"]


def test_rewrite_leaves_destination_alone():
    # x is both defined and used; only the use slot changes
    stmt, reps = rewrite_statement(Binary("x", "+", Var("x"), Const(1)), pairs(("x", 4)))
    assert stmt == Binary("x", "+", Const(4), Const(1))
    assert len(reps) == 1


def test_rewrite_branch_condition():
    stmt, reps = rewrite_statement(Branch(Var("p")), pairs(("p", "q")))
    assert stmt == Branch(Var("q"))
    assert reps[0].position == "branch-cond"


def test_rewrite_without_facts_is_identity():
    stmt = Binary("z", "+", Var("y"), Var("w"))
    assert rewrite_statement(stmt, pairs()) == (stmt, [])


def test_transform_fig1(fig1):
    out, report = transform(fig1, run_acs(fig1))
    assert out.blocks["B4"].stmt == Binary("z", "+", Var("x"), Var("w"))
    assert out.blocks["B2"].stmt == Copy("y", Var("x"))  # nothing known at B2
    assert len(report.replacements) == 1
    assert report.pass_count == 1
    assert report.converged


def test_transform_fig2_single_pass(fig2):
    out, report = transform(fig2, run_acs(fig2))
    assert out.blocks["B2"].stmt == Binary("d", "+", Var("a"), Const(1))
    assert out.blocks["B3"].stmt == Copy("c", Var("a"))
    assert out.blocks["B4"].stmt == Binary("f", "+", Var("a"), Var("d"))
    assert out.blocks["B5"].stmt == Binary("g", "+", Var("a"), Var("a"))
    assert out.blocks["B6"].stmt == Copy("e", Var("a"))
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
    prog = straight_line(Binary("z", "+", Var("a"), Const(1)), Nop())
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
            assert rep.replacement != Var(rep.original)


def test_fixpoint_needs_multiple_rounds_when_pairs_go_stale():
    # b = a; c = b; b = 1; d = c
    prog = straight_line(
        Copy("b", Var("a")),
        Copy("c", Var("b")),
        Copy("b", Const(1)),
        Copy("d", Var("c")),
    )
    out, report = transform_to_fixpoint(prog, 10)
    assert report.pass_count == 3
    assert report.converged
    assert len(report.replacements) == 2
    # round one rewrites c = b into c = a, unblocking d = c in round two
    assert out.blocks["B2"].stmt == Copy("c", Var("a"))
    assert out.blocks["B4"].stmt == Copy("d", Var("a"))


def test_fixpoint_fig2_terminates_in_two(fig2):
    out, report = transform_to_fixpoint(fig2, 10)
    assert report.pass_count == 2
    assert report.converged
    assert len(report.replacements) == 6
    assert out.blocks["B6"].stmt == Copy("e", Var("a"))


def test_fixpoint_copy_free_single_pass():
    prog = straight_line(Binary("z", "+", Var("a"), Const(1)))
    out, report = transform_to_fixpoint(prog, 10)
    assert out == prog
    assert report.pass_count == 1
    assert report.converged


@pytest.mark.parametrize("n", [2, 4, 7])
def test_chain_collapses_in_one_pass(n):
    prog, use_label = copy_chain(n)
    out, report = transform(prog, run_acs(prog))
    assert out.blocks[use_label].stmt == Binary("u", "+", Var("x0"), Const(0))
    chain_rep = [r for r in report.replacements if r.block == use_label]
    assert chain_rep[0].chain_length == n


def test_fixpoint_respects_round_budget():
    prog = straight_line(
        Copy("b", Var("a")),
        Copy("c", Var("b")),
        Copy("b", Const(1)),
        Copy("d", Var("c")),
    )
    out, report = transform_to_fixpoint(prog, 1)
    assert report.pass_count == 1
    assert not report.converged
    assert out.blocks["B4"].stmt == Copy("d", Var("c"))  # second round never ran


def test_fixpoint_rejects_bad_budget(fig1):
    with pytest.raises(ValueError):
        transform_to_fixpoint(fig1, 0)
