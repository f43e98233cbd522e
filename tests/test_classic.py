from __future__ import annotations

import random

import pytest

import copyprop.classic as classic
from copyprop import (
    Binary,
    Block,
    Branch,
    Const,
    Copy,
    GenParams,
    Nop,
    Program,
    Var,
    classic_transform,
    random_program,
    reaching_definitions,
    resolve,
    run_acs,
    transform,
    variables,
)
from copyprop.cli import main
from copyprop.dataflow import _solve
from copyprop.ir import defined_var, sorted_labels
from copyprop.propagate import Replacement
from conftest import FIXTURES, copy_chain, straight_line


def sites(report):
    return {(r.block, r.position) for r in report.replacements}


def set_based_reaching_definitions(prog):
    """Reference: the same analysis over frozensets of (block, var) sites."""

    def step(block, sites):
        d = defined_var(block.stmt)
        if d is None:
            return sites
        return frozenset(s for s in sites if s[1] != d) | {(block.label, d)}

    return _solve(prog, step, frozenset(), frozenset.union).in_sets


def unique_definitions_match_the_reference(prog) -> dict:
    """Checks `unique_definition` for every reachable label and every
    variable, plus one nobody mentions, against the set-based reference,
    and returns the reference."""
    rd = reaching_definitions(prog)
    reference = set_based_reaching_definitions(prog)
    assert set(rd.in_bits) == set(reference)
    for label, sites in reference.items():
        for var in sorted(variables(prog) | {"unmentioned"}):
            own = [block for block, v in sites if v == var]
            assert rd.unique_definition(label, var) == (own[0] if len(own) == 1 else None), (label, var)
    return reference


def test_reaching_definitions_fig1(fig1):
    sites = unique_definitions_match_the_reference(fig1)
    assert sites[fig1.entry] == frozenset()
    assert sites["B4"] == frozenset({("B2", "y"), ("B3", "y")})
    assert sites["B5"] == frozenset({("B2", "y"), ("B3", "y"), ("B4", "z")})


def test_reaching_definitions_kill():
    prog = straight_line(Copy("x", Const(5)), Copy("x", Const(9)))
    unique_definitions_match_the_reference(prog)
    assert reaching_definitions(prog).unique_definition(prog.exit, "x") == "B2"


def test_reaching_definitions_loop():
    prog, _ = copy_chain(2)
    unique_definitions_match_the_reference(prog)
    assert reaching_definitions(prog).unique_definition("B2", "x1") == "B1"


def test_reaching_definitions_skip_unreachable():
    """An orphan's definition does not reach the join it jumps to, and the
    orphan has no entry of its own."""
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Copy("x", Const(1)), ("B2",)),
        "B2": Block("B2", Nop(), ()),
        "B9": Block("B9", Copy("x", Const(2)), ("B2",)),
    }
    prog = Program(blocks, "B0", "B2")
    unique_definitions_match_the_reference(prog)
    rd = reaching_definitions(prog)
    assert set(rd.in_bits) == {"B0", "B1", "B2"}
    assert rd.unique_definition("B2", "x") == "B1"


def test_reaching_definitions_match_the_set_based_reference():
    rng = random.Random(5)
    over_64 = 0
    for _ in range(200):
        params = GenParams(
            seed=rng.randrange(2**32),
            min_blocks=30,
            max_blocks=120,
            num_vars=26,
            loop_prob=0.3,
        )
        prog = random_program(params)
        defs = sum(defined_var(b.stmt) is not None for b in prog.blocks.values())
        over_64 += defs > 64
        unique_definitions_match_the_reference(prog)
    assert over_64 >= 20


def test_reaching_definitions_self_loop_and_unreachable_definition():
    """A block that redefines x and jumps to itself reaches its own input;
    an orphan definition of the same variable never reaches anything."""
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Copy("x", Const(0)), ("B2",)),
        "B2": Block("B2", Binary("x", "+", Var("x"), Const(1)), ("B2",)),
        "B3": Block("B3", Nop(), ()),
        "B9": Block("B9", Copy("x", Const(5)), ("B2",)),
    }
    sites = unique_definitions_match_the_reference(Program(blocks, "B0", "B3"))
    assert set(sites) == {"B0", "B1", "B2"}
    assert sites["B2"] == frozenset({("B1", "x"), ("B2", "x")})


def test_compare_calls_reaching_definitions_by_module_attribute(monkeypatch, capsys):
    """The traced benchmark times the baseline by wrapping this attribute;
    if the call moved off it, `classic.reaching_defs_s` would read 0."""
    calls = []
    original = classic.reaching_definitions

    def counted(prog):
        calls.append(prog)
        return original(prog)

    monkeypatch.setattr(classic, "reaching_definitions", counted)
    assert main(["compare", str(FIXTURES / "fig2.tac")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_unique_definition(fig1):
    """None for a variable nobody defines and for two reaching definitions;
    an unreachable definition does not count against the one that reaches;
    a self-looping definition reaches its own block."""
    rd = reaching_definitions(fig1)
    assert rd.unique_definition("B4", "w") is None
    assert rd.unique_definition("B4", "y") is None  # B2 and B3 both reach
    assert rd.unique_definition("B5", "z") == "B4"

    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Copy("x", Const(1)), ("B2",)),
        "B2": Block("B2", Binary("y", "+", Var("x"), Const(1)), ("B2",)),
        "B3": Block("B3", Nop(), ()),
        "B9": Block("B9", Copy("x", Const(2)), ("B2",)),
    }
    rd = reaching_definitions(Program(blocks, "B0", "B3"))
    assert rd.unique_definition("B2", "x") == "B1"
    assert rd.unique_definition("B2", "y") == "B2"
    assert rd.unique_definition("B1", "y") is None


def set_based_classic_transform(prog):
    """Reference: the unique-definition rule read from the set-based sites."""
    rd = set_based_reaching_definitions(prog)
    acs = run_acs(prog)
    new_blocks = {}
    replacements = []
    for label in sorted_labels(prog):
        block = prog.blocks[label]
        if label not in acs.in_sets:
            new_blocks[label] = block
            continue

        def attempt(operand, position):
            if not isinstance(operand, Var):
                return operand
            own = [block for block, var in rd[label] if var == operand.name]
            if len(own) != 1:
                return operand
            def_stmt = prog.blocks[own[0]].stmt
            if not isinstance(def_stmt, Copy) or def_stmt.src == operand:
                return operand
            if acs.in_sets[label].get(operand.name) != def_stmt.src:
                return operand
            replacements.append(Replacement(label, position, operand.name, def_stmt.src, 1))
            return def_stmt.src

        stmt = block.stmt
        if isinstance(stmt, Binary):
            stmt = Binary(stmt.dst, stmt.op, attempt(stmt.lhs, "binary-lhs"), attempt(stmt.rhs, "binary-rhs"))
        elif isinstance(stmt, Branch):
            stmt = Branch(attempt(stmt.cond, "branch-cond"))
        new_blocks[label] = Block(label, stmt, block.succs)
    return Program(new_blocks, prog.entry, prog.exit), tuple(replacements)


def test_classic_transform_matches_the_set_based_rule():
    rng = random.Random(23)
    over_64 = 0
    rewrote = 0
    for _ in range(200):
        params = GenParams(
            seed=rng.randrange(2**32),
            min_blocks=30,
            max_blocks=120,
            num_vars=26,
            loop_prob=0.3,
        )
        prog = random_program(params)
        defs = sum(defined_var(b.stmt) is not None for b in prog.blocks.values())
        over_64 += defs > 64
        out, report = classic_transform(prog)
        expected_prog, expected_reps = set_based_classic_transform(prog)
        assert out == expected_prog, params.seed
        assert report.replacements == expected_reps, params.seed
        rewrote += bool(expected_reps)
    assert over_64 >= 20
    assert rewrote >= 100


def test_classic_fig1_cannot_rewrite(fig1):
    """Two definitions of y reach B4, so the unique-definition test fails even
    though both are the same copy and the pair analysis proves (y, x)."""
    out, report = classic_transform(fig1)
    assert out == fig1
    assert report.replacements == ()


def test_classic_fig2_rewrites_computational_uses(fig2):
    out, report = classic_transform(fig2)
    assert out.blocks["B2"].stmt == Binary("d", "+", Var("a"), Const(1))
    assert out.blocks["B4"].stmt == Binary("f", "+", Var("b"), Var("d"))
    assert out.blocks["B5"].stmt == Binary("g", "+", Var("b"), Var("a"))
    # copy sources stay put: the chain head is untouched
    assert out.blocks["B3"].stmt == Copy("c", Var("b"))
    assert out.blocks["B6"].stmt == Copy("e", Var("c"))
    assert sites(report) == {
        ("B2", "binary-lhs"),
        ("B4", "binary-lhs"),
        ("B5", "binary-lhs"),
        ("B5", "binary-rhs"),
    }
    for rep in report.replacements:
        assert rep.chain_length == 1


def test_classic_straight_line():
    prog = straight_line(Copy("x", Var("y")), Binary("z", "+", Var("x"), Const(1)))
    out, _ = classic_transform(prog)
    assert out.blocks["B2"].stmt == Binary("z", "+", Var("y"), Const(1))


def test_classic_requires_available_pair():
    # x = y; y = 3; z = x + 0: the only def of x is a copy, but (x, y) is
    # stale at the use because y was overwritten
    prog = straight_line(
        Copy("x", Var("y")),
        Copy("y", Const(3)),
        Binary("z", "+", Var("x"), Const(0)),
    )
    out, report = classic_transform(prog)
    assert out.blocks["B3"].stmt == Binary("z", "+", Var("x"), Const(0))
    assert report.replacements == ()


def test_classic_propagates_constants():
    prog = straight_line(Copy("x", Const(5)), Binary("z", "+", Var("x"), Const(1)))
    out, report = classic_transform(prog)
    assert out.blocks["B2"].stmt == Binary("z", "+", Const(5), Const(1))
    assert report.replacements[0].replacement == Const(5)


def test_classic_rewrites_branch_condition():
    base = straight_line(Copy("p", Var("q")), Nop())
    blocks = dict(base.blocks)
    blocks["B2"] = Block("B2", Branch(Var("p")), ("B3", "B3"))
    prog = Program(blocks, base.entry, base.exit)
    out, report = classic_transform(prog)
    assert out.blocks["B2"].stmt == Branch(Var("q"))
    assert report.replacements[0].position == "branch-cond"


def test_classic_single_step_per_round():
    prog, use_label = copy_chain(3)
    out, report = classic_transform(prog)
    # only the last link feeds the use; one hop, not the whole chain
    assert out.blocks[use_label].stmt == Binary("u", "+", Var("x2"), Const(0))
    assert all(r.chain_length == 1 for r in report.replacements)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_classic_chain_needs_n_rounds(n):
    prog, use_label = copy_chain(n)
    rounds = 0
    while True:
        nxt, report = classic_transform(prog)
        if not report.replacements:
            break
        prog = nxt
        rounds += 1
    assert rounds == n
    assert prog.blocks[use_label].stmt == Binary("u", "+", Var("x0"), Const(0))


@pytest.mark.parametrize(
    "one_pass", [lambda p: transform(p, run_acs(p)), classic_transform], ids=["unified", "classic"]
)
def test_unreachable_block_is_kept_as_is(one_pass):
    """B4 is never reached, though the one definition of the x it reads is an
    available copy: both passes leave it alone and rewrite the reachable use."""
    prog = Program(
        {
            "B0": Block("B0", Nop(), ("B1",)),
            "B1": Block("B1", Copy("x", Const(5)), ("B2",)),
            "B2": Block("B2", Binary("y", "+", Var("x"), Const(1)), ("B3",)),
            "B3": Block("B3", Nop(), ()),
            "B4": Block("B4", Binary("z", "+", Var("x"), Const(2)), ("B3",)),
        },
        "B0",
        "B3",
    )
    out, report = one_pass(prog)
    assert out.blocks["B4"] == prog.blocks["B4"]
    assert all(r.block != "B4" for r in report.replacements)
    assert out.blocks["B2"].stmt == Binary("y", "+", Const(5), Const(1))


def test_classic_never_beats_unified():
    """Site-for-site the single-pass baseline is a subset of the chain
    resolver, and each shared site resolves to the chain result."""
    rng = random.Random(17)
    for _ in range(60):
        prog = random_program(
            GenParams(seed=rng.randrange(2**32), branch_prob=0.3, loop_prob=0.2)
        )
        result = run_acs(prog)
        _, unified = transform(prog, result)
        _, baseline = classic_transform(prog)
        uni_sites = {(r.block, r.position): r for r in unified.replacements}
        for c in baseline.replacements:
            key = (c.block, c.position)
            assert key in uni_sites
            u = uni_sites[key]
            assert u.original == c.original
            expected = (
                resolve(c.replacement.name, result.in_sets[c.block])
                if isinstance(c.replacement, Var)
                else c.replacement
            )
            assert u.replacement == expected


def test_classic_strictly_weaker_somewhere(fig1, fig2):
    _, u1 = transform(fig1, run_acs(fig1))
    _, c1 = classic_transform(fig1)
    assert len(c1.replacements) == 0 < len(u1.replacements)
    _, u2 = transform(fig2, run_acs(fig2))
    _, c2 = classic_transform(fig2)
    assert len(c2.replacements) == 4 < len(u2.replacements) == 6
