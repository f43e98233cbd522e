from __future__ import annotations

import random
from dataclasses import replace

import pytest

from copyprop import (
    EMPTY,
    TOP,
    Block,
    Const,
    Copy,
    CopyPair,
    GenParams,
    Nop,
    Program,
    Var,
    format_facts,
    predecessors,
    random_program,
    reachable_blocks,
    run_acs,
    solve_forward,
    solve_round_robin,
    transfer,
)
from conftest import looped_counter, pairs, straight_line


def test_copy_pair_rejects_self_copy():
    with pytest.raises(ValueError):
        CopyPair("x", Var("x"))


def test_fact_set_rejects_conflicting_dst():
    with pytest.raises(ValueError):
        pairs(("x", "y"), ("x", 3))


def test_fact_set_rejects_cycles():
    with pytest.raises(ValueError):
        pairs(("x", "y"), ("y", "x"))
    with pytest.raises(ValueError):
        pairs(("a", "b"), ("b", "c"), ("c", "a"))


def test_meet_top_is_identity():
    fs = pairs(("y", "x"))
    assert TOP.meet(fs) == fs
    assert fs.meet(TOP) == fs
    assert TOP.meet(TOP).is_top


def test_meet_is_intersection():
    a = pairs(("y", "x"), ("z", 1))
    b = pairs(("y", "x"), ("w", "v"))
    assert a.meet(b) == pairs(("y", "x"))
    assert a.meet(EMPTY) == EMPTY


def test_meet_conflicting_pairs_drop_out():
    a = pairs(("y", "x"))
    b = pairs(("y", "z"))
    assert a.meet(b) == EMPTY


def test_lookup():
    fs = pairs(("y", "x"), ("z", 4))
    assert fs.lookup("y") == Var("x")
    assert fs.lookup("z") == Const(4)
    assert fs.lookup("q") is None
    with pytest.raises(ValueError):
        TOP.lookup("y")


def test_membership_and_len():
    fs = pairs(("y", "x"))
    assert CopyPair("y", Var("x")) in fs
    assert CopyPair("y", Var("z")) not in fs
    assert len(fs) == 1
    assert CopyPair("a", Const(1)) in TOP  # TOP contains everything


def test_format_facts():
    assert format_facts(TOP) == "TOP"
    assert format_facts(EMPTY) == "{ }"
    fs = pairs(("z", 4), ("y", "x"), ("b", "a"))
    assert format_facts(fs) == "{ (b, a), (y, x), (z, 4) }"


def test_reachable_blocks_fig1(fig1):
    assert reachable_blocks(fig1) == frozenset({"B0", "B1", "B2", "B3", "B4", "B5"})


def test_reachable_excludes_orphan():
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Nop(), ()),
        "B9": Block("B9", Copy("x", Const(1)), ("B1",)),
    }
    prog = Program(blocks, "B0", "B1")
    assert reachable_blocks(prog) == frozenset({"B0", "B1"})


def test_predecessors_fig1(fig1):
    preds = predecessors(fig1)
    assert set(preds["B4"]) == {"B2", "B3"}
    assert preds["B0"] == ()


def test_solve_straight_line_accumulates():
    prog = straight_line(Copy("x", Const(5)), Copy("y", Var("x")))
    res = run_acs(prog)
    assert res.in_sets[prog.exit] == pairs(("x", 5), ("y", "x"))
    assert res.in_sets["B0"] == EMPTY


def test_solve_fig1_merges_arms(fig1):
    res = run_acs(fig1)
    assert res.in_sets["B4"] == pairs(("y", "x"))
    assert res.in_sets["B2"] == EMPTY
    assert res.out_sets["B2"] == pairs(("y", "x"))


def test_solve_loop_kills_on_back_edge():
    prog = looped_counter()
    res = run_acs(prog)
    # (x, 0) survives the first entry to B2 but not the back edge
    assert res.in_sets["B2"] == EMPTY
    assert res.in_sets["B4"] == EMPTY
    rr = solve_round_robin(prog)
    assert rr.in_sets == res.in_sets


def test_unreachable_block_stays_top():
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Nop(), ()),
        "B9": Block("B9", Copy("x", Const(1)), ("B1",)),
    }
    prog = Program(blocks, "B0", "B1")
    res = run_acs(prog)
    assert res.in_sets["B9"].is_top
    assert res.out_sets["B9"].is_top
    assert "B9" not in res.reachable
    # the orphan's TOP out must not pollute B1
    assert res.in_sets["B1"] == EMPTY


def _corpus(n, **overrides):
    rng = random.Random(13)
    params = dict(branch_prob=0.3, loop_prob=0.2)
    params.update(overrides)
    return [
        random_program(GenParams(seed=rng.randrange(2**32), **params)) for _ in range(n)
    ]


def test_solver_updates_only_descend():
    """Every OUT update moves down the lattice, so the solver finds the
    greatest fixpoint without oscillating."""
    for prog in _corpus(40):
        def check(label, old, new):
            assert old.is_top or new.pairs <= old.pairs
            assert new != old
        solve_forward(prog, transfer, on_update=check)


def test_solver_order_does_not_matter():
    """Neither the extraction end nor the block listing order, which seeds
    the worklist, moves the fixpoint."""
    for prog in _corpus(40):
        reversed_prog = Program(dict(reversed(prog.blocks.items())), prog.entry, prog.exit)
        fifo = solve_forward(prog, transfer, order="fifo")
        for other in (
            solve_forward(prog, transfer, order="lifo"),
            solve_forward(reversed_prog, transfer, order="fifo"),
            solve_forward(reversed_prog, transfer, order="lifo"),
        ):
            assert fifo.in_sets == other.in_sets
            assert fifo.out_sets == other.out_sets
            assert fifo.reachable == other.reachable


def test_solver_rejects_unknown_order(fig1):
    with pytest.raises(ValueError):
        solve_forward(fig1, transfer, order="random")


def test_solution_is_a_fixpoint():
    """Re-applying meet and transfer at every reachable block changes nothing."""
    for prog in _corpus(30):
        res = run_acs(prog)
        preds = predecessors(prog)
        for label in res.reachable:
            if label == prog.entry:
                in_f = EMPTY
            else:
                in_f = TOP
                for p in preds[label]:
                    in_f = in_f.meet(res.out_sets[p])
            assert in_f == res.in_sets[label]
            assert transfer(prog.blocks[label].stmt, in_f) == res.out_sets[label]


def test_iterations_counts_work():
    prog = straight_line(Copy("x", Const(5)))
    res = run_acs(prog)
    assert res.iterations >= len(prog.blocks)


def test_result_equality_ignores_iterations(fig1):
    """Two solvers agree when their solutions do, whatever work each took."""
    res = run_acs(fig1)
    swept = solve_round_robin(fig1)
    assert res.iterations != swept.iterations
    assert res == swept == replace(res, iterations=0)
    ins = dict(res.in_sets, B4=EMPTY)
    assert replace(res, in_sets=ins) != res
