from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from functools import reduce

import pytest

from copyprop import (
    EMPTY,
    Block,
    Const,
    Copy,
    FactSet,
    GenParams,
    Nop,
    Program,
    Var,
    format_facts,
    predecessors,
    random_program,
    reaching_definitions,
    reverse_postorder,
    run_acs,
    solve_forward,
    solve_round_robin,
    transfer,
)
from copyprop import classic
from conftest import looped_counter, pairs, reversed_listing, straight_line, swapped_branches


def test_fact_set_rejects_self_pair():
    """x = x carries no information: x -> x is a one-step cycle."""
    with pytest.raises(ValueError, match="cyclic pair set"):
        FactSet({"x": Var("x")})


def test_fact_set_rejects_cycles():
    with pytest.raises(ValueError):
        pairs(("x", "y"), ("y", "x"))
    with pytest.raises(ValueError):
        pairs(("a", "b"), ("b", "c"), ("c", "a"))


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
    assert fs.get("y") == fs["y"] == Var("x")
    assert fs.get("z") == Const(4)
    assert fs.get("q") is None


def test_membership_and_len():
    fs = pairs(("y", "x"))
    assert "y" in fs
    assert "x" not in fs
    assert list(fs.items()) == [("y", Var("x"))]
    assert len(fs) == 1


def test_format_facts():
    assert format_facts(EMPTY) == "{ }"
    fs = pairs(("z", 4), ("y", "x"), ("b", "a"))
    assert format_facts(fs) == "{ (b, a), (y, x), (z, 4) }"


def test_reachable_blocks_fig1(fig1):
    assert reverse_postorder(fig1) == ["B0", "B1", "B3", "B2", "B4", "B5"]


def test_reachable_excludes_orphan():
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Nop(), ()),
        "B9": Block("B9", Copy("x", Const(1)), ("B1",)),
    }
    prog = Program(blocks, "B0", "B1")
    assert reverse_postorder(prog) == ["B0", "B1"]


def _reachable_reference(prog):
    """Breadth-first reachability from the entry, independent of the solver's walk."""
    seen = {prog.entry}
    work = deque([prog.entry])
    while work:
        for succ in prog.blocks[work.popleft()].succs:
            if succ not in seen:
                seen.add(succ)
                work.append(succ)
    return seen


def test_reverse_postorder_is_a_topological_order_of_acyclic_graphs(fig1, fig2):
    """On an acyclic graph every edge between reachable blocks goes forward."""
    for prog in [fig1, fig2, *_corpus(60, loop_prob=0.0)]:
        rpo = reverse_postorder(prog)
        assert len(rpo) == len(set(rpo))
        assert set(rpo) == _reachable_reference(prog)
        index = {label: i for i, label in enumerate(rpo)}
        for label in rpo:
            for succ in prog.blocks[label].succs:
                assert index[label] < index[succ]


def test_reverse_postorder_puts_a_predecessor_before_each_block():
    for prog in _corpus(60, loop_prob=0.5):
        rpo = reverse_postorder(prog)
        assert set(rpo) == _reachable_reference(prog)
        assert rpo[0] == prog.entry
        preds = predecessors(prog)
        index = {label: i for i, label in enumerate(rpo)}
        for label in rpo[1:]:
            assert min(index[p] for p in preds[label] if p in index) < index[label]


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
    """An orphan block is never solved: it has no IN or OUT."""
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Nop(), ()),
        "B9": Block("B9", Copy("x", Const(1)), ("B1",)),
    }
    prog = Program(blocks, "B0", "B1")
    res = run_acs(prog)
    assert "B9" not in res.in_sets
    assert "B9" not in res.out_sets
    # the orphan's statement must not pollute B1
    assert res.in_sets["B1"] == EMPTY


def _corpus(n, **overrides):
    rng = random.Random(13)
    params = dict(branch_prob=0.3, loop_prob=0.2)
    params.update(overrides)
    return [
        random_program(GenParams(seed=rng.randrange(2**32), **params)) for _ in range(n)
    ]


def test_solver_updates_only_descend():
    """After a block's first OUT every update moves down the lattice, so the
    solver finds the greatest fixpoint without oscillating."""
    for prog in _corpus(40):
        solved = set()

        def check(label, old, new):
            if old is None:
                assert label not in solved
                solved.add(label)
                return
            assert label in solved
            assert new.items() <= old.items()
            assert new != old

        solve_forward(prog, transfer, on_update=check)


def _with_orphan(prog):
    """prog plus an unreachable block that defines a variable and jumps to the exit."""
    orphan = Block("Z9", Copy("x", Const(1)), (prog.exit,))
    return Program({**prog.blocks, "Z9": orphan}, prog.entry, prog.exit)


def test_results_hold_exactly_the_reachable_blocks():
    """Availability, round robin and reaching definitions solve each block
    reachable from the entry and no other, and each first OUT reaches
    `on_update` once, as the update from None."""
    solve = classic._solve
    for base in _corpus(40):
        for prog in (base, _with_orphan(base)):
            reach = _reachable_reference(prog)
            firsts = {"acs": [], "rd": []}

            def hook(kind):
                def on_update(label, old, new):
                    if old is None:
                        firsts[kind].append(label)

                return on_update

            def hooked(*args, **kwargs):
                return solve(*args, on_update=hook("rd"), **kwargs)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(classic, "_solve", hooked)
                rd = reaching_definitions(prog)
            assert set(rd.in_bits) == reach
            for result in (solve_forward(prog, transfer, on_update=hook("acs")), solve_round_robin(prog)):
                # `reachable` is the view of `in_sets` that the benchmark's trace reads
                assert set(result.in_sets) == set(result.out_sets) == result.reachable == reach
            for labels in firsts.values():
                assert sorted(labels) == sorted(reach)


def test_solver_order_does_not_matter():
    """Neither the block listing nor a different reverse postorder, from
    swapped branch successors, moves the fixpoint; round robin agrees."""
    for prog in _corpus(40):
        res = solve_forward(prog, transfer)
        for other in (
            solve_forward(reversed_listing(prog), transfer),
            solve_forward(swapped_branches(prog), transfer),
            solve_round_robin(prog),
        ):
            assert res == other


def _reaching_definitions_visits(prog):
    """The defining blocks reaching each block, and the solver's visits."""
    visits = []
    solve = classic._solve

    def counting(*args, **kwargs):
        result = solve(*args, **kwargs)
        visits.append(result.iterations)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classic, "_solve", counting)
        rd = reaching_definitions(prog)
    # bits follow the listing, so compare the defining blocks they stand for
    sites = {
        label: {site for i, site in enumerate(rd.sites) if bits >> i & 1} for label, bits in rd.in_bits.items()
    }
    return sites, visits[0]


def test_work_does_not_depend_on_the_block_listing():
    for prog in _corpus(40):
        flipped = reversed_listing(prog)
        res, res_flipped = run_acs(prog), run_acs(flipped)
        assert res == res_flipped
        assert res.iterations == res_flipped.iterations
        rd, visits = _reaching_definitions_visits(prog)
        rd_flipped, visits_flipped = _reaching_definitions_visits(flipped)
        assert rd == rd_flipped
        assert visits == visits_flipped


def test_reaching_definitions_visit_each_block_a_few_times():
    """Passes in reverse postorder settle a 1000-block loopy program in at
    most six visits per block."""
    prog = random_program(GenParams(seed=0, min_blocks=1000, max_blocks=1000, num_vars=26, loop_prob=0.3))
    _, visits = _reaching_definitions_visits(prog)
    assert visits <= 6 * len(prog.blocks)


def test_solution_is_a_fixpoint():
    """Re-applying meet and transfer at every reachable block changes
    nothing; a block meets the OUTs of its solved, that is reachable,
    predecessors."""
    for prog in _corpus(30):
        res = run_acs(prog)
        preds = predecessors(prog)
        for label in res.in_sets:
            if label == prog.entry:
                in_f = EMPTY
            else:
                in_f = reduce(FactSet.meet, [res.out_sets[p] for p in preds[label] if p in res.out_sets])
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
