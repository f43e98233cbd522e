from __future__ import annotations

import copy
import itertools
import operator
import pickle
import random
import time
from collections import deque
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copyprop import (
    EMPTY,
    Block,
    Branch,
    Copy,
    FactSet,
    GenParams,
    Nop,
    Operand,
    Program,
    format_facts,
    predecessors,
    random_program,
    reaching_definitions,
    reverse_postorder,
    run_acs,
    solve_forward,
    solve_round_robin,
    transfer,
    transform,
)
from copyprop import classic
from conftest import functional_and_acyclic, looped_counter, pairs, straight_line, swapped_branches


def test_fact_set_rejects_self_pair():
    """x = x carries no information: x -> x is a one-step cycle."""
    with pytest.raises(ValueError, match="cyclic pair set"):
        FactSet({"x": "x"})


def test_fact_set_rejects_cycles():
    with pytest.raises(ValueError, match="cyclic pair set"):
        pairs(("x", "y"), ("y", "x"))
    with pytest.raises(ValueError, match="cyclic pair set"):
        pairs(("a", "b"), ("b", "c"), ("c", "a"))
    with pytest.raises(ValueError, match="cyclic pair set"):
        FactSet({"a": "b", "b": "a"})
    # a chain that ends at a constant is no cycle
    assert dict(FactSet({"a": "b", "b": 0})) == {"a": "b", "b": 0}


@st.composite
def pair_maps(draw) -> dict[str, Operand]:
    """Maps of one to four components with disjoint names. A component is a
    chain of up to 60 pairs rooted at a constant or at a free variable, or a
    1- to 6-cycle (a self pair at 1), with up to five tree pairs feeding into
    it. The keys are shuffled, or listed with every cycle after the acyclic
    keys."""
    acyclic: dict[str, Operand] = {}
    cyclic: dict[str, Operand] = {}
    for c in range(draw(st.integers(1, 4))):
        name = f"c{c}v{{}}".format
        is_cycle = draw(st.booleans())
        if is_cycle:
            k = draw(st.integers(1, 6))
            component: dict[str, Operand] = {name(j): name((j + 1) % k) for j in range(k)}
        else:
            k = draw(st.integers(1, 60))
            component = {name(j): name(j + 1) for j in range(k - 1)}
            component[name(k - 1)] = draw(st.sampled_from([0, -3, f"c{c}free"]))
        for j in range(k, k + draw(st.integers(0, 5))):
            component[name(j)] = name(draw(st.integers(0, j - 1)))
        (cyclic if is_cycle else acyclic).update(component)
    by_dst = acyclic | cyclic
    keys = list(by_dst) if draw(st.booleans()) else draw(st.permutations(list(by_dst)))
    return {dst: by_dst[dst] for dst in keys}


@settings(max_examples=400)
@given(pair_maps())
def test_fact_set_rejects_exactly_the_cyclic_maps(by_dst):
    """The constructor's hop bound against conftest's seen-set walk."""
    if functional_and_acyclic(by_dst):
        assert FactSet(by_dst) == by_dst
    else:
        with pytest.raises(ValueError, match="cyclic pair set"):
            FactSet(by_dst)


@pytest.mark.parametrize("k", range(1, 9))
def test_fact_set_hop_bound_is_exact(k):
    """With k pairs, the walk from x0's source along the k-pair chain
    x0 -> ... -> xk makes k `get` calls, the last returning None, and is
    kept; on the k-cycle and the (k - 1)-chain ending in a self pair all k
    find a destination, and they are rejected."""
    chain = {f"x{i}": f"x{i + 1}" for i in range(k)}
    assert FactSet(chain) == chain
    cycle = chain | {f"x{k - 1}": "x0"}
    self_ended = chain | {f"x{k - 1}": f"x{k - 1}"}
    for by_dst in (cycle, self_ended):
        with pytest.raises(ValueError, match="cyclic pair set"):
            FactSet(by_dst)


def test_fact_set_rejects_exactly_the_cyclic_small_maps():
    """Every map over destinations x0..x(k-1), k <= 5, whose sources are
    those names, the constant 0 or one free name: 18,248 maps, among them
    every tail leading into a cycle, tree feeding a cycle and self pair of
    that size."""
    for k in range(6):
        names = [f"x{i}" for i in range(k)]
        for sources in itertools.product([*names, 0, "free"], repeat=k):
            by_dst = dict(zip(names, sources))
            if functional_and_acyclic(by_dst):
                assert FactSet(by_dst) == by_dst
            else:
                with pytest.raises(ValueError, match="cyclic pair set"):
                    FactSet(by_dst)


class CountingReads(dict):
    """A dict that counts the lookups made on it: `in`, subscripting and `get`."""

    reads = 0

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_fact_set_proves_a_chain_in_one_read_per_hop():
    """The k-pair chain x0 -> ... -> xk is proven acyclic in at most one
    lookup per source and one per hop: k(k + 3) / 2 (the walk makes
    k(k + 1) / 2 + k - 1). A walk that tests a hop with `in` and then
    subscripts it makes k(k + 1)."""
    for k in range(1, 51):
        chain = CountingReads({f"x{i}": f"x{i + 1}" for i in range(k)})
        assert FactSet(chain) == chain
        assert chain.reads <= k * (k + 3) // 2, (k, chain.reads)


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
    assert fs.get("y") == fs["y"] == "x"
    assert fs.get("z") == 4
    assert fs.get("q") is None


def test_membership_and_len():
    fs = pairs(("y", "x"))
    assert "y" in fs
    assert "x" not in fs
    assert list(fs.items()) == [("y", "x")]
    assert len(fs) == 1


MUTATORS = {
    "__setitem__": lambda fs: operator.setitem(fs, "q", 1),
    "__delitem__": lambda fs: operator.delitem(fs, "y"),
    "__ior__": lambda fs: operator.ior(fs, {"q": 1}),
    "clear": lambda fs: fs.clear(),
    "pop": lambda fs: fs.pop("y"),
    "popitem": lambda fs: fs.popitem(),
    "setdefault": lambda fs: fs.setdefault("q", 1),
    "update": lambda fs: fs.update(q=1),
}


@pytest.mark.parametrize("mutate", list(MUTATORS.values()), ids=list(MUTATORS))
def test_fact_set_is_read_only(mutate):
    """A solved IN or OUT is shared between blocks, so no one may edit it."""
    fs = pairs(("y", "x"), ("z", 4))
    with pytest.raises(TypeError):
        mutate(fs)
    assert fs == {"y": "x", "z": 4}


def test_fact_set_is_a_copy_that_equals_the_plain_dict():
    source = {"y": "x", "z": 4}
    fs = FactSet(source)
    assert fs == source and source == fs
    assert repr(fs) == "FactSet({'y': 'x', 'z': 4})"
    source["q"] = 1
    del source["y"]
    assert fs == {"y": "x", "z": 4}


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))], ids=["copy", "deepcopy", "pickle"]
)
def test_fact_sets_programs_and_solutions_round_trip(clone, fig1):
    result = run_acs(fig1)
    for obj in (pairs(("y", "x"), ("z", 4)), fig1, result):
        cloned = clone(obj)
        assert type(cloned) is type(obj) and cloned == obj
    cloned = clone(result)
    assert {type(facts) for facts in [*cloned.in_sets.values(), *cloned.out_sets.values()]} == {FactSet}
    assert run_acs(clone(fig1)) == result


def test_a_pickled_cyclic_pair_set_is_refused_on_load():
    """A load rebuilds a fact set through its constructor, walk included."""

    class Cyclic:
        def __reduce__(self):
            return FactSet, ({"a": "b", "b": "a"},)

    payload = pickle.dumps(Cyclic())
    with pytest.raises(ValueError, match="cyclic pair set"):
        pickle.loads(payload)


def test_format_facts():
    assert format_facts(EMPTY) == "{ }"
    fs = pairs(("z", 4), ("y", "x"), ("b", "a"))
    assert format_facts(fs) == "{ (b, a), (y, x), (z, 4) }"


def test_reachable_blocks_fig1(fig1):
    assert reverse_postorder(fig1) == ["B0", "B1", "B3", "B2", "B4", "B5"]


def test_reachable_excludes_orphan():
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Nop(), ()),
        "B9": Block(Copy("x", 1), ("B1",)),
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


def test_edge_views_shared_with_a_rewrite_are_read_only(fig2):
    """A pass shares its input's predecessor map and reverse postorder with
    its result, so neither can be edited through what the functions return."""
    one, _ = transform(fig2, run_acs(fig2))
    assert one is not fig2
    assert one._predecessors() is fig2._predecessors()
    assert one._reverse_postorder() is fig2._reverse_postorder()
    preds = predecessors(one)
    with pytest.raises(TypeError):
        preds["B4"] = ()
    rpo = reverse_postorder(one)
    rpo.reverse()
    assert reverse_postorder(fig2) == reverse_postorder(one) == [f"B{i}" for i in range(9)]
    assert preds["B4"] == ("B3",)


def test_a_program_cannot_be_edited_in_place(fig1):
    """What is derived from a program is kept on it, so its blocks are read
    only: an edit would leave the predecessor map behind."""
    preds = dict(predecessors(fig1))
    with pytest.raises(TypeError):
        fig1.blocks["B5"] = Block(Nop(), ("B0",))
    with pytest.raises(TypeError):
        del fig1.blocks["B5"]
    assert predecessors(fig1) == preds


def test_predecessors_take_linear_time_in_a_wide_join():
    """20,000 branches into one join J, the last one twice: each block's
    predecessors are found once each, in label order, without a scan of
    those found so far (which took seconds here)."""
    n = 20_000
    blocks = {"S": Block(Nop(), ("C0",)), "J": Block(Nop(), ("X",)), "X": Block(Nop(), ())}
    for i in range(n):
        blocks[f"C{i}"] = Block(Copy("v", i), (f"B{i}",))
        blocks[f"B{i}"] = Block(Branch("p"), (f"C{i + 1}" if i + 1 < n else "J", "J"))
    prog = Program(blocks, "S", "X")
    start = time.perf_counter()
    preds = predecessors(prog)
    assert time.perf_counter() - start < 1.0
    assert preds["J"] == tuple(f"B{i}" for i in range(n))
    assert preds["C1"] == ("B0",)


def test_solve_straight_line_accumulates():
    prog = straight_line(Copy("x", 5), Copy("y", "x"))
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
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Nop(), ()),
        "B9": Block(Copy("x", 1), ("B1",)),
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
    orphan = Block(Copy("x", 1), (prog.exit,))
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
    """A different reverse postorder, from swapped branch successors, does
    not move the fixpoint; round robin agrees."""
    for prog in _corpus(40):
        res = solve_forward(prog, transfer)
        for other in (solve_forward(swapped_branches(prog), transfer), solve_round_robin(prog)):
            assert res == other


def _reaching_definitions_visits(prog):
    """The solver's block visits for the program's reaching definitions."""
    visits = []
    solve = classic._solve

    def counting(*args, **kwargs):
        result = solve(*args, **kwargs)
        visits.append(result.iterations)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classic, "_solve", counting)
        reaching_definitions(prog)
    return visits[0]


def test_reaching_definitions_visit_each_block_a_few_times():
    """Passes in reverse postorder settle a 1000-block loopy program in at
    most six visits per block."""
    prog = random_program(GenParams(seed=0, min_blocks=1000, max_blocks=1000, num_vars=26, loop_prob=0.3))
    visits = _reaching_definitions_visits(prog)
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
    prog = straight_line(Copy("x", 5))
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
