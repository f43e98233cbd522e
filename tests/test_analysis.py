from __future__ import annotations

import random

from copyprop import (
    EMPTY,
    TOP,
    Binary,
    Branch,
    Const,
    Copy,
    CopyPair,
    FactSet,
    GenParams,
    Nop,
    Var,
    defined_var,
    predecessors,
    random_program,
    reverse_postorder,
    run_acs,
    transfer,
    universe,
)
from conftest import pairs, straight_line


def test_universe_fig2(fig2):
    assert universe(fig2) == frozenset(
        {CopyPair("b", Var("a")), CopyPair("c", Var("b")), CopyPair("e", Var("c"))}
    )


def test_universe_ignores_non_copies(fig1):
    assert universe(fig1) == frozenset({CopyPair("y", Var("x"))})


def test_transfer_kills_both_columns():
    before = pairs(("b", "a"), ("c", "b"))
    after = transfer(Copy("a", Const(7)), before)
    assert after == pairs(("a", 7), ("c", "b"))


def test_transfer_kill_matches_variable_sources_only():
    # defining x kills (y, x) but a constant source spelled the same is untouchable
    before = pairs(("y", "x"), ("z", 4))
    after = transfer(Copy("x", Const(1)), before)
    assert after == pairs(("x", 1), ("z", 4))


def test_transfer_self_copy_generates_nothing():
    before = pairs(("x", 1), ("y", "x"))
    after = transfer(Copy("x", Var("x")), before)
    assert after == EMPTY


def test_transfer_binary_kills_dst():
    before = pairs(("b", "a"))
    assert transfer(Binary("d", "+", Var("b"), Const(1)), before) == before
    assert transfer(Binary("b", "+", Var("b"), Const(1)), before) == EMPTY


def test_transfer_identity_statements():
    before = pairs(("y", "x"))
    assert transfer(Nop(), before) == before
    assert transfer(Branch(Var("y")), before) == before


def test_transfer_top_passthrough():
    assert transfer(Copy("x", Const(1)), TOP).is_top


def test_redefinition_of_source_invalidates():
    prog = straight_line(
        Copy("x", Const(5)),
        Copy("y", Var("x")),
        Copy("x", Const(9)),
        Copy("z", Var("y")),
    )
    res = run_acs(prog)
    # at z = y the fact (y, x) is stale: x was overwritten
    assert res.in_sets["B4"] == pairs(("x", 9))
    assert res.in_sets[prog.exit] == pairs(("x", 9), ("z", "y"))


def _random_facts(rng):
    names = rng.sample("abcdefgh", rng.randint(0, 6))
    out = []
    for i, n in enumerate(names):
        if rng.random() < 0.3:
            continue
        later = names[i + 1 :]
        if later and rng.random() < 0.6:
            out.append(CopyPair(n, Var(rng.choice(later))))
        else:
            out.append(CopyPair(n, Const(rng.randint(-5, 5))))
    return FactSet.of(out)


def _random_stmt(rng):
    vs = "abcdefgh"
    roll = rng.random()
    if roll < 0.1:
        return Nop()
    if roll < 0.2:
        return Branch(Var(rng.choice(vs)))
    if roll < 0.6:
        src = Var(rng.choice(vs)) if rng.random() < 0.6 else Const(rng.randint(-5, 5))
        return Copy(rng.choice(vs), src)
    return Binary(
        rng.choice(vs),
        rng.choice("+-*"),
        Var(rng.choice(vs)),
        Const(rng.randint(-5, 5)) if rng.random() < 0.3 else Var(rng.choice(vs)),
    )


def test_transfer_properties_randomized():
    """Output stays functional and acyclic, the defined variable appears only
    in the generated pair, and transfer is idempotent per statement."""
    rng = random.Random(99)
    for _ in range(500):
        facts = _random_facts(rng)
        stmt = _random_stmt(rng)
        after = transfer(stmt, facts)
        by_dst = {}
        for p in after.pairs:
            assert p.dst not in by_dst
            by_dst[p.dst] = p.src
        for start in by_dst:
            seen = set()
            cur = start
            while cur in by_dst and isinstance(by_dst[cur], Var):
                assert cur not in seen
                seen.add(cur)
                cur = by_dst[cur].name
        d = defined_var(stmt)
        if d is not None:
            for p in after.pairs:
                if p.dst == d:
                    assert isinstance(stmt, Copy) and p.src == stmt.src
                else:
                    assert p.src != Var(d)
        assert transfer(stmt, after) == after


def _const_in_sets(prog):
    """Round-robin must-constant analysis; facts are var -> int maps."""
    reach = frozenset(reverse_postorder(prog))
    preds = predecessors(prog)
    ins = {l: None for l in reach}
    outs = {l: None for l in reach}

    def meet_c(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return {k: v for k, v in a.items() if b.get(k) == v}

    def step(stmt, m):
        if m is None:
            return None
        d = defined_var(stmt)
        if d is None:
            return m
        m = {k: v for k, v in m.items() if k != d}
        if isinstance(stmt, Copy) and isinstance(stmt.src, Const):
            m[d] = stmt.src.value
        return m

    changed = True
    while changed:
        changed = False
        for label in sorted(reach):
            if label == prog.entry:
                in_m = {}
            else:
                in_m = None
                for p in preds[label]:
                    if p in reach:
                        in_m = meet_c(in_m, outs[p])
            out_m = step(prog.blocks[label].stmt, in_m)
            if in_m != ins[label] or out_m != outs[label]:
                ins[label], outs[label] = in_m, out_m
                changed = True
    return ins


def test_const_copy_programs_agree_with_constant_analysis():
    """When every copy source is a constant, the pair analysis degenerates to
    must-constant propagation, checked against a separate solver."""
    rng = random.Random(21)
    for _ in range(40):
        prog = random_program(
            GenParams(
                seed=rng.randrange(2**32),
                const_copy_only=True,
                branch_prob=0.3,
                loop_prob=0.2,
            )
        )
        res = run_acs(prog)
        expected = _const_in_sets(prog)
        for label in res.reachable:
            facts = res.in_sets[label]
            assert not facts.is_top
            got = {}
            for p in facts.pairs:
                assert isinstance(p.src, Const)
                got[p.dst] = p.src.value
            assert got == expected[label], label
