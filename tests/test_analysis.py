from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from copyprop import (
    EMPTY,
    Binary,
    Branch,
    Const,
    Copy,
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
)
from conftest import pairs, straight_line


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
    out = {}
    for i, n in enumerate(names):
        if rng.random() < 0.3:
            continue
        later = names[i + 1 :]
        if later and rng.random() < 0.6:
            out[n] = Var(rng.choice(later))
        else:
            out[n] = Const(rng.randint(-5, 5))
    return FactSet(out)


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
    """Output stays acyclic, the defined variable appears only in the
    generated pair, and transfer is idempotent per statement."""
    rng = random.Random(99)
    for _ in range(500):
        facts = _random_facts(rng)
        stmt = _random_stmt(rng)
        after = transfer(stmt, facts)
        by_dst = dict(after.items())
        for start in by_dst:
            seen = set()
            cur = start
            while cur in by_dst and isinstance(by_dst[cur], Var):
                assert cur not in seen
                seen.add(cur)
                cur = by_dst[cur].name
        d = defined_var(stmt)
        if d is not None:
            for dst, src in after.items():
                if dst == d:
                    assert isinstance(stmt, Copy) and src == stmt.src
                else:
                    assert src != Var(d)
        assert transfer(stmt, after) == after


NAMES = "abcdefgh"


@st.composite
def fact_maps(draw) -> dict:
    """A random functional, acyclic fact map: every variable source comes
    later in a random order of the names, so following sources never loops."""
    names = draw(st.permutations(NAMES))[: draw(st.integers(0, len(NAMES)))]
    facts = {}
    for i, name in enumerate(names):
        later = names[i + 1 :]
        choices = [st.none(), st.integers(-3, 3).map(Const)] + ([st.sampled_from(later).map(Var)] if later else [])
        src = draw(st.one_of(*choices))
        if src is not None:
            facts[name] = src
    return facts


model_operands = st.one_of(st.sampled_from(NAMES).map(Var), st.integers(-3, 3).map(Const))
model_statements = st.one_of(
    st.just(Nop()),
    model_operands.map(Branch),
    st.builds(Copy, st.sampled_from(NAMES), model_operands),
    st.builds(Binary, st.sampled_from(NAMES), st.sampled_from("+-*"), model_operands, model_operands),
)


def _model_transfer(stmt, pairs):
    """Transfer on a frozenset of (dst, src) pairs: kill (d, *) and (*, d)
    for the defined d, then gen the copy's own pair unless it is d = d."""
    d = defined_var(stmt)
    if d is None:
        return pairs
    kept = {(dst, src) for dst, src in pairs if dst != d and src != Var(d)}
    if isinstance(stmt, Copy) and stmt.src != Var(d):
        kept.add((d, stmt.src))
    return frozenset(kept)


@settings(max_examples=400)
@given(fact_maps(), fact_maps(), model_statements)
def test_meet_and_transfer_match_a_pair_set_model(a, b, stmt):
    """Meet is pair-set intersection and transfer is kill-then-gen on pairs."""
    model_a, model_b = frozenset(a.items()), frozenset(b.items())
    facts_a = FactSet(a)
    assert frozenset(facts_a.meet(FactSet(b)).items()) == model_a & model_b
    assert frozenset(transfer(stmt, facts_a).items()) == _model_transfer(stmt, model_a)


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
        for label, facts in res.in_sets.items():
            got = {}
            for dst, src in facts.items():
                assert isinstance(src, Const)
                got[dst] = src.value
            assert got == expected[label], label
