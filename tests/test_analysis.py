from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from copyprop import (
    EMPTY,
    Binary,
    Branch,
    Copy,
    FactSet,
    GenParams,
    Nop,
    Statement,
    defined_var,
    predecessors,
    random_program,
    reverse_postorder,
    run_acs,
    transfer,
)
from conftest import functional_and_acyclic, pairs, straight_line


def test_transfer_kills_both_columns():
    before = pairs(("b", "a"), ("c", "b"))
    after = transfer(Copy("a", 7), before)
    assert after == pairs(("a", 7), ("c", "b"))


def test_transfer_kill_matches_variable_sources_only():
    # defining x kills (y, x) but a constant source spelled the same is untouchable
    before = pairs(("y", "x"), ("z", 4))
    after = transfer(Copy("x", 1), before)
    assert after == pairs(("x", 1), ("z", 4))


def test_transfer_self_copy_generates_nothing():
    before = pairs(("x", 1), ("y", "x"))
    after = transfer(Copy("x", "x"), before)
    assert after == EMPTY


def test_transfer_binary_kills_dst():
    before = pairs(("b", "a"))
    assert transfer(Binary("d", "+", "b", 1), before) == before
    assert transfer(Binary("b", "+", "b", 1), before) == EMPTY


def test_transfer_identity_statements():
    before = pairs(("y", "x"))
    assert transfer(Nop(), before) == before
    assert transfer(Branch("y"), before) == before


def test_redefinition_of_source_invalidates():
    prog = straight_line(
        Copy("x", 5),
        Copy("y", "x"),
        Copy("x", 9),
        Copy("z", "y"),
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
            out[n] = rng.choice(later)
        else:
            out[n] = rng.randint(-5, 5)
    return FactSet(out)


def _random_stmt(rng):
    vs = "abcdefgh"
    roll = rng.random()
    if roll < 0.1:
        return Nop()
    if roll < 0.2:
        return Branch(rng.choice(vs))
    if roll < 0.6:
        src = rng.choice(vs) if rng.random() < 0.6 else rng.randint(-5, 5)
        return Copy(rng.choice(vs), src)
    return Binary(
        rng.choice(vs),
        rng.choice("+-*"),
        rng.choice(vs),
        rng.randint(-5, 5) if rng.random() < 0.3 else rng.choice(vs),
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
            while cur in by_dst and isinstance(by_dst[cur], str):
                assert cur not in seen
                seen.add(cur)
                cur = by_dst[cur]
        d = defined_var(stmt)
        if d is not None:
            for dst, src in after.items():
                if dst == d:
                    assert isinstance(stmt, Copy) and src == stmt.src
                else:
                    assert src != d
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
        choices = [st.none(), st.integers(-3, 3)] + ([st.sampled_from(later)] if later else [])
        src = draw(st.one_of(*choices))
        if src is not None:
            facts[name] = src
    return facts


model_operands = st.one_of(st.sampled_from(NAMES), st.integers(-3, 3))
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
    kept = {(dst, src) for dst, src in pairs if dst != d and src != d}
    if isinstance(stmt, Copy) and stmt.src != d:
        kept.add((d, stmt.src))
    return frozenset(kept)


@settings(max_examples=400)
@given(fact_maps(), fact_maps(), model_statements)
def test_meet_and_transfer_match_a_pair_set_model(a, b, stmt):
    """Meet is pair-set intersection and transfer is kill-then-gen on pairs,
    and neither builds a cyclic map from acyclic ones: meet keeps a subset,
    and transfer drops every pair into x before it adds x's own pair."""
    model_a, model_b = frozenset(a.items()), frozenset(b.items())
    facts_a = FactSet(a)
    met, moved = facts_a.meet(FactSet(b)), transfer(stmt, facts_a)
    assert frozenset(met.items()) == model_a & model_b
    assert frozenset(moved.items()) == _model_transfer(stmt, model_a)
    assert functional_and_acyclic(met) and functional_and_acyclic(moved)


@st.composite
def lattice_cases(draw) -> tuple[FactSet, FactSet, FactSet, Statement]:
    """Fact sets a, b and c and a statement. b is drawn alone or made from a:
    each pair kept, dropped, or with its source moved one step along its
    chain (x -> y becomes x -> y's source). The statement often defines a
    source of a. Independent maps seldom share a pair, and a re-rooting
    transfer breaks distributivity only where one side holds x -> y and
    y -> 5, the other x -> 5, and the statement defines y."""
    a = draw(fact_maps())
    if draw(st.booleans()):
        b = draw(fact_maps())
    else:
        b = {}
        for dst, src in a.items():
            how = draw(st.sampled_from(("keep", "drop", "step")))
            if how == "keep":
                b[dst] = src
            elif how == "step" and isinstance(src, str) and src in a:
                b[dst] = a[src]
    sources = sorted({src for src in a.values() if isinstance(src, str)})
    if sources and draw(st.booleans()):
        stmt = Copy(draw(st.sampled_from(sources)), draw(model_operands))
    else:
        stmt = draw(model_statements)
    return FactSet(a), FactSet(b), FactSet(draw(fact_maps())), stmt


@settings(max_examples=500)
@given(lattice_cases())
def test_meet_is_a_semilattice_and_transfer_distributes_over_it(case):
    """The laws ac5 rests on: meet is commutative, associative and idempotent,
    and transfer distributes over meet, so meet-over-paths equals the
    fixpoint (Kam & Ullman, 1977)."""
    a, b, c, stmt = case
    assert a.meet(b) == b.meet(a)
    assert a.meet(b).meet(c) == a.meet(b.meet(c))
    assert a.meet(a) == a
    assert transfer(stmt, a.meet(b)) == transfer(stmt, a).meet(transfer(stmt, b))


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
        if isinstance(stmt, Copy) and isinstance(stmt.src, int):
            m[d] = stmt.src
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
                assert isinstance(src, int)
                got[dst] = src
            assert got == expected[label], label
