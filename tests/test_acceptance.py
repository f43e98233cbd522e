"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines; each
test also fails normally under plain pytest. Time budgets are wall-clock upper
bounds, generous on purpose so only a real regression trips them. The
Hypothesis properties at the end hold ac4, ac6 and ac8 on arbitrary programs
next to the fixed-seed corpora, without a verdict line of their own.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copyprop import (
    Binary,
    Copy,
    GenParams,
    classic_transform,
    fact_soundness_violation,
    mop_in,
    random_program,
    resolve_chain,
    run_acs,
    solve_forward,
    solve_round_robin,
    transform,
    transform_to_fixpoint,
    variables,
)
from copyprop import differential_check
from copyprop.analysis import transfer
from conftest import copy_chain, functional_and_acyclic, load_fixture, swapped_branches
from strategies import environments, programs


@contextmanager
def criterion(name, budget=None):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    elapsed = perf_counter() - start
    if budget is not None and elapsed > budget:
        print(f"{name}: FAIL")
        pytest.fail(f"{name} took {elapsed:.1f}s, budget {budget}s")
    print(f"{name}: PASS")


_corpora: dict[str, list] = {}


def dominance_corpus():
    if "dominance" not in _corpora:
        rng = random.Random(42)
        _corpora["dominance"] = [
            random_program(
                GenParams(seed=rng.randrange(2**32), min_blocks=7, max_blocks=20)
            )
            for _ in range(200)
        ]
    return _corpora["dominance"]


def differential_corpus():
    """1000 programs, each with 10 full environments."""
    if "differential" not in _corpora:
        rng = random.Random(2024)
        out = []
        for _ in range(1000):
            prog = random_program(GenParams(seed=rng.randrange(2**32)))
            names = sorted(variables(prog))
            envs = [{n: rng.randint(-64, 64) for n in names} for _ in range(10)]
            out.append((prog, envs))
        _corpora["differential"] = out
    return _corpora["differential"]


def test_ac1_diamond_merge_rewrite():
    with criterion("AC-1", budget=1.0):
        prog = load_fixture("fig1.tac")
        result = run_acs(prog)
        assert result.in_sets["B4"].get("y") == "x"
        rewritten, report = transform(prog, result)
        assert rewritten.blocks["B4"].stmt == Binary("z", "+", "x", "w")
        assert len(report.replacements) == 1
        _, baseline = classic_transform(prog)
        assert baseline.replacements == ()


def test_ac2_chain_program_single_pass():
    with criterion("AC-2", budget=1.0):
        prog = load_fixture("fig2.tac")
        rewritten, _ = transform(prog, run_acs(prog))
        assert rewritten.blocks["B2"].stmt == Binary("d", "+", "a", 1)
        assert rewritten.blocks["B4"].stmt == Binary("f", "+", "a", "d")
        assert rewritten.blocks["B5"].stmt == Binary("g", "+", "a", "a")
        assert rewritten.blocks["B6"].stmt == Copy("e", "a")


def test_ac3_chain_round_counts():
    with criterion("AC-3", budget=5.0):
        for n in range(2, 11):
            prog, use_label = copy_chain(n)
            unified, report = transform(prog, run_acs(prog))
            assert report.pass_count == 1
            assert unified.blocks[use_label].stmt == Binary("u", "+", "x0", 0)

            rounds = 0
            current = prog
            while True:
                current, round_report = classic_transform(current)
                if not round_report.replacements:
                    break
                rounds += 1
            assert rounds == n, f"chain {n}: classic took {rounds} rounds"
            assert current.blocks[use_label].stmt == Binary("u", "+", "x0", 0)


def test_ac4_per_site_dominance():
    with criterion("AC-4", budget=30.0):
        for prog in dominance_corpus():
            result = run_acs(prog)
            _, unified = transform(prog, result)
            _, baseline = classic_transform(prog)
            assert len(unified.replacements) >= len(baseline.replacements)
            sites = {(r.block, r.position): r for r in unified.replacements}
            for c in baseline.replacements:
                u = sites[(c.block, c.position)]
                assert u.original == c.original
                if isinstance(c.replacement, str):
                    expected = resolve_chain(c.replacement, result.in_sets[c.block])[0]
                else:
                    expected = c.replacement
                assert u.replacement == expected


def test_ac5_meet_over_paths_equals_fixpoint():
    with criterion("AC-5", budget=60.0):
        rng = random.Random(500)
        for _ in range(500):
            prog = random_program(
                GenParams(
                    seed=rng.randrange(2**32),
                    min_blocks=7,
                    max_blocks=12,
                    branch_prob=0.3,
                    loop_prob=0.0,
                )
            )
            assert mop_in(prog) == run_acs(prog).in_sets


def test_ac6_semantic_preservation():
    with criterion("AC-6", budget=300.0):
        for prog, envs in differential_corpus():
            verdict = differential_check(prog, envs, 10000)
            assert verdict.ok, verdict.reason


def test_ac7_fact_soundness_and_structure():
    with criterion("AC-7"):
        for prog, envs in differential_corpus():
            result = run_acs(prog)
            for label in result.in_sets:
                assert functional_and_acyclic(result.in_sets[label])
                assert functional_and_acyclic(result.out_sets[label])
            for env0 in envs:
                assert fact_soundness_violation(prog, result, env0, 10000) is None


def test_ac8_solver_agreement():
    with criterion("AC-8"):
        for prog in dominance_corpus():
            res = solve_forward(prog, transfer)
            for other in (solve_round_robin(prog), solve_forward(swapped_branches(prog), transfer)):
                assert res.in_sets == other.in_sets
                assert res.out_sets == other.out_sets


@settings(max_examples=200)
@given(prog=programs(), envs=st.lists(environments, min_size=1, max_size=3))
def test_ac6_and_ac8_hold_on_any_program(prog, envs):
    verdict = differential_check(prog, envs, 10000)
    assert verdict.ok, verdict.reason
    res, sweep = run_acs(prog), solve_round_robin(prog)
    assert (res.in_sets, res.out_sets) == (sweep.in_sets, sweep.out_sets)


@settings(max_examples=300)
@given(prog=programs())
def test_ac4_per_site_dominance_on_any_program(prog):
    # every baseline site is a unified site, rewritten to the chain endpoint
    # of the baseline's source; `compare` prints the sites and checks none
    result = run_acs(prog)
    unified = {(r.block, r.position): r for r in transform(prog, result)[1].replacements}
    for c in classic_transform(prog, result)[1].replacements:
        u = unified[(c.block, c.position)]
        assert u.original == c.original
        source = c.replacement
        if isinstance(source, str):
            source = resolve_chain(source, result.in_sets[c.block])[0]
        assert u.replacement == source
