"""`strategies.programs` reaches the shapes where reaching definitions decide
between the two rewrites: a use the baseline rewrites while the program holds
its copy twice, and a use whose pair is available while two definitions of
its variable reach it, which only the unified pass rewrites. It also reaches
a baseline site where the unified pass follows a chain of two or more pairs.
Each search is derandomized, keeps the first program it finds, and fails
when its budget finds none."""

from __future__ import annotations

from hypothesis import Phase, find, settings

from copyprop import Copy, Program, Replacement, classic_transform, run_acs, transform, used_vars
from copyprop.classic import reaching_definitions
from strategies import programs

SEARCH = settings(max_examples=200, derandomize=True, database=None, phases=[Phase.generate])


def rewritten_uses(report) -> set[tuple[str, str]]:
    return {(r.block, r.original) for r in report.replacements}


def baseline_rewrites_past_a_twin_copy(prog: Program) -> set[tuple[str, str]]:
    """The (block, variable) uses the baseline rewrites whose variable two
    blocks define by the same copy. Only one of the two reaches the use, so
    reaching definitions decide, not the program text."""
    copies = [block.stmt for block in prog.blocks.values() if isinstance(block.stmt, Copy)]
    twins = {copy.dst for copy in copies if copies.count(copy) > 1}
    return {(block, var) for block, var in rewritten_uses(classic_transform(prog)[1]) if var in twins}


def available_under_two_definitions(prog: Program) -> set[tuple[str, str]]:
    """The (block, variable) uses whose variable has a pair in the block's
    IN set while two or more definitions of it reach the block."""
    in_sets, rd = run_acs(prog).in_sets, reaching_definitions(prog)
    return {
        (label, var)
        for label, facts in in_sets.items()
        for var in used_vars(prog.blocks[label].stmt)
        if facts.get(var) is not None and bin(rd.in_bits[label] & rd.defs_of.get(var, 0)).count("1") > 1
    }


def baseline_sites_on_long_chains(prog: Program) -> list[tuple[Replacement, Replacement]]:
    """The (baseline, unified) rewrites of each site the baseline rewrites
    where the unified chain is two or more pairs long."""
    result = run_acs(prog)
    unified = {(r.block, r.position): r for r in transform(prog, result)[1].replacements}
    sites = [(r, unified[(r.block, r.position)]) for r in classic_transform(prog, result)[1].replacements]
    return [(baseline, chained) for baseline, chained in sites if chained.chain_length >= 2]


def test_programs_reach_a_baseline_rewrite_past_a_twin_copy():
    prog = find(programs(), lambda prog: bool(baseline_rewrites_past_a_twin_copy(prog)), settings=SEARCH)
    assert baseline_rewrites_past_a_twin_copy(prog) <= rewritten_uses(transform(prog, run_acs(prog))[1])


def test_programs_reach_an_available_pair_under_two_definitions():
    prog = find(programs(), lambda prog: bool(available_under_two_definitions(prog)), settings=SEARCH)
    uses = available_under_two_definitions(prog)
    assert uses <= rewritten_uses(transform(prog, run_acs(prog))[1])
    assert not uses & rewritten_uses(classic_transform(prog)[1])


def test_programs_reach_a_baseline_site_on_a_long_chain():
    prog = find(programs(), lambda prog: bool(baseline_sites_on_long_chains(prog)), settings=SEARCH)
    for baseline, unified in baseline_sites_on_long_chains(prog):
        # the baseline stops at the first hop; the unified pass goes past it
        assert baseline.chain_length == 1
        assert unified.replacement != baseline.replacement
