"""Availability of copy facts across the program.

A pair (x, e) is available at a point when every path to it executes x = e
after the last change to either side. Constants and variables are handled by
the same rule, so constant availability falls out as the src-is-constant
special case.
"""

from __future__ import annotations

from .dataflow import AnalysisResult, CopyPair, FactSet, solve_forward
from .ir import Copy, Program, Statement, Var, defined_var


def universe(prog: Program) -> frozenset[CopyPair]:
    """Every pair any copy statement in the program can generate."""
    pairs = set()
    for block in prog.blocks.values():
        stmt = block.stmt
        if isinstance(stmt, Copy) and stmt.src != Var(stmt.dst):
            pairs.add(CopyPair(stmt.dst, stmt.src))
    return frozenset(pairs)


def transfer(stmt: Statement, facts: FactSet) -> FactSet:
    """Kill every pair touching the defined variable, then gen the copy's own pair.

    A definition of x removes pairs (x, *) and (*, x), where (*, x) only
    matches x used as a variable source; a copy x = e with e distinct from x
    then contributes (x, e). Statements that define nothing pass the set
    through.
    """
    dst = defined_var(stmt)
    if dst is None:
        return facts
    killed_src = Var(dst)
    kept = [p for p in facts.pairs if p.dst != dst and p.src != killed_src]
    if isinstance(stmt, Copy) and stmt.src != killed_src:
        kept.append(CopyPair(dst, stmt.src))
    return FactSet(frozenset(kept))


def run_acs(prog: Program) -> AnalysisResult:
    """Solve availability of copy statements over the whole program."""
    return solve_forward(prog, transfer)
