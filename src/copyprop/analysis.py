"""Availability of copy facts across the program.

A pair (x, e) is available at a point when every path to it executes x = e
after the last change to either side. Constants and variables are handled by
the same rule, so constant availability falls out as the src-is-constant
special case. The pairs available at a point form a map x -> e (`FactSet`):
a definition of x drops x's entry and every entry whose source is x, and a
copy x = e then adds x -> e.
"""

from __future__ import annotations

from .dataflow import AnalysisResult, FactSet, solve_forward
from .ir import Copy, Program, Statement, Var, defined_var


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
    kept = {d: src for d, src in facts.items() if d != dst and src != killed_src}
    if isinstance(stmt, Copy) and stmt.src != killed_src:
        kept[dst] = stmt.src
    return FactSet(kept)


def run_acs(prog: Program) -> AnalysisResult:
    """Solve availability of copy statements over the whole program."""
    return solve_forward(prog, transfer)
