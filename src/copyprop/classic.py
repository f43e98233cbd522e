"""Single-definition copy propagation baseline.

This is the traditional rule for comparison runs: a use of t in a
computational statement (a binary operand or a branch condition) is replaced
by e when exactly one definition of t reaches the block, that definition is
the copy t = e, and the pair (t, e) is available at the block input, which
rules out a redefinition of e between the copy and the use. The replacement
is the copy's immediate source; chains are not followed, and copy sources
themselves are left to the chain-resolving pass, so a chain of n copies
needs n repetitions to feed through while the unified pass needs one. The
rule is all this module adds: the walk over the blocks and their use slots is
the unified pass's own (`propagate._rewrite_program`).
Reaching definitions runs on the reverse-postorder solver of copy
availability over bit vectors: each defining block owns one bit of a Python
int, a block's transfer is `bits & ~kill | gen`, where the kill mask holds the
bits of every definition of the same variable, and joins are bitwise or. The
fixpoint stays in bits. The unique-definition test reads them directly: the
definitions of t that reach a block are its vector masked with t's kill mask,
and exactly one reaches when that leaves a single set bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .analysis import run_acs
from .dataflow import AnalysisResult, _solve
from .ir import Copy, Operand, Program, Statement, Var, defined_var
from .propagate import Replacement, ReplacementReport, _rewrite_program, _rewrite_slots


@dataclass(frozen=True)
class ReachingDefinitions:
    """Fixpoint of reaching definitions: one bit vector per reachable block
    over the defining blocks in `sites`; `defs_of[var]` has the bits of
    every definition of var."""

    in_bits: dict[str, int]
    sites: list[str]
    defs_of: dict[str, int]

    def unique_definition(self, label: str, var: str) -> str | None:
        """The block whose definition of var is the one reaching label's
        input, or None when none or several do."""
        hits = self.in_bits[label] & self.defs_of.get(var, 0)
        if hits and not hits & (hits - 1):
            return self.sites[hits.bit_length() - 1]
        return None


def reaching_definitions(prog: Program) -> ReachingDefinitions:
    """Forward may-analysis: definitions that can reach each reachable
    block's input. Joins take the union and the entry starts empty."""
    defined = [(label, d) for label, block in prog.blocks.items() if (d := defined_var(block.stmt)) is not None]
    kill: dict[str, int] = {}
    for i, (_, d) in enumerate(defined):
        kill[d] = kill.get(d, 0) | 1 << i
    # label -> (mask of the bits that survive the block, the block's own bit)
    transfer = {label: (~kill[d], 1 << i) for i, (label, d) in enumerate(defined)}

    def step(label: str, bits: int) -> int:
        keep_gen = transfer.get(label)
        if keep_gen is None:
            return bits
        keep, gen = keep_gen
        return bits & keep | gen

    result = _solve(prog, step, 0, operator.or_)
    return ReachingDefinitions(result.in_sets, [label for label, _ in defined], kill)


def classic_transform(prog: Program, acs: AnalysisResult | None = None) -> tuple[Program, ReplacementReport]:
    """One pass of the baseline over the reachable blocks. `acs` is the
    program's availability solution when the caller already has it."""
    rd = reaching_definitions(prog)
    if acs is None:
        acs = run_acs(prog)

    def rewrite(stmt: Statement, label: str) -> tuple[Statement, list[Replacement]]:
        facts = acs.in_sets[label]

        def immediate_source(name: str, position: str) -> tuple[Operand, int] | None:
            if position == "copy-src":
                return None
            site = rd.unique_definition(label, name)
            if site is None:
                return None
            def_stmt = prog.blocks[site].stmt
            if not isinstance(def_stmt, Copy) or def_stmt.src == Var(name):
                return None
            if facts.get(name) != def_stmt.src:
                return None
            return def_stmt.src, 1

        return _rewrite_slots(stmt, label, immediate_source)

    return _rewrite_program(prog, acs.in_sets, rewrite)
