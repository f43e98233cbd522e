"""Single-definition copy propagation baseline.

This is the traditional rule for comparison runs: a use of t in a
computational statement (a binary operand or a branch condition) is replaced
by e when the pair (t, e) is in the block's IN set and exactly one definition
of t reaches the block. The defining copy need not be read: both analyses are
distributive gen/kill frameworks, so their fixpoints equal their meet over
paths, and with (t, e) in IN the last definition of t on every path is a copy
t = e that no definition of e follows, and not t = t, as no block generates
(t, t). The replacement is that immediate source; chains are not followed,
and copy sources are left to the chain-resolving pass, so a chain of n
copies needs n repetitions to feed through while the unified pass needs one.
The rule is all this module adds to the unified pass's walk
(`propagate._rewrite_program`).
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
from .dataflow import AnalysisResult, FactSet, _solve
from .ir import Operand, Program, defined_var
from .propagate import ReplacementReport, _rewrite_program


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

    def immediate_source(label: str, facts: FactSet, name: str, position: str) -> tuple[Operand, int] | None:
        # with (t, e) in IN, every definition of t that reaches is t = e
        if position == "copy-src" or (src := facts.get(name)) is None:
            return None
        return None if rd.unique_definition(label, name) is None else (src, 1)

    return _rewrite_program(prog, acs.in_sets, immediate_source)
