"""Single-definition copy propagation baseline.

This is the traditional rule for comparison runs: a use of t in a
computational statement (a binary operand or a branch condition) is replaced
by e when exactly one definition of t reaches the block, that definition is
the copy t = e, and the pair (t, e) is available at the block input, which
rules out a redefinition of e between the copy and the use. The replacement
is the copy's immediate source; chains are not followed, and copy sources
themselves are left to the chain-resolving pass, so a chain of n copies
needs n repetitions to feed through while the unified pass needs one.
Reaching definitions runs on the worklist solver of copy availability over
bit vectors: each defining block owns one bit of a Python int, a block's
transfer is `bits & ~kill | gen`, where the kill mask holds the bits of every
definition of the same variable, and joins are bitwise or. The fixpoint stays
in bits. The unique-definition test reads them directly: the definitions of t
that reach a block are its vector masked with t's kill mask, and exactly one
reaches when that leaves a single set bit. `DefSite` sets are built only when
a block's entry is read as a set, one frozenset per distinct vector.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from .analysis import run_acs
from .dataflow import AnalysisResult, CopyPair, _solve
from .ir import (
    Binary,
    Block,
    Branch,
    Copy,
    Operand,
    Program,
    Var,
    defined_var,
    sorted_labels,
)
from .propagate import Replacement, ReplacementReport, _to_fixpoint


@dataclass(frozen=True)
class DefSite:
    block: str
    var: str


class ReachingDefinitions(Mapping[str, frozenset[DefSite]]):
    """Fixpoint of reaching definitions: each reachable label maps to the
    definition sites that can reach its input.

    Held as one bit vector per block over `sites`; `defs_of[var]` has the
    bits of every definition of var. A label's frozenset is built on its
    first lookup and shared by every label with the same vector.
    """

    def __init__(self, in_bits: dict[str, int], sites: list[DefSite], defs_of: dict[str, int]):
        self._bits = in_bits
        self._sites = sites
        self._defs_of = defs_of
        self._memo: dict[int, frozenset[DefSite]] = {}

    def __getitem__(self, label: str) -> frozenset[DefSite]:
        bits = self._bits[label]
        found = self._memo.get(bits)
        if found is None:
            members, rest = [], bits
            while rest:
                low = rest & -rest  # lowest set bit
                members.append(self._sites[low.bit_length() - 1])
                rest ^= low
            found = self._memo[bits] = frozenset(members)
        return found

    def __iter__(self) -> Iterator[str]:
        return iter(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    def unique_definition(self, label: str, var: str) -> DefSite | None:
        """The one definition of var reaching label's input, or None when
        none or several do."""
        hits = self._bits[label] & self._defs_of.get(var, 0)
        if hits and not hits & (hits - 1):
            return self._sites[hits.bit_length() - 1]
        return None


def reaching_definitions(prog: Program) -> ReachingDefinitions:
    """Forward may-analysis: definition sites that can reach each reachable
    block's input. Joins take the union and the entry starts empty."""
    sites: list[DefSite] = []
    kill: dict[str, int] = {}
    for label, block in prog.blocks.items():
        d = defined_var(block.stmt)
        if d is not None:
            kill[d] = kill.get(d, 0) | 1 << len(sites)
            sites.append(DefSite(label, d))
    # label -> (mask of the bits that survive the block, the block's own bit)
    transfer = {site.block: (~kill[site.var], 1 << i) for i, site in enumerate(sites)}

    def step(block: Block, bits: int) -> int:
        keep_gen = transfer.get(block.label)
        if keep_gen is None:
            return bits
        keep, gen = keep_gen
        return bits & keep | gen

    result = _solve(prog, step, 0, 0, operator.or_)
    return ReachingDefinitions({label: result.in_sets[label] for label in result.reachable}, sites, kill)


def classic_transform(prog: Program, acs: AnalysisResult | None = None) -> tuple[Program, ReplacementReport]:
    """One pass of the baseline over the reachable blocks. `acs` is the
    program's availability solution when the caller already has it."""
    rd = reaching_definitions(prog)
    if acs is None:
        acs = run_acs(prog)
    new_blocks: dict[str, Block] = {}
    replacements: list[Replacement] = []
    for label in sorted_labels(prog):
        block = prog.blocks[label]
        if label not in acs.reachable:
            new_blocks[label] = block
            continue
        facts = acs.in_sets[label]

        def attempt(operand: Operand, position: str) -> Operand:
            if not isinstance(operand, Var):
                return operand
            name = operand.name
            site = rd.unique_definition(label, name)
            if site is None:
                return operand
            def_stmt = prog.blocks[site.block].stmt
            if not isinstance(def_stmt, Copy):
                return operand
            src = def_stmt.src
            if src == operand:
                return operand
            if CopyPair(name, src) not in facts:
                return operand
            replacements.append(Replacement(label, position, name, src, 1))
            return src

        stmt = block.stmt
        if isinstance(stmt, Binary):
            stmt = Binary(stmt.dst, stmt.op, attempt(stmt.lhs, "binary-lhs"), attempt(stmt.rhs, "binary-rhs"))
        elif isinstance(stmt, Branch):
            stmt = Branch(attempt(stmt.cond, "branch-cond"))
        new_blocks[label] = Block(label, stmt, block.succs)
    return Program(new_blocks, prog.entry, prog.exit), ReplacementReport(tuple(replacements), pass_count=1)


def classic_to_fixpoint(prog: Program, max_rounds: int) -> tuple[Program, ReplacementReport]:
    """Repeat the baseline with reanalysis until a round changes nothing."""
    return _to_fixpoint(prog, max_rounds, classic_transform)
