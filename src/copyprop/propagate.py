"""Chain-resolving propagation.

Each variable use is replaced by the endpoint of the unique pair chain that
starts at it: the first constant encountered, or the last variable with a
pair. Whole chains therefore collapse in one pass instead of one link per
pass. Only used operands move; assignment targets never change, so the
program keeps its shape.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .analysis import run_acs
from .dataflow import AnalysisResult, FactSet
from .ir import Binary, Block, Branch, Const, Copy, Operand, Program, Statement, Var, sorted_labels

SLOT_ORDER = ("copy-src", "binary-lhs", "binary-rhs", "branch-cond")


@dataclass(frozen=True)
class Replacement:
    block: str
    position: str
    original: str
    replacement: Operand
    chain_length: int


@dataclass(frozen=True)
class ReplacementReport:
    replacements: tuple[Replacement, ...]
    pass_count: int
    converged: bool = True


def resolve_chain(var: str, facts: FactSet) -> tuple[Operand, int]:
    """Follow pairs from var; return the endpoint and how many pairs were used.

    Stops at the first constant source, or at the first variable without a
    pair. Acyclicity of the fact set bounds the walk by its size.
    """
    name = var
    hops = 0
    while True:
        src = facts.get(name)
        if src is None:
            return Var(name), hops
        hops += 1
        if isinstance(src, Const):
            return src, hops
        name = src.name


def _rewrite_slots(
    stmt: Statement,
    label: str,
    facts: FactSet,
    rule: Callable[[str, FactSet, str, str], tuple[Operand, int] | None],
) -> tuple[Statement, list[Replacement]]:
    """Rewrite each variable use of one statement to `rule(label, facts, name,
    slot)`: (replacement, chain length), or None to keep the use. The one
    place that knows which operand of which statement is which slot."""
    replacements: list[Replacement] = []

    def slot(operand: Operand, position: str) -> Operand:
        if not isinstance(operand, Var):
            return operand
        found = rule(label, facts, operand.name, position)
        if found is None:
            return operand
        replacements.append(Replacement(label, position, operand.name, *found))
        return found[0]

    if isinstance(stmt, Copy):
        stmt = Copy(stmt.dst, slot(stmt.src, "copy-src"))
    elif isinstance(stmt, Binary):
        stmt = Binary(stmt.dst, stmt.op, slot(stmt.lhs, "binary-lhs"), slot(stmt.rhs, "binary-rhs"))
    elif isinstance(stmt, Branch):
        stmt = Branch(slot(stmt.cond, "branch-cond"))
    return stmt, replacements


def _chain_endpoint(label: str, facts: FactSet, name: str, position: str) -> tuple[Operand, int] | None:
    """The unified pass's rule: the endpoint of the use's pair chain, if any."""
    found = resolve_chain(name, facts)
    return found if found[1] else None


def _rewrite_program(
    prog: Program,
    in_sets: dict[str, FactSet],
    rule: Callable[[str, FactSet, str, str], tuple[Operand, int] | None],
) -> tuple[Program, ReplacementReport]:
    """One pass in label order over the blocks with an IN set, the reachable
    ones, asking `rule(label, IN set, variable, slot)` for each use; the
    unreachable blocks are kept as is. Both propagations walk the program
    here and differ only in the rule."""
    new_blocks: dict[str, Block] = {}
    replacements: list[Replacement] = []
    for label in sorted_labels(prog):
        block = prog.blocks[label]
        if label in in_sets:
            stmt, reps = _rewrite_slots(block.stmt, label, in_sets[label], rule)
            block = Block(stmt, block.succs)
            replacements.extend(reps)
        new_blocks[label] = block
    return Program(new_blocks, prog.entry, prog.exit), ReplacementReport(tuple(replacements), pass_count=1)


def transform(prog: Program, result: AnalysisResult) -> tuple[Program, ReplacementReport]:
    """One rewrite pass over the reachable blocks; unreachable blocks are kept as is."""
    return _rewrite_program(prog, result.in_sets, _chain_endpoint)


def transform_to_fixpoint(prog: Program, max_rounds: int) -> tuple[Program, ReplacementReport]:
    """Reanalyze and rewrite until a round replaces nothing (that round
    counts) or max_rounds is hit; non-convergence is reported, never raised.

    A rewritten copy can introduce pairs a later round resolves further, so a
    single pass is not always idempotent.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    replacements: list[Replacement] = []
    for rounds in range(1, max_rounds + 1):
        prog, report = transform(prog, run_acs(prog))
        replacements.extend(report.replacements)
        if not report.replacements:
            return prog, ReplacementReport(tuple(replacements), rounds, True)
    return prog, ReplacementReport(tuple(replacements), max_rounds, False)
