"""Chain-resolving propagation.

Each variable use is replaced by the endpoint of the unique pair chain that
starts at it: the first constant encountered, or the last variable with a
pair. Whole chains therefore collapse in one pass instead of one link per
pass. Only used operands move; assignment targets never change, so the
program keeps its shape.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from .analysis import run_acs
from .dataflow import AnalysisResult, FactSet
from .ir import USE_SLOTS, Block, Operand, Program


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
    end: Operand = var
    hops = 0
    # a constant is never a destination, so the walk ends at the first one
    while (src := facts.get(end)) is not None:
        end = src
        hops += 1
    return end, hops


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
    ones, asking `rule(label, IN set, variable, slot)` for each variable use:
    (replacement, chain length), or None to keep the use. The uses are the
    operand fields `ir.USE_SLOTS` lists, in slot order; constants are never
    asked about. The unreachable blocks are kept as is. Both propagations
    walk the program here and differ only in the rule.

    The result shares with `prog` what did not change: a block without a
    replacement is `prog`'s own `Block` object, statement included, and a
    pass that replaces nothing returns `prog` itself. Only rewritten blocks
    are built anew. A pass moves no successor, so the result also shares
    `prog`'s label order and edge views (`Program._with_statements`).
    Blocks, statements, views and a program's blocks are immutable, so
    sharing is safe."""
    new_blocks: dict[str, Block] = {}
    replacements: list[Replacement] = []
    for label, block in prog.blocks.items():
        if label in in_sets:
            facts, stmt = in_sets[label], block.stmt
            moved: dict[str, Operand] = {}
            for name, slot in USE_SLOTS[type(stmt)]:
                operand = getattr(stmt, name)
                if isinstance(operand, str) and (found := rule(label, facts, operand, slot)) is not None:
                    replacements.append(Replacement(label, slot, operand, *found))
                    moved[name] = found[0]
            if moved:
                block = Block(replace(stmt, **moved), block.succs)
        new_blocks[label] = block
    if replacements:
        prog = prog._with_statements(new_blocks)
    return prog, ReplacementReport(tuple(replacements), pass_count=1)


def transform(prog: Program, result: AnalysisResult) -> tuple[Program, ReplacementReport]:
    """One rewrite pass over the reachable blocks; unreachable blocks are kept as is."""
    return _rewrite_program(prog, result.in_sets, _chain_endpoint)


def _moved_no_copy_source(report: ReplacementReport) -> bool:
    """Whether one more round after this pass of `transform` would replace
    nothing, so it need not be solved or rewritten. A single pass is not
    always idempotent: a rewritten copy can introduce pairs a later round
    resolves further. But when no `copy-src` slot moved, it is:
    - `transfer` reads only a block's defined variable and a copy's source.
      Targets never move and no copy source moved, so the next round's IN
      sets are this round's.
    - Every use this round rewrote holds its chain's endpoint: a constant, or
      a variable `end` with `facts.get(end)` None, which resolves in 0 hops.
    - Every use this round left alone resolved in 0 hops under the same IN
      set.
    """
    return all(r.position != "copy-src" for r in report.replacements)


def transform_to_fixpoint(prog: Program, max_rounds: int) -> tuple[Program, ReplacementReport]:
    """Reanalyze and rewrite until a round replaces nothing (that round
    counts) or max_rounds is hit; non-convergence is reported, never raised.
    A round that replaced uses but moved no copy source is followed by one
    that would replace nothing (`_moved_no_copy_source`); that round counts,
    when max_rounds allows it, without being solved or rewritten."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    replacements: list[Replacement] = []
    for rounds in range(1, max_rounds + 1):
        prog, report = transform(prog, run_acs(prog))
        replacements.extend(report.replacements)
        if not report.replacements:
            return prog, ReplacementReport(tuple(replacements), rounds, True)
        if rounds < max_rounds and _moved_no_copy_source(report):
            return prog, ReplacementReport(tuple(replacements), rounds + 1, True)
    return prog, ReplacementReport(tuple(replacements), max_rounds, False)
