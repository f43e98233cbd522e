"""Must-availability lattice over copy facts and the package's one forward solver.

A fact (dst, src) means dst currently holds the value of src. At most one
source is available per destination, so a fact set is a map from destination
to source, the available-copies table of Aho et al., *Compilers* 2e, §9.
Sets of facts meet by intersection: a pair survives where both maps hold it.
The lattice needs no symbolic top: the solver meets only the OUTs a block's
predecessors already have, so every fact set is a finite map. The same solver
runs the baseline's reaching definitions (`classic`) on a union lattice.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, KeysView, Mapping
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

from .ir import Block, Operand, Program, Statement, Var, format_operand


class FactSet(Mapping[str, Operand]):
    """A finite set of copy facts as a read-only map from destination to
    source, so at most one source per destination. The constructor rejects
    a cyclic map (following src variables loops), which includes x -> x.
    """

    __slots__ = ("_by_dst",)
    # every fact set is a real pair set; the benchmark's trace still reads this
    is_top = False

    def __init__(self, by_dst: Mapping[str, Operand]) -> None:
        by_dst = dict(by_dst)
        for start in by_dst:
            seen = set()
            cur = start
            while cur in by_dst:
                if cur in seen:
                    raise ValueError("cyclic pair set")
                seen.add(cur)
                nxt = by_dst[cur]
                if not isinstance(nxt, Var):
                    break
                cur = nxt.name
        self._by_dst = by_dst

    def __getitem__(self, dst: str) -> Operand:
        return self._by_dst[dst]

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_dst)

    def __len__(self) -> int:
        return len(self._by_dst)

    # the dict's own get and items: Mapping's generic ones call __getitem__
    # per key, which slows `check --fuzz` by about a third
    def get(self, dst: str, default: Operand | None = None) -> Operand | None:
        return self._by_dst.get(dst, default)

    def items(self) -> ItemsView[str, Operand]:
        return self._by_dst.items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FactSet):
            return self._by_dst == other._by_dst
        return NotImplemented

    def __repr__(self) -> str:
        return f"FactSet({self._by_dst!r})"

    def meet(self, other: FactSet) -> FactSet:
        """The pairs both sets hold."""
        theirs = other._by_dst
        return FactSet({dst: src for dst, src in self._by_dst.items() if theirs.get(dst) == src})


EMPTY = FactSet({})


def format_facts(facts: FactSet) -> str:
    """The pairs as (dst, src) in destination order."""
    if not facts:
        return "{ }"
    return "{ " + ", ".join(f"({dst}, {format_operand(facts[dst])})" for dst in sorted(facts)) + " }"


L = TypeVar("L")


@dataclass(frozen=True)
class AnalysisResult(Generic[L]):
    """Fixpoint of a forward analysis over lattice L (FactSet unless stated):
    the IN and OUT of each block reachable from the entry, and of no other.
    Equality compares the solution, not the work it took."""

    in_sets: dict[str, L]
    out_sets: dict[str, L]
    iterations: int = field(compare=False)

    @property
    def reachable(self) -> KeysView[str]:
        # the program reads `in_sets`; only the benchmark's trace
        # (perfbench/bench_trace.py) still reads this
        return self.in_sets.keys()


def reverse_postorder(prog: Program) -> list[str]:
    """Blocks reachable from the entry in reverse postorder of a depth-first walk
    that explores successors in listed order; only back edges point backwards."""
    seen = {prog.entry}
    post: list[str] = []
    stack = [(prog.entry, iter(prog.blocks[prog.entry].succs))]
    while stack:
        label, succs = stack[-1]
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(prog.blocks[succ].succs)))
                break
        else:
            stack.pop()
            post.append(label)
    return post[::-1]


def predecessors(prog: Program) -> dict[str, tuple[str, ...]]:
    preds: dict[str, list[str]] = {label: [] for label in prog.blocks}
    for label, block in prog.blocks.items():
        for succ in block.succs:
            if label not in preds[succ]:
                preds[succ].append(label)
    return {label: tuple(ps) for label, ps in preds.items()}


Transfer = Callable[[Statement, FactSet], FactSet]
UpdateHook = Callable[[str, FactSet | None, FactSet], None]


def _solve(
    prog: Program,
    step: Callable[[Block, L], L],
    entry: L,
    meet: Callable[[L, L], L],
    *,
    on_update: Callable[[str, L | None, L], None] | None = None,
) -> AnalysisResult[L]:
    """Fixpoint of a forward analysis (Kildall's monotone framework) over the
    blocks reachable from the entry.

    The entry's IN is `entry` met with its predecessors' OUTs; any other
    block's IN is the meet of the OUTs its predecessors have so far. A
    predecessor without one, unreachable or behind a back edge not yet
    crossed, is left out, as the meet's identity would be. Each pass visits
    the dirty blocks in reverse postorder (Cooper, Harvey & Kennedy, 2004):
    all start dirty, and an OUT change dirties the successors, for this pass
    or, across a back edge, the next; so the work depends on the graph alone,
    and each block after the entry meets at least its parent in the walk.
    `on_update(label, old, new)` fires on every OUT change, with `old` None
    for a block's first OUT; `iterations` counts block visits.
    """
    preds = predecessors(prog)
    rpo = reverse_postorder(prog)
    ins: dict[str, L] = {}
    outs: dict[str, L] = {}
    dirty = set(rpo)
    visits = 0
    while dirty:
        for label in rpo:
            if label not in dirty:
                continue
            dirty.remove(label)
            visits += 1
            in_f = entry if label == prog.entry else None
            for pred in preds[label]:
                out = outs.get(pred)
                if out is not None:
                    in_f = out if in_f is None else meet(in_f, out)
            ins[label] = in_f
            block = prog.blocks[label]
            new_out = step(block, in_f)
            old = outs.get(label)
            if new_out != old:
                if on_update is not None:
                    on_update(label, old, new_out)
                outs[label] = new_out
                dirty.update(block.succs)
    return AnalysisResult(ins, outs, visits)


def solve_forward(
    prog: Program,
    transfer: Transfer,
    *,
    on_update: UpdateHook | None = None,
) -> AnalysisResult:
    """Greatest-fixpoint solve of a forward must-analysis over copy facts.

    The entry IN is empty, and each OUT set only descends from its first
    value. Unreachable blocks are never visited and have no IN or OUT; see
    `_solve` for `on_update`.
    """

    def step(block: Block, facts: FactSet) -> FactSet:
        return transfer(block.stmt, facts)

    return _solve(prog, step, EMPTY, FactSet.meet, on_update=on_update)
