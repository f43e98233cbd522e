"""Must-availability lattice over copy facts and the package's one forward solver.

Facts are (dst, src) pairs meaning dst currently holds the value of src.
Sets of facts meet by intersection; the symbolic TOP element stands for
"every fact" and only appears before a block has been visited. The same
solver runs the baseline's reaching definitions (`classic`) on a union lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, TypeVar

from .ir import Block, Operand, Program, Statement, Var, format_operand


@dataclass(frozen=True)
class CopyPair:
    """dst was last assigned src and neither has been redefined since."""
    dst: str
    src: Operand

    def __post_init__(self) -> None:
        # x = x carries no information and would make the pair graph cyclic.
        if isinstance(self.src, Var) and self.src.name == self.dst:
            raise ValueError(f"self pair ({self.dst}, {self.dst})")


def format_pair(pair: CopyPair) -> str:
    return f"({pair.dst}, {format_operand(pair.src)})"


def pair_sort_key(pair: CopyPair) -> tuple[str, str]:
    return (pair.dst, format_operand(pair.src))


@dataclass(frozen=True)
class FactSet:
    """Either TOP (pairs is None) or a finite set of copy pairs.

    Finite sets are functional (at most one pair per destination) and
    acyclic (following src variables never loops); the constructor rejects
    anything else.
    """

    pairs: frozenset[CopyPair] | None

    def __post_init__(self) -> None:
        if self.pairs is None:
            return
        by_dst: dict[str, Operand] = {}
        for pair in self.pairs:
            if pair.dst in by_dst:
                raise ValueError(f"two pairs for destination {pair.dst}")
            by_dst[pair.dst] = pair.src
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

    @classmethod
    def of(cls, pairs: Iterable[CopyPair]) -> FactSet:
        return cls(frozenset(pairs))

    @property
    def is_top(self) -> bool:
        return self.pairs is None

    def meet(self, other: FactSet) -> FactSet:
        if self.pairs is None:
            return other
        if other.pairs is None:
            return self
        return FactSet(self.pairs & other.pairs)

    def lookup(self, var: str) -> Operand | None:
        """Source paired with var, or None; unique when present."""
        if self.pairs is None:
            raise ValueError("lookup on TOP")
        for pair in self.pairs:
            if pair.dst == var:
                return pair.src
        return None

    def __contains__(self, pair: CopyPair) -> bool:
        return self.pairs is None or pair in self.pairs

    def __len__(self) -> int:
        if self.pairs is None:
            raise ValueError("len of TOP")
        return len(self.pairs)


TOP = FactSet(None)
EMPTY = FactSet(frozenset())


def format_facts(facts: FactSet) -> str:
    if facts.pairs is None:
        return "TOP"
    if not facts.pairs:
        return "{ }"
    return "{ " + ", ".join(format_pair(p) for p in sorted(facts.pairs, key=pair_sort_key)) + " }"


L = TypeVar("L")


@dataclass(frozen=True)
class AnalysisResult(Generic[L]):
    """Fixpoint of a forward analysis over lattice L (FactSet unless stated).
    Equality compares the solution, not the work it took."""

    in_sets: dict[str, L]
    out_sets: dict[str, L]
    reachable: frozenset[str]
    iterations: int = field(compare=False)


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
UpdateHook = Callable[[str, FactSet, FactSet], None]


def _solve(
    prog: Program,
    step: Callable[[Block, L], L],
    entry: L,
    init: L,
    meet: Callable[[L, L], L],
    *,
    on_update: Callable[[str, L, L], None] | None = None,
) -> AnalysisResult[L]:
    """Fixpoint of a forward analysis (Kildall's monotone framework).

    Every IN and OUT starts at `init`, which must be the identity of `meet`,
    so unvisited and unreachable predecessors drop out of a meet. The entry's
    IN is `entry` met with its predecessors. Each pass visits the dirty
    blocks in reverse postorder (Cooper, Harvey & Kennedy, 2004): all start
    dirty, and an OUT change dirties the successors, for this pass or, across
    a back edge, the next; so the work depends on the graph alone.
    `on_update(label, old, new)` fires on every OUT change; `iterations`
    counts block visits.
    """
    preds = predecessors(prog)
    rpo = reverse_postorder(prog)
    ins = dict.fromkeys(prog.blocks, init)
    outs = dict.fromkeys(prog.blocks, init)
    dirty = set(rpo)
    visits = 0
    while dirty:
        for label in rpo:
            if label not in dirty:
                continue
            dirty.remove(label)
            visits += 1
            in_f = entry if label == prog.entry else init
            for pred in preds[label]:
                in_f = meet(in_f, outs[pred])
            ins[label] = in_f
            block = prog.blocks[label]
            new_out = step(block, in_f)
            if new_out != outs[label]:
                if on_update is not None:
                    on_update(label, outs[label], new_out)
                outs[label] = new_out
                dirty.update(block.succs)
    return AnalysisResult(ins, outs, frozenset(rpo), visits)


def solve_forward(
    prog: Program,
    transfer: Transfer,
    *,
    on_update: UpdateHook | None = None,
) -> AnalysisResult:
    """Greatest-fixpoint solve of a forward must-analysis over copy facts.

    Every OUT set starts at TOP and can only descend; the entry IN is empty.
    Unreachable blocks are never visited and keep TOP; see `_solve` for `on_update`.
    """

    def step(block: Block, facts: FactSet) -> FactSet:
        return transfer(block.stmt, facts)

    return _solve(prog, step, EMPTY, TOP, FactSet.meet, on_update=on_update)
