"""Must-availability lattice over copy facts and the package's one forward solver.

A fact (dst, src) means dst currently holds the value of src. At most one
source is available per destination, so a fact set is a read-only dict from
destination to source, the available-copies table of Aho et al., *Compilers*
2e, §9. Sets of facts meet by intersection: a pair survives where both maps
hold it.
The lattice needs no symbolic top: the solver meets only the OUTs a block's
predecessors already have, so every fact set is a finite map. The same solver
runs the baseline's reaching definitions (`classic`) on a union lattice.
"""

from __future__ import annotations

from collections.abc import Callable, KeysView, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Generic, NoReturn, TypeVar

from .ir import Operand, Program, Statement


class FactSet(dict[str, Operand]):
    """A finite set of copy facts as a read-only `dict` from destination to
    source, so at most one source per destination. The constructor copies
    its argument and rejects a cyclic map (following src variables loops),
    which includes x -> x. It tests each source once with `in`, and walks on
    from one that is a destination with one `get` per hop until a source is
    not one; a constant source never is. Every mutator raises TypeError;
    `copy()` and `|` give plain dicts.
    """

    __slots__ = ()
    # every fact set is a real pair set; the benchmark's trace still reads this
    is_top = False

    def __init__(self, by_dst: Mapping[str, Operand]) -> None:
        # the walk reads the argument: `in` on a dict subclass misses the
        # exact-dict fast path, and this walk is a chain's cost.
        # Pigeonhole: in a map of k pairs, an acyclic walk from a source that
        # is a destination meets at most k - 1 destinations, so its k-th `get`
        # returns None at the latest, and k that all find one went round a cycle.
        # Every start walks to the end, so a chain-shaped set still costs
        # O(k²); the shared walk of ROADMAP item 2a waits on benchmark item 1.
        get = by_dst.get
        for cur in by_dst.values():
            if cur in by_dst:
                for _ in by_dst:
                    cur = get(cur)
                    if cur is None:
                        break
                else:
                    raise ValueError("cyclic pair set")
        super().__init__(by_dst)

    def _read_only(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError("a FactSet is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __repr__(self) -> str:
        return f"FactSet({super().__repr__()})"

    def __reduce__(self) -> tuple[type[FactSet], tuple[dict[str, Operand]]]:
        # through the constructor, not dict's refill by __setitem__, so a load still walks the map
        return FactSet, (dict(self),)

    def meet(self, other: FactSet) -> FactSet:
        """The pairs both sets hold."""
        theirs = other.get
        return FactSet({dst: src for dst, src in self.items() if theirs(dst) == src})


EMPTY = FactSet({})


def format_facts(facts: FactSet) -> str:
    """The pairs as (dst, src) in destination order."""
    if not facts:
        return "{ }"
    return "{ " + ", ".join(f"({dst}, {facts[dst]})" for dst in sorted(facts)) + " }"


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
    that explores successors in listed order; only back edges point backwards.
    Walked once per program (see `Program`); each call returns a new list."""
    return list(prog._reverse_postorder())


def predecessors(prog: Program) -> Mapping[str, tuple[str, ...]]:
    """Each block's predecessors once each, in label order. Found once per
    program (see `Program`) and shared by programs with the same edges, so
    the map returned is a read-only view."""
    return MappingProxyType(prog._predecessors())


def _solve(
    prog: Program,
    step: Callable[[str, L], L],
    entry: L,
    meet: Callable[[L, L], L],
    *,
    on_update: Callable[[str, L | None, L], None] | None = None,
) -> AnalysisResult[L]:
    """Fixpoint of a forward analysis (Kildall's monotone framework) over the
    blocks reachable from the entry, stepping by label: `step(label, in)`
    gives the OUT of the block at label and reads that block from `prog`.

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
    preds = prog._predecessors()
    rpo = prog._reverse_postorder()
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
            new_out = step(label, in_f)
            old = outs.get(label)
            if new_out != old:
                if on_update is not None:
                    on_update(label, old, new_out)
                outs[label] = new_out
                dirty.update(prog.blocks[label].succs)
    return AnalysisResult(ins, outs, visits)


def solve_forward(
    prog: Program,
    transfer: Callable[[Statement, FactSet], FactSet],
    *,
    on_update: Callable[[str, FactSet | None, FactSet], None] | None = None,
) -> AnalysisResult:
    """Greatest-fixpoint solve of a forward must-analysis over copy facts.

    The entry IN is empty, and each OUT set only descends from its first
    value. Unreachable blocks are never visited and have no IN or OUT; see
    `_solve` for `on_update`.
    """

    def step(label: str, facts: FactSet) -> FactSet:
        return transfer(prog.blocks[label].stmt, facts)

    return _solve(prog, step, EMPTY, FactSet.meet, on_update=on_update)
