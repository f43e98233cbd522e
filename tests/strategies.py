"""Hypothesis strategies for programs and input environments.

Programs are well formed (`validate` accepts them) but otherwise free: any
block may jump to any block but the entry, so self-loops, loops without an
exit, unreachable blocks and constant branch conditions all occur. Constants
include the int64 extremes, so arithmetic wraps. Environments bind any
subset of the variable pool, so a read can find its variable unbound.
"""

from __future__ import annotations

from hypothesis import strategies as st

from copyprop import Binary, Block, Branch, Const, Copy, Nop, Program, Var, validate
from copyprop.ir import BINARY_OPS, INT64_MAX, INT64_MIN

VARIABLES = ("a", "b", "c", "d")

values = st.one_of(st.integers(-8, 8), st.sampled_from((INT64_MIN, -1, 2**62, INT64_MAX)))
operands = st.one_of(st.sampled_from(VARIABLES).map(Var), values.map(Const))


@st.composite
def programs(draw, max_blocks: int = 12) -> Program:
    """A nop entry, 1 to max_blocks - 2 body blocks, and a nop exit."""
    count = draw(st.integers(3, max_blocks))
    labels = [f"B{i}" for i in range(count)]
    targets = st.sampled_from(labels[1:])
    blocks = {labels[0]: Block(Nop(), (draw(targets),))}
    for label in labels[1:-1]:
        kind = draw(st.sampled_from(("copy", "binary", "branch", "nop")))
        if kind == "branch":
            blocks[label] = Block(Branch(draw(operands)), (draw(targets), draw(targets)))
            continue
        dst = draw(st.sampled_from(VARIABLES))
        if kind == "copy":
            stmt = Copy(dst, draw(operands))
        elif kind == "binary":
            stmt = Binary(dst, draw(st.sampled_from(BINARY_OPS)), draw(operands), draw(operands))
        else:
            stmt = Nop()
        blocks[label] = Block(stmt, (draw(targets),))
    blocks[labels[-1]] = Block(Nop(), ())
    prog = Program(blocks, labels[0], labels[-1])
    assert not validate(prog), validate(prog)
    return prog


environments = st.dictionaries(st.sampled_from(VARIABLES), values)
