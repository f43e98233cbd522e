"""Hypothesis strategies for programs and input environments.

Programs are well formed (`validate` accepts them) but otherwise free: any
block may jump to any block but the entry, so self-loops, loops without an
exit, unreachable blocks and constant branch conditions all occur. Free
jumps seldom leave a copy available where its variable is used, so a body
may also hold fig1's diamond: a branch whose two arms hold the same copy
t = e, joined at a block that computes with t. Constants include the int64
extremes, so arithmetic wraps. Environments bind any subset of the variable
pool, so a read can find its variable unbound.
"""

from __future__ import annotations

from hypothesis import strategies as st

from copyprop import Binary, Block, Branch, Const, Copy, Nop, Program, Var, validate
from copyprop.ir import BINARY_OPS, INT64_MAX, INT64_MIN

VARIABLES = ("a", "b", "c", "d")

values = st.one_of(st.integers(-8, 8), st.sampled_from((INT64_MIN, -1, 2**62, INT64_MAX)))
operands = st.one_of(st.sampled_from(VARIABLES).map(Var), values.map(Const))
# what a body position holds; the diamond comes last, left out where it does not fit
KINDS = ("copy", "binary", "branch", "nop", "diamond")


@st.composite
def programs(draw, max_blocks: int = 12) -> Program:
    """A nop entry, 1 to max_blocks - 2 body blocks, and a nop exit. A
    diamond takes four consecutive body blocks; its join goes anywhere."""
    count = draw(st.integers(3, max_blocks))
    labels = [f"B{i}" for i in range(count)]
    targets = st.sampled_from(labels[1:])
    blocks = {labels[0]: Block(Nop(), (draw(targets),))}
    i = 1
    while i < count - 1:
        label = labels[i]
        kind = draw(st.sampled_from(KINDS if i + 4 < count else KINDS[:-1]))
        if kind == "diamond":
            left, right, join = labels[i + 1 : i + 4]
            var = draw(st.sampled_from(VARIABLES))
            blocks[label] = Block(Branch(draw(operands)), (left, right))
            blocks[left] = blocks[right] = Block(Copy(var, draw(operands)), (join,))
            lhs, rhs = Var(var), draw(operands)
            if draw(st.booleans()):
                lhs, rhs = rhs, lhs
            use = Binary(draw(st.sampled_from(VARIABLES)), draw(st.sampled_from(BINARY_OPS)), lhs, rhs)
            blocks[join] = Block(use, (draw(targets),))
            i += 4
            continue
        i += 1
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
