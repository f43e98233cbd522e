from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings

from copyprop import (
    Binary,
    Block,
    Branch,
    Const,
    Copy,
    FactSet,
    Nop,
    Program,
    Statement,
    Var,
    parse_program,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# every property replays the same examples on every run and stores none;
# each test sets its own max_examples
settings.register_profile("copyprop", derandomize=True, database=None, deadline=None)
settings.load_profile("copyprop")


def load_fixture(name: str) -> Program:
    return parse_program((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def fig1() -> Program:
    return load_fixture("fig1.tac")


@pytest.fixture(scope="session")
def fig2() -> Program:
    return load_fixture("fig2.tac")


def pairs(*specs) -> FactSet:
    """('x', 'y') -> x: Var('y'); ('x', 3) -> x: Const(3)."""
    return FactSet({dst: Const(src) if isinstance(src, int) else Var(src) for dst, src in specs})


def reversed_listing(prog: Program) -> Program:
    """The same program with its blocks listed bottom-up."""
    return Program(dict(reversed(prog.blocks.items())), prog.entry, prog.exit)


def swapped_branches(prog: Program) -> Program:
    """Every branch's successors swapped: the same edges, so the same
    data-flow fixpoint, but a different depth-first order."""
    blocks = {label: replace(block, succs=block.succs[::-1]) for label, block in prog.blocks.items()}
    return Program(blocks, prog.entry, prog.exit)


def straight_line(*stmts: Statement) -> Program:
    """entry, one block per statement, exit; single-successor spine."""
    n = len(stmts)
    blocks = {"B0": Block("B0", Nop(), ("B1",))}
    for i, stmt in enumerate(stmts, start=1):
        blocks[f"B{i}"] = Block(f"B{i}", stmt, (f"B{i + 1}",))
    blocks[f"B{n + 1}"] = Block(f"B{n + 1}", Nop(), ())
    return Program(blocks, "B0", f"B{n + 1}")


def copy_chain(n: int) -> tuple[Program, str]:
    """x1 = x0; ...; xn = x(n-1); u = xn + 0. Returns (program, use label)."""
    stmts: list[Statement] = [Copy(f"x{i}", Var(f"x{i - 1}")) for i in range(1, n + 1)]
    stmts.append(Binary("u", "+", Var(f"x{n}"), Const(0)))
    return straight_line(*stmts), f"B{n + 1}"


def looped_counter() -> Program:
    """x = 0, then a loop body x = x + 1 guarded by branch p."""
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Copy("x", Const(0)), ("B2",)),
        "B2": Block("B2", Binary("x", "+", Var("x"), Const(1)), ("B3",)),
        "B3": Block("B3", Branch(Var("p")), ("B2", "B4")),
        "B4": Block("B4", Nop(), ()),
    }
    return Program(blocks, "B0", "B4")


def sequential_diamonds(k: int) -> Program:
    """x = 1, then k diamonds in a row, each `branch p` to y = x or y = 2
    joined by z = y + 1: 2**k paths from the entry to the exit."""
    lines = ["entry: B0", "exit: X", "B0: nop -> B1", "B1: x = 1 -> D0"]
    for i in range(k):
        join = f"D{i + 1}" if i + 1 < k else "X"
        lines += [
            f"D{i}: branch p -> L{i}, R{i}",
            f"L{i}: y = x -> J{i}",
            f"R{i}: y = 2 -> J{i}",
            f"J{i}: z = y + 1 -> {join}",
        ]
    lines.append("X: nop")
    return parse_program("\n".join(lines) + "\n")
