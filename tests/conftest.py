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
    blocks = {"B0": Block(Nop(), ("B1",))}
    for i, stmt in enumerate(stmts, start=1):
        blocks[f"B{i}"] = Block(stmt, (f"B{i + 1}",))
    blocks[f"B{n + 1}"] = Block(Nop(), ())
    return Program(blocks, "B0", f"B{n + 1}")


def copy_chain(n: int) -> tuple[Program, str]:
    """x1 = x0; ...; xn = x(n-1); u = xn + 0. Returns (program, use label)."""
    stmts: list[Statement] = [Copy(f"x{i}", Var(f"x{i - 1}")) for i in range(1, n + 1)]
    stmts.append(Binary("u", "+", Var(f"x{n}"), Const(0)))
    return straight_line(*stmts), f"B{n + 1}"


def looped_counter() -> Program:
    """x = 0, then a loop body x = x + 1 guarded by branch p."""
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Copy("x", Const(0)), ("B2",)),
        "B2": Block(Binary("x", "+", Var("x"), Const(1)), ("B3",)),
        "B3": Block(Branch(Var("p")), ("B2", "B4")),
        "B4": Block(Nop(), ()),
    }
    return Program(blocks, "B0", "B4")


def sequential_diamonds(k: int, tail: int = 0) -> Program:
    """x = 1, then k diamonds in a row, each `branch p` to y = x or y = 2
    joined by z = y + 1: 2**k paths from the entry to the exit. `tail`
    copies w = y follow the last diamond, making each path that much longer."""
    labels = [f"D{i}" for i in range(k)] + [f"T{i}" for i in range(tail)] + ["X"]
    lines = ["entry: B0", "exit: X", "B0: nop -> B1", f"B1: x = 1 -> {labels[0]}"]
    for i in range(k):
        lines += [
            f"D{i}: branch p -> L{i}, R{i}",
            f"L{i}: y = x -> J{i}",
            f"R{i}: y = 2 -> J{i}",
            f"J{i}: z = y + 1 -> {labels[i + 1]}",
        ]
    lines += [f"T{i}: w = y -> {labels[k + i + 1]}" for i in range(tail)]
    lines.append("X: nop")
    return parse_program("\n".join(lines) + "\n")
