from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings

from copyprop import (
    Binary,
    Block,
    Branch,
    Copy,
    FactSet,
    Nop,
    Operand,
    Program,
    Statement,
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
    """A fact set of (dst, src) pairs, such as ('x', 'y') and ('x', 3)."""
    return FactSet(dict(specs))


def functional_and_acyclic(facts: Mapping[str, Operand]) -> bool:
    """Structural check written independently of the FactSet constructor. A
    map is functional by its type, so this walks the sources: none may loop,
    and a self pair x -> x is a loop of one step."""
    by_dst = dict(facts.items())
    for start in by_dst:
        cur, seen = start, set()
        while cur in by_dst:
            if cur in seen:
                return False
            seen.add(cur)
            src = by_dst[cur]
            if not isinstance(src, str):
                break
            cur = src
    return True


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
    stmts: list[Statement] = [Copy(f"x{i}", f"x{i - 1}") for i in range(1, n + 1)]
    stmts.append(Binary("u", "+", f"x{n}", 0))
    return straight_line(*stmts), f"B{n + 1}"


def wide(n: int) -> Program:
    """v1 = 1; ...; vn = n on one straight path: block B_i defines v_i, and
    its IN holds the i - 1 pairs made before it. Acyclic, so the loop
    connectedness is 0."""
    return straight_line(*(Copy(f"v{i}", i) for i in range(1, n + 1)))


def looped_counter() -> Program:
    """x = 0, then a loop body x = x + 1 guarded by branch p."""
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Copy("x", 0), ("B2",)),
        "B2": Block(Binary("x", "+", "x", 1), ("B3",)),
        "B3": Block(Branch("p"), ("B2", "B4")),
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


def fan_in(n: int) -> Program:
    """`C_i: v_i = i -> B_i` and `B_i: branch p -> C_(i+1), J` for i below n,
    each branch a way into the one join J. Every B label sorts before every C
    label, so in label order the facts reach one more C_i per sweep."""
    lines = ["entry: A", "exit: J", "A: nop -> C0"]
    for i in range(n):
        lines += [f"C{i}: v{i} = {i} -> B{i}", f"B{i}: branch p -> C{i + 1}, J"]
    lines += [f"C{n}: nop -> J", "J: nop"]
    return parse_program("\n".join(lines) + "\n")


def nested_loops(n: int, body: int = 0) -> Program:
    """n loops, each the body of the one before: loop i tests `branch c` in
    H_i, enters through P_i, where x_i = x_(i-1) (x_0 = y), and comes back
    from its latch L_i: y = x_i + 1. Leaving loop i goes to the latch of loop
    i - 1, or to the exit. The innermost loop runs `body` nops N_j between
    its P and its latch. The copies form a chain x_i, ..., x_0, y that any
    latch breaks at y, so one rewriting round moves copy sources to x_0 and a
    second, solved anew, confirms. The cycle-free path from the innermost
    latch out through every Q_i takes every back edge L_i -> H_i, so the loop
    connectedness d (Kam & Ullman, 1976) is n."""
    lines = ["entry: E", "exit: X", "E: nop -> H0"]
    for i in range(n):
        inner = f"H{i + 1}" if i + 1 < n else ("N0" if body else f"L{i}")
        outer = f"L{i - 1}" if i else "X"
        src = f"x{i - 1}" if i else "y"
        lines += [
            f"H{i}: branch c -> P{i}, Q{i}",
            f"P{i}: x{i} = {src} -> {inner}",
            f"L{i}: y = x{i} + 1 -> H{i}",
            f"Q{i}: nop -> {outer}",
        ]
    lines += [f"N{j}: nop -> {f'N{j + 1}' if j + 1 < body else f'L{n - 1}'}" for j in range(body)]
    lines.append("X: nop")
    return parse_program("\n".join(lines) + "\n")


def nop_run(n: int) -> Program:
    """x = 1, then n nops, then y = x + 1: one straight path, n + 4 blocks
    deep, whose copy reaches the use across every nop. Acyclic, so the loop
    connectedness is 0."""
    lines = ["entry: B0", f"exit: B{n + 3}", "B0: nop -> B1", "B1: x = 1 -> B2"]
    lines += [f"B{i}: nop -> B{i + 1}" for i in range(2, n + 2)]
    lines += [f"B{n + 2}: y = x + 1 -> B{n + 3}", f"B{n + 3}: nop"]
    return parse_program("\n".join(lines) + "\n")
