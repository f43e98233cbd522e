"""Correctness gate for benchmark outputs, run outside the timed section.

The references never come from copyprop itself: chain outputs are compared
with their closed form, transformed loopy programs are run against the
originals by the small interpreter below, and every check must print exactly
the passing report, with the `mop:` line that the generator's back edges call
for.
"""

from __future__ import annotations

import re

from bench_inputs import Input

INT64 = 1 << 64
FUEL = 2000
COMPARE_HEADER = re.compile(r"classic=(\d+) unified=(\d+)\n")


def _wrap(value: int) -> int:
    return (value + (1 << 63)) % INT64 - (1 << 63)


def parse_tac(text: str) -> tuple[str, dict[str, tuple[list[str], tuple[str, ...]]]]:
    """(entry, label -> (statement tokens, successors)); comments dropped."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    entry = lines[0].split(":", 1)[1].strip()
    blocks = {}
    for line in lines[2:]:
        label, rest = (part.strip() for part in line.split(":", 1))
        stmt, _, succs = rest.partition("->")
        blocks[label] = (stmt.split(), tuple(s.strip() for s in succs.split(",") if s.strip()))
    return entry, blocks


def run_tac(text: str, env0: dict[str, int], fuel: int = FUEL) -> tuple[str, tuple[str, ...], dict[str, int]]:
    """(status, executed labels, final env) under the README's semantics."""
    entry, blocks = parse_tac(text)
    env = dict(env0)
    labels = []

    def value(tok: str) -> int:
        return int(tok) if re.fullmatch(r"[+-]?[0-9]+", tok) else env[tok]

    label = entry
    for _ in range(fuel):
        toks, succs = blocks[label]
        try:
            if toks[0] == "branch":
                nxt = succs[0] if value(toks[1]) != 0 else succs[1]
            elif toks == ["nop"]:
                nxt = succs[0] if succs else None
            elif len(toks) == 3:
                env[toks[0]] = value(toks[2])
                nxt = succs[0]
            else:
                a, op, b = value(toks[2]), toks[3], value(toks[4])
                if op == "/":
                    if b == 0:
                        return "runtime-error", tuple(labels), env
                    q = abs(a) // abs(b)
                    result = -q if (a < 0) != (b < 0) else q
                else:
                    result = a + b if op == "+" else a - b if op == "-" else a * b
                env[toks[0]] = _wrap(result)
                nxt = succs[0]
        except KeyError:
            return "runtime-error", tuple(labels), env
        labels.append(label)
        if nxt is None:
            return "exit", tuple(labels), env
        label = nxt
    return "fuel-exhausted", tuple(labels), env


def check_chain(inp: Input, stdout: str) -> str | None:
    """None when stdout is the closed-form output, else the reason."""
    if stdout == inp.expected:
        return None
    got, want = stdout.splitlines(), inp.expected.splitlines()
    line = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    return f"{inp.name}: output differs from closed form at line {line + 1}"


def check_transform(inp: Input, stdout: str) -> str | None:
    """The rewritten program keeps the CFG and behaves like the original."""
    program = "".join(line + "\n" for line in stdout.splitlines() if not line.startswith("#"))
    if "# passes: " not in stdout:
        return f"{inp.name}: no '# passes:' line"
    orig_entry, orig = parse_tac(inp.text)
    new_entry, new = parse_tac(program)
    if orig_entry != new_entry or {k: v[1] for k, v in orig.items()} != {k: v[1] for k, v in new.items()}:
        return f"{inp.name}: control flow graph changed"
    # the generator assigns every variable before any use, so one run from
    # an empty environment covers the program's only behaviour
    if run_tac(inp.text, {}) != run_tac(program, {}):
        return f"{inp.name}: transformed program behaves differently"
    return None


def check_compare(inp: Input, stdout: str) -> str | None:
    m = COMPARE_HEADER.match(stdout)
    if m is None:
        return f"{inp.name}: compare output lacks the count header"
    if int(m.group(2)) < int(m.group(1)):
        return f"{inp.name}: unified rewrote fewer sites than classic"
    return None


def check_check(inp: Input, stdout: str) -> str | None:
    mop = "mop: PASS" if inp.acyclic else "mop: SKIP (cyclic-cfg)"
    if stdout != f"differential: PASS\nsolver-agreement: PASS\n{mop}\nPASS\n":
        return f"{inp.name}: check output is not the passing report with {mop!r}"
    return None


# A fixed loop in the benchmark's own interpreter: its time, taken between
# ops, tracks how fast the host runs Python code at that moment.
REFERENCE = """entry: B0
exit: B8
B0: nop -> B1
B1: a = 1 -> B2
B2: b = a + 3 -> B3
B3: c = b * a -> B4
B4: a = c - b -> B5
B5: d = a -> B6
B6: e = d / 3 -> B7
B7: branch 1 -> B2, B8
B8: nop
"""
REFERENCE_FUEL = 600


def reference() -> None:
    run_tac(REFERENCE, {}, REFERENCE_FUEL)
