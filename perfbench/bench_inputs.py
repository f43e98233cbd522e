"""Seeded `.tac` inputs for the copyprop benchmark.

Every input is text made here from the run's seed; the program under test
only ever reads the written files. The random-program generator is a copy of
the algorithm behind `copyprop.oracle.random_program` (same draws, same
output), kept here so that changes to the package's own generator never
change what the benchmark measures.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

CHAIN_SIZES = (100, 200, 400)
LOOPY_PROGRAMS = 16
FUZZ_PROGRAMS = 1000
# programs that run until `check`'s default fuel (10000 steps) is spent. They
# are ~35x slower than the rest and set the fuzz tail, the 11th largest of one
# cycle, so their count is fixed: with 24 (3x their natural ~0.8% share) the
# tail is the median of 24 such programs, not an extreme of a few.
FUZZ_LOOPING = 24
CHECK_FUEL = 10000


@dataclass(frozen=True)
class Input:
    name: str
    text: str
    blocks: int
    # chain length for chain inputs, block count for the others
    size: int
    # closed-form `transform --report` output (chain inputs only)
    expected: str | None = None
    # False when the generator emitted a back edge
    acyclic: bool = True
    # `check --seed` value (fuzz inputs only)
    check_seed: int = 0


def chain_input(n: int, root_const: bool, rng: random.Random) -> Input:
    """n copies c1 = root, c2 = c1, ..., cn = c(n-1), then a use of cn.

    One rewrite pass replaces every copy source and the final use by the root
    (a variable never assigned, or a constant), with chain lengths 1..n.
    """
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(2))
    root = str(rng.randint(1, 999)) if root_const else f"{prefix}_in"
    addend = rng.randint(1, 99)
    last = n + 2
    head = ["entry: B0", f"exit: B{last}", "B0: nop -> B1"]
    src_lines, out_lines, report = [], [], []
    for i in range(1, n + 1):
        src = root if i == 1 else f"{prefix}{i - 1}"
        src_lines.append(f"B{i}: {prefix}{i} = {src} -> B{i + 1}")
        out_lines.append(f"B{i}: {prefix}{i} = {root} -> B{i + 1}")
        if i > 1:
            report.append(f"# B{i} copy-src: {src} -> {root} (chain {i - 1})")
    use = f"B{n + 1}: {prefix}_use = {{}} + {addend} -> B{last}"
    tail = [f"B{last}: nop"]
    report.append(f"# B{n + 1} binary-lhs: {prefix}{n} -> {root} (chain {n})")
    text = "\n".join(head + src_lines + [use.format(f"{prefix}{n}")] + tail) + "\n"
    expected = "\n".join(head + out_lines + [use.format(root)] + tail + ["# passes: 1"] + report) + "\n"
    name = f"chain{n}{'c' if root_const else 'v'}"
    return Input(name, text, blocks=n + 3, size=n, expected=expected)


def random_tac(
    seed: int,
    *,
    min_blocks: int = 8,
    max_blocks: int = 16,
    num_vars: int = 4,
    const_min: int = -8,
    const_max: int = 8,
    branch_prob: float = 0.25,
    loop_prob: float = 0.1,
    copy_ratio: float = 0.5,
) -> tuple[str, int, bool]:
    """(text, block count, acyclic) of one random valid program.

    The defaults are those of `GenParams`: a nop entry, one constant copy per
    pool variable, a body of copies, binaries and branches (back edges with
    loop_prob), and a nop exit.
    """
    rng = random.Random(seed)
    pool = list(string.ascii_lowercase[:num_vars])
    total = rng.randint(min_blocks, max_blocks)
    ops = ["+", "-", "*"]
    acyclic = True

    def operand() -> str:
        if rng.random() < 0.7:
            return rng.choice(pool)
        return str(rng.randint(const_min, const_max))

    lines = ["entry: B0", f"exit: B{total - 1}", "B0: nop -> B1"]
    for i, name in enumerate(pool, start=1):
        lines.append(f"B{i}: {name} = {rng.randint(const_min, const_max)} -> B{i + 1}")
    for i in range(len(pool) + 1, total - 1):
        if rng.random() < branch_prob:
            if rng.random() < loop_prob:
                other = rng.randint(1, i)
                acyclic = False
            else:
                other = rng.randint(i + 1, total - 1)
            lines.append(f"B{i}: branch {rng.choice(pool)} -> B{i + 1}, B{other}")
            continue
        if rng.random() < copy_ratio:
            if rng.random() < 0.4:
                src = str(rng.randint(const_min, const_max))
            else:
                src = rng.choice(pool)
            stmt = f"{rng.choice(pool)} = {src}"
        else:
            dst, op = rng.choice(pool), rng.choice(ops)
            lhs = operand()
            stmt = f"{dst} = {lhs} {op} {operand()}"
        lines.append(f"B{i}: {stmt} -> B{i + 1}")
    lines.append(f"B{total - 1}: nop")
    return "\n".join(lines) + "\n", total, acyclic


def chain_inputs(seed: int) -> list[Input]:
    """Every chain size, once rooted at a variable and once at a constant."""
    rng = random.Random(seed)
    return [chain_input(n, const, rng) for n in CHAIN_SIZES for const in (False, True)]


def loopy_inputs(seed: int) -> list[Input]:
    """400-block programs over 26 variables with frequent back edges.

    The size is fixed because solve and reaching-definitions cost grow faster
    than linearly in it; the seed varies only the program's shape.
    """
    rng = random.Random(seed)
    inputs = []
    for k in range(LOOPY_PROGRAMS):
        text, blocks, acyclic = random_tac(
            rng.randrange(2**32), min_blocks=400, max_blocks=400, num_vars=26, loop_prob=0.3
        )
        inputs.append(Input(f"loopy{k:02d}", text, blocks, blocks, acyclic=acyclic))
    return inputs


def fuzz_inputs(seed: int) -> list[Input]:
    """Small default-parameter programs, each with its own `check --seed`.

    Programs assign every variable before reading it, so whether one runs
    out of fuel does not depend on `check`'s random inputs.
    """
    from bench_check import run_tac

    rng = random.Random(seed)
    inputs: list[Input] = []
    looping = 0
    while len(inputs) < FUZZ_PROGRAMS:
        text, blocks, acyclic = random_tac(rng.randrange(2**32))
        check_seed = rng.randrange(2**31)
        loops = not acyclic and run_tac(text, {}, CHECK_FUEL)[0] == "fuel-exhausted"
        if loops:
            full = looping == FUZZ_LOOPING
        else:
            full = len(inputs) - looping == FUZZ_PROGRAMS - FUZZ_LOOPING
        if full:
            continue
        looping += loops
        inputs.append(Input(f"fuzz{len(inputs):04d}", text, blocks, blocks, acyclic=acyclic, check_seed=check_seed))
    return inputs


def warmup_input(seed: int) -> Input:
    """A small program for the warm-up op, never one of the measured inputs."""
    text, blocks, acyclic = random_tac(random.Random(seed).randrange(2**32) ^ 1)
    return Input("warmup", text, blocks, blocks, acyclic=acyclic)
