"""Golden CLI output: stdout and exit code of fixed commands, byte for byte.

The expected files under tests/golden/ were recorded once and pin the
output of the analysis, the rewrite, the baseline and the checks on the
fixtures, on a fixed fuzz seed (at the default fuel and at the fuel
ceiling) and on two generated looping programs. A
change meant to keep behaviour must pass this unchanged; one that alters
output on purpose records the files again and says so.
Each file holds the line "exit: N" and then the captured stdout.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from copyprop.cli import main
from copyprop.ir import Program, print_program
from copyprop.oracle import GenParams, random_program
from conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.tac"))
LOOPY_SEEDS = (1, 2)

FILE_COMMANDS = {
    "analyze": ["analyze", "--out-sets"],
    "transform": ["transform", "--report"],
    "iterate": ["transform", "--iterate", "10", "--report"],
    "compare": ["compare"],
    "check": ["check"],
    "dot": ["dot", "--annotate", "--transformed"],
}
LOOPY_COMMANDS = ("compare", "iterate")


def loopy_program(seed: int) -> Program:
    return random_program(
        GenParams(seed=seed, min_blocks=120, max_blocks=120, num_vars=26, loop_prob=0.3)
    )


FUZZ_COMMANDS = {
    "fuzz": ["check", "--fuzz", "--programs", "200", "--seed", "7"],
    # a fast-forwarded run keeps no fuel-long trace, so the fuel ceiling
    # prints what the default fuel does, in about the same time
    "fuzz-fuel": ["check", "--fuzz", "--programs", "200", "--seed", "7", "--fuel", "10000000"],
}

# (test id, golden file stem, FILE_COMMANDS or FUZZ_COMMANDS key, fixture name or loopy seed or None)
CASES = (
    [(f"{name}-{cmd}", f"{name}-{cmd}", cmd, name) for name in FIXTURE_NAMES for cmd in FILE_COMMANDS]
    + [(f"loopy{seed}-{cmd}", f"loopy{seed}-{cmd}", cmd, seed) for seed in LOOPY_SEEDS for cmd in LOOPY_COMMANDS]
    + [("fuzz-seed7", "fuzz-seed7", "fuzz", None), ("fuzz-seed7-fuel-ceiling", "fuzz-seed7", "fuzz-fuel", None)]
)


def argv_for(cmd: str, source: str | int | None, tmp_path: Path) -> list[str]:
    if cmd in FUZZ_COMMANDS:
        return FUZZ_COMMANDS[cmd]
    if isinstance(source, int):
        path = tmp_path / f"loopy{source}.tac"
        path.write_text(print_program(loopy_program(source)))
    else:
        path = FIXTURES / f"{source}.tac"
    verb, *flags = FILE_COMMANDS[cmd]
    return [verb, str(path), *flags]


@pytest.mark.parametrize(("stem", "cmd", "source"), [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(stem, cmd, source, tmp_path, capsys):
    code = main(argv_for(cmd, source, tmp_path))
    actual = f"exit: {code}\n" + capsys.readouterr().out
    assert actual.encode() == (GOLDEN / f"{stem}.txt").read_bytes()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("cmd", FILE_COMMANDS)
def test_reversed_listing_matches_golden(name, cmd, tmp_path, capsys):
    """A fixture with its block lines listed bottom-up prints what the
    fixture does: no command reads the order a file lists its blocks in."""
    lines = [line for line in (FIXTURES / f"{name}.tac").read_text().splitlines() if line.split("#", 1)[0].strip()]
    path = tmp_path / f"{name}.tac"
    # the entry and exit directives stay first
    path.write_text("\n".join(lines[:2] + lines[:1:-1]) + "\n")
    verb, *flags = FILE_COMMANDS[cmd]
    code = main([verb, str(path), *flags])
    actual = f"exit: {code}\n" + capsys.readouterr().out
    assert actual.encode() == (GOLDEN / f"{name}-{cmd}.txt").read_bytes()
