"""`python -m copyprop`: the module entry point hands main's exit code to sys.exit."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from copyprop import Binary, print_program
from conftest import straight_line

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def copyprop(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "copyprop", *argv], cwd=cwd, env=ENV, capture_output=True, text=True, timeout=60
    )


def test_compare_exits_0_with_the_golden_report():
    run = copyprop("compare", "fixtures/fig2.tac")
    golden = (ROOT / "tests" / "golden" / "fig2-compare.txt").read_text()
    assert (run.returncode, run.stderr) == (0, "")
    assert f"exit: 0\n{run.stdout}" == golden


def test_a_parse_error_exits_2_on_stderr(tmp_path):
    path = tmp_path / "broken.tac"
    path.write_text("entry: B0\nexit: B1\nB0: nop -> B9\nB1: nop\n")
    run = copyprop("compare", str(path))
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and "unknown-successor B9" in run.stderr


# `check` with its first program check failing, so that it prints the program
PLANTED_FAILURE = """
import sys
from copyprop import Verdict, cli
cli._check_one = lambda *args: ("differential", Verdict(False, "planted"))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["transform", "--report"], ["transform"], ["dot"], ["check"]],
    ids=["analyze", "transform", "transform-program", "dot", "check-failure"],
)
def test_a_closed_stdout_exits_141_quietly(tmp_path, argv):
    # the output is larger than a pipe buffer, so the run is still writing
    # when the reader closes the pipe after one line, as `| head -1` does
    path = tmp_path / "line.tac"
    path.write_text(print_program(straight_line(*[Binary("x", "+", "x", 1)] * 10_000)))
    entry = ["-c", PLANTED_FAILURE] if argv[0] == "check" else ["-m", "copyprop"]
    command = [sys.executable, *entry, argv[0], str(path), *argv[1:]]
    with subprocess.Popen(command, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as run:
        assert run.stdout.readline()
        run.stdout.close()
        assert run.stderr.read() == ""
        assert run.wait(timeout=60) == 141
