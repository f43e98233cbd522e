"""`python -m copyprop`: the module entry point hands main's exit code to sys.exit."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
