"""pyproject.toml's promises about the toolchain: the package, its tests and
its benchmark parse under the oldest Python it admits, and CI installs the
test extra's pins."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MINIMUM = tuple(
    int(part)
    for part in re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups()
)


SOURCES = [path for folder in ("src/copyprop", "tests", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_under_the_minimum_python(path):
    # rejects newer syntax such as `except*` (3.11), not newer library calls;
    # the tests and the benchmark run on that Python too
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=MINIMUM)


def test_ci_installs_exactly_the_test_extras_pins():
    # which derandomized examples Hypothesis draws depends on its version, so
    # a local `pip install -e ".[test]"` must draw what CI draws
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.findall(r'"([^"]+)"', re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (line,) = re.findall(r"^\s*- run: pip install (.*)$", workflow, re.M)
    assert all("==" in pin for pin in extra)
    assert sorted(line.split()) == sorted(extra)
