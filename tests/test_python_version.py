"""The package must parse under the oldest Python that pyproject.toml admits."""

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


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "copyprop").glob("*.py")), ids=lambda p: p.name)
def test_source_parses_under_the_minimum_python(path):
    # rejects newer syntax such as `except*` (3.11), not newer library calls
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=MINIMUM)
