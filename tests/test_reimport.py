"""Re-importing the package must not keep the previous import alive.

The benchmark and some tools drop every `copyprop` module from `sys.modules`
and import the package again. A process-wide cache that holds a package
class (such as `typing`'s subscription cache, when a `typing.Callable` alias
names one) keeps that class's module dict alive after each re-import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COUNT_LIVE_MODULE_DICTS = """
import collections, gc, importlib, json, sys
for _ in range(3):
    for name in [m for m in sys.modules if m == "copyprop" or m.startswith("copyprop.")]:
        del sys.modules[name]
    importlib.import_module("copyprop.cli")
gc.collect()
live = collections.Counter(
    obj["__name__"]
    for obj in gc.get_objects()
    if isinstance(obj, dict) and "__spec__" in obj and str(obj.get("__name__")).startswith("copyprop")
)
print(json.dumps(live))
"""


def test_reimports_leave_one_live_module_dict_per_module():
    done = subprocess.run(
        [sys.executable, "-c", COUNT_LIVE_MODULE_DICTS],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    live = json.loads(done.stdout)
    assert "copyprop.dataflow" in live and "copyprop.ir" in live
    assert live == {name: 1 for name in live}
