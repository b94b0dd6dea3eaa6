"""The benchmark under bench/ imports public names of nokequal. Importing its
workloads here makes a refactor that moves or renames one of them fail the
test suite, instead of breaking bench/run.py at import time."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_workloads_import(monkeypatch):
    # the same sys.path entries as bench/tests/conftest.py
    for path in (BENCH.parent / "src", BENCH):
        monkeypatch.syspath_prepend(str(path))
    for name in ("workloads", "reference", "speed"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS == ("table", "audit", "plan")
