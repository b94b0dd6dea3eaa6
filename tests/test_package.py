"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nokequal

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "nokequal").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so a check written as one would not always run
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


def test_every_export_resolves():
    missing = [name for name in nokequal.__all__ if not hasattr(nokequal, name)]
    assert missing == []


def _imported_names(tree):
    """Names bound by the module's imports, except from __future__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return names


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports to re-export; every other module uses what it imports
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_functools_cache(path):
    # the normal-form memo in cohomology is the package's one cache, and it
    # can be cleared; a functools cache would be a second, unbounded one
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in CACHE_DECORATORS
             or isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
             or isinstance(node, ast.ImportFrom) and node.module == "functools"
             and any(a.name in CACHE_DECORATORS for a in node.names)]
    assert not found, f"{path.name}: functools cache at lines {found}"


def test_import_loads_no_dataclasses_or_inspect():
    # every CLI call pays for the import; the value classes are slotted
    # records, so neither module (nor what inspect pulls in) is loaded
    probe = ("import json, sys; before = set(sys.modules); import nokequal; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = json.loads(out)
    assert "nokequal.preorder" in added
    assert not {"dataclasses", "inspect"} & set(added)
