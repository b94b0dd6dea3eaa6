"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import nokequal

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nokequal").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so a check written as one would not always run
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


def test_every_export_resolves():
    missing = [name for name in nokequal.__all__ if not hasattr(nokequal, name)]
    assert missing == []
