"""Checks on the package source itself."""

import ast
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


def _fresh(statements: str) -> str:
    """The stdout of a fresh interpreter that runs statements with the
    package source on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", statements], env=env, check=True,
                          capture_output=True, text=True).stdout


def _modules_added(statements: str) -> set:
    """The modules a fresh interpreter adds to sys.modules while it runs
    statements. The probe prints with repr, so it imports nothing itself."""
    out = _fresh("import sys; before = set(sys.modules); " + statements
                 + "; print(repr(sorted(set(sys.modules) - before)))")
    return set(ast.literal_eval(out.splitlines()[-1]))


# loaded only by the calls that need them: CSV output, JSON input, plan
# output and an exact waypoint (fractions brings decimal and numbers); the
# report writer lays out its JSON itself
DEFERRED = {"json", "csv", "fractions", "decimal", "numbers"}


def test_import_loads_no_dataclasses_or_inspect():
    # every CLI call pays for the import; the value classes are slotted
    # records, so neither module (nor what inspect pulls in) is loaded
    added = _modules_added("import nokequal")
    assert "nokequal.preorder" in added
    assert not {"dataclasses", "inspect"} & added


def test_import_loads_no_json_csv_or_fractions():
    added = _modules_added("import nokequal")
    assert "nokequal.planner" in added
    assert sorted(DEFERRED & added) == []


def test_betti_command_loads_no_json_csv_or_fractions():
    added = _modules_added('from nokequal.cli import main; '
                           'main(["betti", "--k", "3", "--n", "6", "--d", "1"])')
    assert "nokequal.cli" in added
    assert sorted(DEFERRED & added) == []


def test_json_reports_load_no_json_csv_or_fractions():
    added = _modules_added("from nokequal import verify_range; "
                           "from nokequal.invariants import reports_to_json; "
                           "reports_to_json(verify_range([3], [3, 4])); "
                           "from nokequal.cli import main; "
                           'main(["table", "--k-range", "3", "--n-range", "4", "--json"])')
    assert "nokequal.cli" in added
    assert sorted(DEFERRED & added) == []


def test_a_float_detour_loads_no_fractions():
    # the crossing and its waypoint are integer arithmetic, rounded to floats
    added = _modules_added("from nokequal.planner import plan_conf3_3, validate_path; "
                           "domain, path = plan_conf3_3((0.5, 1.5, 2.5), (2.5, 1.5, 0.5)); "
                           "domain == 1 and validate_path(path, 3) or sys.exit(1)")
    assert "nokequal.planner" in added
    assert sorted(DEFERRED & added) == []


def test_deferred_imports_give_the_same_first_outputs():
    # the first call of each route that imports a deferred module, in a
    # fresh process; the expected outputs are those of module-top imports
    out = _fresh("import hashlib\n"
                 "from nokequal import plan_conf3_3, verify_range\n"
                 "from nokequal.invariants import reports_to_csv, reports_to_json\n"
                 "reports = verify_range([3], [3, 4])\n"
                 "print(hashlib.sha256(reports_to_json(reports).encode()).hexdigest())\n"
                 "print(repr(reports_to_csv(reports)))\n"
                 "print(repr(plan_conf3_3((0, 1, 2), (2, 1, 0))))\n")
    digest, csv_text, plan = out.splitlines()
    assert digest == "633bf3cf807285234a8714b70d07097d8ff783459e4917efc8bd2cef2ed7230e"
    assert ast.literal_eval(csv_text) == (
        "k,n,s,cat,hdim,tc,tcs,betti,certificate,value,status,note\n"
        "3,3,2,1,1,1,1,1 1,cat_lower,1,pass,\n"
        "3,3,2,1,1,1,1,1 1,zcl_lower,1,pass,"
        "upper bound from sphere S^{k-2}; zcl certificate = 1 only\n"
        "3,3,2,1,1,1,1,1 1,betti_rank,,skipped,closed form valid only for k < n < 2k\n"
        "3,4,2,1,1,2,2,1 7,cat_lower,1,pass,\n"
        "3,4,2,1,1,2,2,1 7,zcl_lower,2,pass,\n"
        "3,4,2,1,1,2,2,1 7,betti_rank,7,pass,\n")
    assert plan == ("(1, Path(points=((0, 1, 2), (Fraction(3, 1), Fraction(-3, 1), "
                    "Fraction(3, 1)), (2, 1, 0))))")
