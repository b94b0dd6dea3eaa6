"""Tests of the benchmark itself: its reference answers, its checks, and
that a run prints every metric BENCHMARK.json names.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nokequal import Path as PlannerPath
from nokequal import betti, enumerate_admissible, normalize, oracle_normal_form
from reference import betti_ref, diagonal_time, multiplicity_ok, path_is_clear
import speed
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("k", [3, 4, 5])
def test_betti_recurrence_matches_enumeration(k):
    for n in range(k, 10):
        for d in range(n // k + 2):
            assert betti_ref(k, n, d) == betti(k, n, d), (k, n, d)


def test_segment_checker():
    assert diagonal_time((0, 1, 2), (3, 5, 4)) is None
    assert diagonal_time((0, 1, 2), (5, 1, -3)) == Fraction(1, 5)
    assert diagonal_time((1, 1, 1), (1, 1, 1)) == 0
    # floats are taken exactly, so a tiny (power-of-two) scale changes nothing
    tiny = 2.0 ** -40
    assert diagonal_time((0, tiny, 2 * tiny), (5 * tiny, tiny, -3 * tiny)) == Fraction(1, 5)
    assert path_is_clear([(0, 1, 2), (3, 5, 4), (9, 8, 7)])
    assert not path_is_clear([(0, 1, 2), (3, 5, 4), (9, 7, 8)])  # (6,6,6) at t=1/2
    assert not path_is_clear([(0, 1, 2), (5, 1, -3)])
    assert multiplicity_ok((1, 1, 2), 3) and not multiplicity_ok((1, 2, 1, 1), 3)


def test_plan_check_fails_a_colliding_path():
    p = workloads.Pass()
    x, y = (0.0, 1.0, 2.0), (5.0, 1.0, -3.0)
    p.extra["queries"] = [("float", (x, y)), ("float", (x, (3.0, 5.0, 4.0)))]
    p.outputs = [(0, PlannerPath.through(x, y), True),
                 (0, PlannerPath.through(x, (3.0, 5.0, 4.0)), False)]
    v = workloads.check_plan(0, p)
    assert len(v.failed) == 1  # the path through the diagonal
    assert v.unverified == 1  # a clear path that the verdict rejected
    assert p.counts["planner.wrong_verdicts"] == 2


def test_audit_check_fails_a_wrong_normal_form():
    key = (3, 4, 1)
    p = workloads.Pass()
    p.extra["oracles"] = {key: oracle_normal_form(*key)}
    qs = list(enumerate_admissible(*key))
    p.outputs = [(key, q, normalize(q, 3)) for q in qs]
    assert workloads.check_audit(0, p).failed == []
    p.outputs[0] = (key, qs[0], normalize(qs[1], 3))
    p.outputs[1] = (key, qs[1], ValueError("boom"))
    assert len(workloads.check_audit(0, p).failed) == 2


def test_plan_queries_repeat_for_a_seed():
    a, b = workloads.plan_queries(7), workloads.plan_queries(7)
    assert a == b and a != workloads.plan_queries(8)
    kinds = [kind for kind, _ in a]
    assert kinds.count("exact") == workloads.PLAN_EXACT


def test_meter_scales_ops_to_the_reference_speed(monkeypatch):
    # A box at half the reference speed: every calibration loop takes twice
    # as long, so each op counts half its raw time.
    monkeypatch.setattr(speed, "calibrate",
                        lambda loop: 2 * speed.REFERENCE_S[loop])
    m, p = speed.Meter(speed.float_loop), workloads.Pass()
    assert m.op(sum, (1, 2)) == 3
    assert isinstance(m.op(int, "x"), ValueError)
    m.op(sorted, range(10 ** 5), sample=False)
    m.finish(p)
    raw = [t1 - t0 for t0, t1, _ in m.ops]
    assert p.latencies == pytest.approx([r / 2 for r in raw[:2]])
    assert p.wall_s == pytest.approx(sum(raw) / 2)
    assert p.raw_wall_s == pytest.approx(sum(raw))
    assert p.calibration_s == 2 * speed.REFERENCE_S[speed.float_loop]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_emits_every_layer_metric():
    proc = _run(ROOT, "--workload", "plan", "--seed", "1", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "plan", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
