"""The nokequal benchmark.

    python3 bench/run.py --workload {table,audit,plan} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Every repetition is a fresh
interpreter (bench/child.py), so caches start cold as for a CLI call;
repetitions run one after another until `--seconds` is used up. Times are
at a reference speed of the machine (bench/speed.py), each the median over
the repetitions' passes; set-up time is the median of every import.

With `--trace 0` the last line of stdout carries the end-to-end metrics
of BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, from
traced passes over all three workloads, plus `trace.overhead_s`: the
workload's traced span sum minus its untraced raw wall time. The line before
it is a context record, and the traced run also writes its spans to
.bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("table", "audit", "plan")
MIN_REPS = 3
IMPORTS_PER_REP = 2
DEADLINE_S = 170  # every child is stopped before the run reaches 180 s


class BenchError(Exception):
    pass


def _child(mode: str, workload: str, seed: int, started: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), mode, workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} {workload} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _repeat(seconds: int, started: float, once, least: int) -> None:
    """Call once() until the next call would overrun `seconds`, but at
    least `least` times."""
    durations = []
    while True:
        t0 = time.monotonic()
        once()
        durations.append(time.monotonic() - t0)
        used = time.monotonic() - started
        if len(durations) >= least and used + median(durations) > seconds:
            return


def measure(workload: str, seed: int, seconds: int, started: float):
    """Timed repetitions with tracing off; returns (metrics, tally, context)."""
    reps, setups = [], []

    def once():
        for _ in range(IMPORTS_PER_REP):
            setups.append(_child("import", workload, seed, started))
        rep = _child("run", workload, seed, started)
        setups.append(rep)
        reps.append(rep)

    _repeat(seconds, started, once, MIN_REPS)
    tally = _tally(reps)
    ops = reps[0]["attempted"]
    wall = median(r["wall_s"] for r in reps)
    error_rate = (tally["failed"] + tally["unverified"]) / tally["attempted"]
    metrics = {
        "setup_s": (median(s["setup_s"] for s in setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "op_p50_ms": (median(r["op_p50_s"] for r in reps) * 1e3, "ms"),
        "op_tail_ms": (median(r["op_tail_s"] for r in reps) * 1e3, "ms"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in reps), "MB"),
        "verified_share": (1 - error_rate, "share"),
    }
    context = {
        "reps": len(reps), "ops_per_rep": ops, "setup_samples": len(setups),
        "tail_percentile": reps[0]["tail_percentile"], "tail_samples_beyond": 10,
        "error_rate": error_rate,
        "raw_setup_s": median(s["raw_setup_s"] for s in setups),
        "raw_wall_s": median(r["raw_wall_s"] for r in reps),
        "calibration_s": median(r["calibration_s"] for r in reps),
        **tally,
    }
    return metrics, tally, context


def trace(workload: str, seed: int, seconds: int, started: float):
    """Rounds of one traced pass per workload plus one untraced pass of
    `workload`; per-layer figures are medians over the rounds."""
    rounds = []

    def once():
        traced = {w: _child("trace", w, seed, started) for w in WORKLOADS}
        plain = _child("run", workload, seed, started)
        rounds.append((traced, plain))

    _repeat(seconds, started, once, 1)
    names = sorted({m for traced, _ in rounds for t in traced.values() for m in t["layers"]})
    metrics = {}
    for name in names:
        values = [t["layers"][name] for traced, _ in rounds for t in traced.values()
                  if name in t["layers"]]
        metrics[name] = (median(values), _layer_unit(name))
    overhead = median(traced[workload]["span_sum_s"] - plain["raw_wall_s"]
                      for traced, plain in rounds)
    metrics["trace.overhead_s"] = (overhead, "s")
    tally = _tally([t for traced, _ in rounds for t in traced.values()])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"trace-{workload}-{seed}.json"
    spans_file.write_text(json.dumps(
        [{w: t["spans"] for w, t in traced.items()} for traced, _ in rounds]))
    context = {"rounds": len(rounds), "spans_file": str(spans_file.relative_to(ROOT)),
               "calibration_s": median(t["calibration_s"] for traced, _ in rounds
                                       for t in traced.values()),
               **tally}
    return metrics, tally, context


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def _tally(reps: list) -> dict:
    return {
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "unverified": sum(r["unverified"] for r in reps),
        "problems": sorted({p for r in reps for p in r["problems"]}),
        "failures": [f for r in reps for f in r["failures"]][:5],
    }


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nokequal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "nokequal" / "__init__.py").is_file():
        print(f"run.py: no nokequal package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Build: byte-compile once, so no repetition pays for compiling.
    if not compileall.compile_dir(SRC / "nokequal", quiet=1):
        print("run.py: nokequal does not compile", file=sys.stderr)
        return 2

    measure_fn = trace if args.trace else measure
    try:
        metrics, tally, context = measure_fn(args.workload, args.seed, args.seconds, started)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]
    if missing:
        print(f"run.py: no figure with the declared unit for {missing}", file=sys.stderr)
        return 1

    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, elapsed_s=time.monotonic() - started,
                   python=platform.python_version(), nproc=os.cpu_count(),
                   **_source_identity())
    print(json.dumps({"context": context}))
    result = {
        "correct": tally["failed"] == 0 and not tally["problems"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
