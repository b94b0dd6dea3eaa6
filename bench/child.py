"""One repetition of a workload in a fresh interpreter, so that every cache
starts cold, as it does for a `nokequal` CLI call.

    python3 bench/child.py {import|run|trace} WORKLOAD SEED

`import` only times `import nokequal`; `run` makes the timed pass and
`trace` the traced pass. Prints one JSON object on stdout. nokequal must
come from the `src` directory beside `bench`. `setup_s` and the times of a
timed pass are at the reference speed of speed.Meter; `raw_*` times and the
spans of a traced pass are as measured.
"""

import sys
import time

from speed import CAL_NEAREST, REFERENCE_S, calibrate, int_loop


def _tail(latencies: list) -> tuple:
    """The latency with exactly ten ops slower than it, and its percentile:
    the highest percentile that still has ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB. On Linux ru_maxrss also
    counts the memory of the parent at the fork, so VmHWM, which starts
    afresh at the exec, is read where it exists."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    loops = [calibrate() for _ in range(CAL_NEAREST)]
    t0 = time.perf_counter()
    import nokequal
    raw_setup_s = time.perf_counter() - t0
    loops += [calibrate() for _ in range(CAL_NEAREST)]

    import json
    from pathlib import Path
    from statistics import median

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(nokequal.__file__).resolve().parent != src / "nokequal":
        print(f"child.py: nokequal came from {nokequal.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out = {"setup_s": raw_setup_s * REFERENCE_S[int_loop] / median(loops),
           "raw_setup_s": raw_setup_s}
    if mode == "import":
        print(json.dumps(out))
        return 0

    import workloads

    make_pass = {"run": workloads.RUN, "trace": workloads.TRACE}[mode][workload]
    p = make_pass(seed)
    out["peak_rss_mb"] = _peak_rss_mb()
    verdict = workloads.CHECK[workload](seed, p)
    out.update(
        attempted=len(p.outputs),
        failed=len(verdict.failed),
        unverified=verdict.unverified,
        problems=verdict.problems,
        failures=verdict.failed[:5],
    )
    if mode == "run":
        tail, pct = _tail(p.latencies)
        out.update(wall_s=p.wall_s, raw_wall_s=p.raw_wall_s, op_p50_s=median(p.latencies),
                   op_tail_s=tail, tail_percentile=pct, calibration_s=p.calibration_s)
    else:
        out.update(layers=workloads.layer_metrics(p),
                   span_sum_s=workloads.span_sum(p),
                   spans=p.spans, calibration_s=median(loops))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
