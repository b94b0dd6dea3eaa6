"""Calibration loops, and the meter that times ops at a reference speed.

A shared box switches between speeds up to 1.8x apart, for seconds to
minutes at a time, and a raw time measures that as much as the program. So
a timed pass runs a fixed pure-Python loop, which touches no nokequal code,
between its ops, and scales each op's time by how long the loop took
around it. Kinds of code slow down by different amounts on a slow box, so
each workload has the loop that tracked its ops best (see README.md).
This module imports nothing of nokequal, so that a loop can also run
around the timed `import nokequal`; it imports no module that nokequal
might need either, so that the timed import pays for all of them.
"""

from __future__ import annotations

from time import perf_counter


def int_loop() -> None:
    """Small-integer arithmetic; tracks Betti enumeration and the import."""
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


_A, _B = (0.3, -1.7, 2.9), (4.1, 0.2, -3.3)


def float_loop() -> None:
    """Points sampled along a segment in R^3, as a path validator samples
    them; tracks planner queries."""
    for i in range(700):
        t = i / 699
        len(set(tuple(a + t * (b - a) for a, b in zip(_A, _B))))


# Each loop's time at the reference speed: its usual time on the 2-vCPU
# Xeon guest the benchmark was built on, so scaled figures read close to
# that box's seconds.
REFERENCE_S = {int_loop: 1.5e-3, float_loop: 1.1e-3}
CAL_EVERY_S = 0.05  # the longest stretch of work between two loops
CAL_NEAREST = 2  # loops taken on each side of an op


def calibrate(loop=int_loop) -> float:
    """Seconds `loop` takes now."""
    t0 = perf_counter()
    loop()
    return perf_counter() - t0


def capture(fn, *args, **kwargs):
    """Run one op; an exception becomes its output, so the check fails it."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the op loop goes on and the check reports it
        return exc


class Meter:
    """Times ops, and runs a calibration loop between them whenever
    CAL_EVERY_S of work has passed since the last loop.

    `finish` gives each op's time at the reference speed: its raw time
    times the loop's REFERENCE_S over the median of the CAL_NEAREST loops
    before it and the CAL_NEAREST after it. Loop time is in no op."""

    def __init__(self, loop=int_loop) -> None:
        self.loop = loop
        self.ops: list = []  # (start, end, is a latency sample)
        self.loops: list = []  # (end time, seconds)
        self._due = 0.0

    def _calibrate(self) -> None:
        seconds = calibrate(self.loop)
        now = perf_counter()
        self.loops.append((now, seconds))
        self._due = now + CAL_EVERY_S

    def op(self, fn, *args, sample: bool = True):
        """Run fn(*args) as one op; `sample=False` keeps it out of the
        latency samples (it still counts in the wall time)."""
        if perf_counter() >= self._due:
            self._calibrate()
        t0 = perf_counter()
        out = capture(fn, *args)
        self.ops.append((t0, perf_counter(), sample))
        return out

    def finish(self, p) -> None:
        """Calibrate once more and fill p's times."""
        from bisect import bisect_left
        from statistics import median

        self._calibrate()
        ends = [t for t, _ in self.loops]
        reference = REFERENCE_S[self.loop]
        scaled = []
        for t0, t1, _ in self.ops:
            i = bisect_left(ends, t1)  # loops[:i] ended before the op did
            near = self.loops[max(0, i - CAL_NEAREST):i + CAL_NEAREST]
            scaled.append((t1 - t0) * reference / median(s for _, s in near))
        p.wall_s = sum(scaled)
        p.raw_wall_s = sum(t1 - t0 for t0, t1, _ in self.ops)
        p.latencies = [s for s, (_, _, sample) in zip(scaled, self.ops) if sample]
        p.calibration_s = median(s for _, s in self.loops)
