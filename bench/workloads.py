"""The benchmark's three workloads.

Each workload has a timed pass, a traced pass and a check. The timed pass
calls the program as a user would and times every op; the traced pass makes
the same calls, split at module boundaries, with a span around each call;
the check compares every output with an answer from `reference`. Only
public names of nokequal are used, so refactors inside the package can
neither break the benchmark nor flatter it.

Why these workloads (README.md maps each layer metric to the end-to-end
metric it should move; `audit` runs by hand and in traced runs, and is not
gated by BENCHMARK.json):
  table  the package's headline product; dominated by Betti enumeration,
         with tensor products that mostly hit the cup-product cache.
  audit  rewriting checked against the elimination oracle; normalize on
         keys never seen before, the miss-heavy use of the rewrite memo.
  plan   planner queries at scales 1e-12..1e6; touches no cohomology layer.

Timed passes report seconds at a reference speed of the machine (see
speed.Meter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import median
from time import perf_counter

from nokequal import (
    SimplicialComplex,
    betti,
    compose,
    cup_length,
    enumerate_admissible,
    in_conf_complex,
    invariant_report,
    monomial_closure,
    normalize,
    oracle_normal_form,
    plan_conf3_3,
    validate_path,
    zcl_lower,
)
from nokequal.invariants import reports_to_json
from nokequal.preorder import factor_admissible, to_matrix
from nokequal.tensor import witness_product

from reference import betti_ref, multiplicity_ok, path_is_clear
from speed import Meter, capture, float_loop

WORKLOADS = ("table", "audit", "plan")

# nokequal table --k-range 3..4 --n-range 3..10 --s-range 2..3, in CLI order.
TABLE_CELLS = [(k, n, s) for k in (3, 4) for n in range(3, 11) if n >= k
               for s in (2, 3)]
# Every (k, n, d) the elimination oracle handles at desk scale.
AUDIT_SETS = [(k, n, d) for k, ns in ((3, range(3, 8)), (4, range(4, 9)))
              for n in ns for d in (1, 2)]
AUDIT_PROBES = 200
PLAN_FLOAT, PLAN_EXACT, PLAN_MEMBER = 1000, 50, 150
PLAN_LOG10_SCALE = (-12.0, 6.0)
MEMBER_CASES = ((3, 5), (4, 6))  # (k, n); K is the (k-2)-skeleton on n vertices

# Spans around single calls timed on a sample; they are not part of the
# workload, so they stay out of the span sum compared with wall_s.
PROBES = ("preorder.to_matrix", "preorder.compose", "cohomology.monomial_closure")


@dataclass
class Pass:
    """What one pass over a workload produced, before checking. A timed
    pass's times are at the reference speed (see speed.Meter), except
    `raw_wall_s`."""

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    calibration_s: float = 0.0
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # (name, op, start, end)
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """The check of one pass: ops with a wrong output, ops whose output was
    right but which the program's own certification rejected, and problems
    that belong to the run rather than to one op."""

    failed: list = field(default_factory=list)
    unverified: int = 0
    problems: list = field(default_factory=list)


def _ok(outputs: list) -> list:
    return [r for r in outputs if not isinstance(r, Exception)]


def _timed(p: Pass, name: str, op, fn, *args, **kwargs):
    t0 = perf_counter()
    out = capture(fn, *args, **kwargs)
    p.spans.append((name, op, t0, perf_counter()))
    return out


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def run_table(seed: int) -> Pass:
    p, m = Pass(), Meter()
    for cell in TABLE_CELLS:
        p.outputs.append(m.op(invariant_report, *cell))
    p.extra["json"] = m.op(reports_to_json, _ok(p.outputs), sample=False)
    m.finish(p)
    return p


def trace_table(seed: int) -> Pass:
    """Per cell: betti in every degree 0..cat+1, cup_length, zcl_lower, then
    invariant_report, which finds the Betti numbers cached and redoes
    cup_length and the zero-divisor products on warm caches."""
    p = Pass()
    betti_sum = 0
    for op, (k, n, s) in enumerate(TABLE_CELLS):
        for d in range(n // k + 2):
            b = _timed(p, "cohomology.betti", op, betti, k, n, d)
            betti_sum += b if isinstance(b, int) else 0
        _timed(p, "cohomology.cup_length", op, cup_length, k, n)
        _timed(p, "tensor.zcl_lower", op, zcl_lower, k, n, s)
        p.outputs.append(_timed(p, "invariants.report", op, invariant_report, k, n, s))
    p.extra["json"] = _timed(p, "invariants.to_json", None, reports_to_json, _ok(p.outputs))
    p.counts["cohomology.betti_sum"] = betti_sum
    # Outside every span: the size of each certified witness product.
    p.counts["tensor.witness_terms"] = sum(
        len(witness_product(k, n, n // k, s).terms) for k, n, s in TABLE_CELLS if n > k)
    return p


def check_table(seed: int, p: Pass) -> Verdict:
    v = Verdict()
    for (k, n, s), r in zip(TABLE_CELLS, p.outputs):
        if isinstance(r, Exception):
            v.failed.append(f"table {(k, n, s)}: {r!r}")
            continue
        status = {c.name: c.status for c in r.certificates}
        wrong = (
            "fail" in status.values()
            or (status.get("zcl_lower") == "skipped") != (n == k and k % 2 == 0)
            or status.get("betti_rank") != ("pass" if k < n < 2 * k else "skipped")
            or r.betti_list != [betti_ref(k, n, d) for d in range(n // k + 1)]
        )
        if wrong:
            v.failed.append(f"table {(k, n, s)}: {status} betti={r.betti_list}")
    js = p.extra.get("json")
    if not isinstance(js, str) or js.count('"certificates"') != len(TABLE_CELLS):
        v.problems.append(f"reports_to_json gave {js!r:.200}")
    return v


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def run_audit(seed: int) -> Pass:
    """Per (k, n, d): build the oracle and enumerate the admissible
    preorders (in wall_s, in no op), then normalize each (one op each)."""
    p, m = Pass(), Meter()
    oracles = p.extra["oracles"] = {}
    for key in AUDIT_SETS:
        k, n, d = key
        oracles[key] = m.op(oracle_normal_form, k, n, d, sample=False)
        for q in m.op(lambda: list(enumerate_admissible(k, n, d)), sample=False):
            p.outputs.append((key, q, m.op(normalize, q, k)))
    m.finish(p)
    return p


def trace_audit(seed: int) -> Pass:
    p = Pass()
    oracles = p.extra["oracles"] = {}
    admissibles, nf_terms, rank = 0, 0, 0
    for key in AUDIT_SETS:
        k, n, d = key
        qs = _timed(p, "preorder.enumerate_admissible", key,
                    lambda: list(enumerate_admissible(k, n, d)))
        oracle = oracles[key] = _timed(p, "cohomology.oracle", key,
                                       oracle_normal_form, k, n, d)
        rank += getattr(oracle, "rank", 0)
        admissibles += len(qs)
        for q in qs:
            out = _timed(p, "cohomology.normalize", key, normalize, q, k)
            nf_terms += len(getattr(out, "terms", ()))
            p.outputs.append((key, q, out))
    p.counts["preorder.admissibles"] = admissibles
    p.counts["cohomology.normalize_calls"] = len(p.outputs)
    p.counts["cohomology.nf_terms"] = nf_terms
    p.counts["cohomology.oracle_rank"] = rank
    # Probes: single calls on the elementary factors of a seeded sample.
    sample = random.Random(seed).sample([(key[0], q) for key, q, _ in p.outputs], AUDIT_PROBES)
    for k, q in sample:
        factors = factor_admissible(q, k)
        for f in factors:
            _timed(p, "preorder.to_matrix", None, to_matrix, f)
        _timed(p, "preorder.compose", None, compose, factors[0], factors[-1])
        _timed(p, "cohomology.monomial_closure", None, monomial_closure, factors, k, q.n)
    return p


def check_audit(seed: int, p: Pass) -> Verdict:
    v = Verdict()
    oracles = p.extra["oracles"]
    for key, oracle in oracles.items():
        if isinstance(oracle, Exception) or not oracle.consistent:
            v.problems.append(f"oracle {key}: {getattr(oracle, 'issues', oracle)!r}")
    for key, q, out in p.outputs:
        oracle = oracles[key]
        if (isinstance(out, Exception) or isinstance(oracle, Exception)
                or out.terms != oracle.normal_form.get(q)):
            v.failed.append(f"audit {key} {q}: {out!r:.200}")
    return v


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def plan_queries(seed: int) -> list:
    """A seeded, shuffled stream of (kind, query):
    float   a random pair in Conf_3(R, 3) at a log-uniform scale;
    exact   a rational pair (x, 2c(1,1,1) - x) that crosses the diagonal;
    member  (k, x) for membership in the (k-2)-skeleton's complement."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < PLAN_FLOAT:
        scale = 10.0 ** rng.uniform(*PLAN_LOG10_SCALE)
        x = tuple(scale * rng.uniform(-1, 1) for _ in range(3))
        y = tuple(scale * rng.uniform(-1, 1) for _ in range(3))
        if multiplicity_ok(x, 3) and multiplicity_ok(y, 3):
            queries.append(("float", (x, y)))
    while len(queries) < PLAN_FLOAT + PLAN_EXACT:
        x = tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
                  for _ in range(3))
        c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
        if multiplicity_ok(x, 3):
            queries.append(("exact", (x, tuple(2 * c - v for v in x))))
    for i in range(PLAN_MEMBER):
        k, n = MEMBER_CASES[i % len(MEMBER_CASES)]
        top = rng.randint(1, n)
        queries.append(("member", (k, tuple(rng.randint(0, top) for _ in range(n)))))
    rng.shuffle(queries)
    return queries


def _complexes() -> dict:
    return {k: SimplicialComplex.skeleton(n, k - 2) for k, n in MEMBER_CASES}


def _plan_and_validate(x, y):
    domain, path = plan_conf3_3(x, y)
    return domain, path, validate_path(path, 3, strict=True)


def run_plan(seed: int) -> Pass:
    p, m = Pass(), Meter(float_loop)
    queries = p.extra["queries"] = plan_queries(seed)
    complexes = m.op(_complexes, sample=False)
    for kind, q in queries:
        if kind == "member":
            p.outputs.append(m.op(in_conf_complex, q[1], complexes[q[0]]))
        else:
            p.outputs.append(m.op(_plan_and_validate, *q))
    m.finish(p)
    return p


def trace_plan(seed: int) -> Pass:
    p = Pass()
    queries = p.extra["queries"] = plan_queries(seed)
    complexes = _complexes()
    for op, (kind, q) in enumerate(queries):
        if kind == "member":
            p.outputs.append(_timed(p, "planner.membership", op,
                                    in_conf_complex, q[1], complexes[q[0]]))
            continue
        name = "planner.plan" if kind == "float" else "planner.exact_plan"
        planned = _timed(p, name, op, plan_conf3_3, *q)
        if isinstance(planned, Exception):
            p.outputs.append(planned)
            continue
        verdict = _timed(p, "planner.validate", op, validate_path, planned[1], 3,
                         strict=True)
        p.outputs.append(verdict if isinstance(verdict, Exception) else (*planned, verdict))
    p.counts["planner.detours"] = sum(
        out[0] for out in p.outputs if isinstance(out, tuple))
    return p


def check_plan(seed: int, p: Pass) -> Verdict:
    """A plan fails when its path truly meets the triple diagonal or its ends
    differ from the query; it is unverified when the path is right but
    validate_path(strict=True) rejects it. A membership verdict fails when
    it differs from counting multiplicities."""
    v = Verdict()
    wrong_verdicts = 0
    for (kind, q), out in zip(p.extra["queries"], p.outputs):
        if isinstance(out, Exception):
            v.failed.append(f"plan {kind} {q}: {out!r}")
        elif kind == "member":
            if out != multiplicity_ok(q[1], q[0]):
                v.failed.append(f"plan member {q}: {out}")
        else:
            _, path, verdict = out
            x, y = q
            clear = path_is_clear(path.points)
            if not clear or path.start != tuple(x) or path.end != tuple(y):
                v.failed.append(f"plan {kind} {q}: path {path.points}")
            wrong_verdicts += verdict != clear
            v.unverified += clear and not verdict
    p.counts["planner.wrong_verdicts"] = wrong_verdicts
    return v


RUN = {"table": run_table, "audit": run_audit, "plan": run_plan}
TRACE = {"table": trace_table, "audit": trace_audit, "plan": trace_plan}
CHECK = {"table": check_table, "audit": check_audit, "plan": check_plan}


def layer_metrics(p: Pass) -> dict:
    """Per-layer figures of a traced pass: seconds summed per span name
    (`<name>_s`), the median single call in microseconds for planner and
    probe spans (`<name>_us`), and the counts the pass recorded."""
    by_name: dict = {}
    for name, _, t0, t1 in p.spans:
        by_name.setdefault(name, []).append(t1 - t0)
    out = {}
    for name, times in by_name.items():
        if name in PROBES or name.startswith("planner."):
            out[f"{name}_us"] = median(times) * 1e6
        else:
            out[f"{name}_s"] = sum(times)
    if "cohomology.betti" in by_name:
        out["cohomology.betti_calls"] = len(by_name["cohomology.betti"])
    out.update(p.counts)
    return out


def span_sum(p: Pass) -> float:
    """Seconds covered by the workload's own spans (probes excluded)."""
    return sum(t1 - t0 for name, _, t0, t1 in p.spans if name not in PROBES)
