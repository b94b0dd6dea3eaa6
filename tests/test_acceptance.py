"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion is exact (no tolerances beyond the stated 1e-12 round-trip
bound) and carries an explicit wall-clock budget.
"""

import random
import time
from itertools import combinations

import pytest

from nokequal.cohomology import (
    CohClass,
    betti,
    cup,
    cup_length,
    normalize,
    oracle_normal_form,
)
from nokequal.invariants import betti_closed_form
from nokequal.planner import (
    SimplicialComplex,
    in_conf_complex,
    in_conf_k,
    inverse_reduce,
    plan_conf3_3,
    reduce_to_xn,
    validate_path,
)
from nokequal.preorder import classify, count_admissible, enumerate_admissible, make_x
from nokequal.tensor import expected_witness_term, tensor_cup, witness_product, zero_divisor


@pytest.fixture
def report(capsys):
    def _report(criterion, ok, elapsed, budget):
        with capsys.disabled():
            verdict = "PASS" if ok and elapsed < budget else "FAIL"
            print(f"[acceptance] {criterion}: {verdict} ({elapsed:.2f}s / budget {budget:.0f}s)")
        assert ok, criterion
        assert elapsed < budget, f"{criterion} exceeded {budget}s ({elapsed:.2f}s)"
    return _report


def y(k, n, m):
    """The s=2 zero-divisor y_m = x_m⊗1 + 1⊗x_m."""
    return zero_divisor(k, n, m)


def nf_x(m, k, n, primed=False):
    p = make_x(m, k, n, primed)
    if classify(p, k).is_basic:
        return CohClass.of(k, n, [p])
    return normalize(p, k)


def test_criterion_01_betti_reproduction(report):
    t0 = time.perf_counter()
    ok = betti(3, 4, 1) == 7 and betti(3, 5, 1) == 31
    report("1 betti reproduction", ok, time.perf_counter() - t0, 1)


def test_criterion_02_closed_form_agreement(report):
    t0 = time.perf_counter()
    ok = True
    for k in range(3, 9):
        for n in range(k + 1, min(2 * k, 10)):
            if betti(k, n, 1) != betti_closed_form(k, n):
                ok = False
    report("2 closed-form/basis agreement", ok, time.perf_counter() - t0, 10)


def test_criterion_03_rewriting_vs_oracle(report):
    t0 = time.perf_counter()
    ok = True
    for k, n_max in ((3, 7), (4, 9)):
        for n in range(k, n_max + 1):
            for d in (1, 2):
                if count_admissible(k, n, d) == 0:
                    continue
                oracle = oracle_normal_form(k, n, d)
                ok = ok and oracle.consistent
                for p in enumerate_admissible(k, n, d):
                    if normalize(p, k).terms != oracle.normal_form[p]:
                        ok = False
    report("3 rewriting vs oracle", ok, time.perf_counter() - t0, 300)


def test_criterion_04_identity_suite(report):
    t0 = time.perf_counter()
    ok = True

    def eq(a, b):
        return a.terms == b.terms

    for k in (3, 4):
        for n in range(k, 11):
            if n >= 2 * k - 1:
                ok = ok and eq(cup(nf_x(2, k, n), nf_x(k + 1, k, n)),
                               cup(nf_x(1, k, n), nf_x(k + 1, k, n)))
            if n >= 2 * k - 2:
                hi = nf_x(n - k + 2, k, n)
                ok = ok and cup(nf_x(n - 2 * k + 4, k, n), hi).is_zero
                ok = ok and cup(nf_x(n - 2 * k + 3, k, n), hi).is_zero
            if n >= 2 * k - 1:
                lo = nf_x(n - 2 * k + 2, k, n)
                ok = ok and eq(cup(lo, nf_x(n - k + 2, k, n)),
                               cup(lo, nf_x(n - k + 1, k, n)))
            if n >= 2 * k:
                lo = nf_x(n - 2 * k + 1, k, n)
                rhs = cup(lo, nf_x(n - k + 1, k, n)) + \
                    cup(lo, nf_x(n - k + 1, k, n, primed=True))
                ok = ok and eq(cup(lo, nf_x(n - k + 2, k, n)), rhs)
            for r in range(1, n - 3 * k + 4):
                a = cup(nf_x(r, k, n), nf_x(r + k, k, n))
                b = cup(nf_x(r, k, n), nf_x(r + k - 1, k, n))
                end = nf_x(r + 2 * k - 1, k, n)
                ok = ok and eq(cup(a, end), cup(b, end))
            for r in range(1, n - 3 * k + 3):
                head = nf_x(r, k, n)
                end = nf_x(r + 2 * k, k, n)
                lhs = cup(cup(head, nf_x(r + k + 1, k, n)), end)
                rhs = cup(cup(head, nf_x(r + k, k, n)), end) + \
                    cup(cup(head, nf_x(r + k, k, n, primed=True)), end)
                ok = ok and eq(lhs, rhs)
    report("4 six-identity suite", ok, time.perf_counter() - t0, 60)


def test_criterion_05_tc_witness_coefficients(report):
    t0 = time.perf_counter()
    ok = True
    for k, n, i in [(3, 7, 2), (3, 8, 2), (4, 9, 2),
                    (3, 6, 2), (3, 9, 3), (4, 8, 2)]:
        w = witness_product(k, n, i, 2)
        if expected_witness_term(k, n, i) not in w.terms:
            ok = False
    report("5 TC witness coefficients", ok, time.perf_counter() - t0, 120)


def test_criterion_06_tcs_certificates(report):
    t0 = time.perf_counter()
    ok = True
    for k, n, s in [(3, 6, 3), (3, 7, 3), (3, 6, 4)]:
        w = witness_product(k, n, n // k, s)
        if w.is_zero or expected_witness_term(k, n, n // k, s) not in w.terms:
            ok = False
    report("6 TC_s certificates", ok, time.perf_counter() - t0, 120)


def test_criterion_07_cat_certificates(report):
    t0 = time.perf_counter()
    ok = True
    for k in (3, 4, 5):
        for n in range(k, 13):
            # cup_length certifies the witness nonzero and the grading bound
            if cup_length(k, n) != n // k:
                ok = False
    report("7 cat certificates", ok, time.perf_counter() - t0, 60)


def test_criterion_08_vanishing_edge_case(report):
    t0 = time.perf_counter()
    ok = tensor_cup(y(3, 3, 1), y(3, 3, 2)).is_zero
    report("8 y1y2 vanishing at n=k=3", ok, time.perf_counter() - t0, 1)


def test_criterion_09_planner_validity(report):
    t0 = time.perf_counter()
    rng = random.Random(20260824)

    def sample():
        while True:
            x = tuple(rng.uniform(-10, 10) for _ in range(3))
            if in_conf_k(x, 3):
                return x

    domains = set()
    failures = 0
    for _ in range(10_000):
        xa, xb = sample(), sample()
        domain, path = plan_conf3_3(xa, xb)
        domains.add(domain)
        if not validate_path(path, 3, samples=8, strict=True):
            failures += 1
    # a random segment meets the diagonal line with probability zero, so
    # the second rule is exercised with explicit crossing pairs
    for shift in range(1, 6):
        xa = (0.0, 1.0, 2.0)
        xb = (2.0 + shift, 1.0, -shift)
        domain, path = plan_conf3_3(xa, xb)
        domains.add(domain)
        if not validate_path(path, 3, samples=8, strict=True):
            failures += 1
    ok = failures == 0 and domains == {0, 1}
    report("9 planner validity (10k pairs)", ok, time.perf_counter() - t0, 10)


def test_criterion_10_reduction_roundtrip(report):
    t0 = time.perf_counter()
    rng = random.Random(11)
    worst = 0.0
    for _ in range(10_000):
        n = rng.randint(3, 8)
        x = tuple(rng.uniform(-100, 100) for _ in range(n))
        back = inverse_reduce(*reduce_to_xn(x))
        for xi, bi in zip(x, back):
            worst = max(worst, abs(xi - bi) / max(1.0, abs(xi)))
    report("10 reduction round-trip (max rel err %.1e)" % worst,
           worst < 1e-12, time.perf_counter() - t0, 5)


def test_criterion_11_controlled_collision_consistency(report):
    t0 = time.perf_counter()
    rng = random.Random(13)
    ok = True
    for k, n in [(3, 5), (4, 6)]:
        K = SimplicialComplex.skeleton(n, k - 2)
        for _ in range(10_000):
            x = tuple(rng.randint(0, 4) for _ in range(n))
            if in_conf_complex(x, K) != in_conf_k(x, k):
                ok = False
    report("11 skeleton/no-k-equal consistency", ok, time.perf_counter() - t0, 5)
