"""Reference answers the benchmark computes without calling nokequal.

They check the program's outputs, so they share no code with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional, Sequence


@lru_cache(maxsize=None)
def _block_words(k: int, n: int, d: int) -> tuple[int, ...]:
    """W_d(m) for m = 0..n: ordered fillings of m elements by d basic blocks.

    A basic block J u I has b >= k elements, its maximum in I and J any
    (k-1)-subset of the other b-1, so W_0(0) = 1 and
    W_{j+1}(m+b) += W_j(m) * C(m+b, b) * C(b-1, k-1) for b >= k.
    """
    w = [1] + [0] * n
    for _ in range(d):
        nxt = [0] * (n + 1)
        for m, ways in enumerate(w):
            if ways:
                for b in range(k, n - m + 1):
                    nxt[m + b] += ways * comb(m + b, b) * comb(b - 1, k - 1)
        w = nxt
    return tuple(w)


def betti_ref(k: int, n: int, d: int) -> int:
    """Rank of H^{d(k-2)} of the no-k-equal space: sum_m C(n,m) W_d(m).

    The m elements in blocks are chosen out of n; the rest form I_0.
    """
    return sum(comb(n, m) * ways for m, ways in enumerate(_block_words(k, n, d)))


def diagonal_time(a: Sequence, b: Sequence) -> Optional[Fraction]:
    """First t in [0, 1] at which the segment a -> b in R^3 has all three
    coordinates equal, in exact arithmetic, or None when it never does.

    Floats convert to Fraction exactly, so the answer holds at any scale.
    """
    a = [Fraction(v) for v in a]
    b = [Fraction(v) for v in b]
    t = None
    for i, j in ((0, 1), (1, 2)):
        gap = a[i] - a[j]
        slope = (b[i] - b[j]) - gap
        if slope == 0:
            if gap != 0:
                return None
            continue
        root = -gap / slope
        if t is None:
            t = root
        elif t != root:
            return None
    if t is None:
        return Fraction(0)  # the whole segment lies on the diagonal
    return t if 0 <= t <= 1 else None


def path_is_clear(points: Sequence[Sequence]) -> bool:
    """True iff no segment of the polyline meets the triple diagonal."""
    return all(diagonal_time(a, b) is None for a, b in zip(points, points[1:]))


def multiplicity_ok(x: Sequence, k: int) -> bool:
    """True iff no value occurs k or more times in x."""
    return all(x.count(v) < k for v in x)
