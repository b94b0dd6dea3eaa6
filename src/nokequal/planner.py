"""Geometric side: membership predicates, the scale/offset reduction, an
explicit two-domain motion planner for three points on the line with at most
a double collision, and a path validator.

A configuration is in a space iff each class of equal coordinates is
allowed: fewer than k members in Conf_k(R,n), a face of K in Conf_K(R,n).
K is stored by its facets, so a class of two or more indices is a face iff
its bitmask is a subset of some facet's; a single index always is one.
_class_rule builds that rule once; membership, the planner and
validate_path apply it, and each checks every coordinate first
(_check_coordinates): an int, a finite float, or a finite value with
as_integer_ratio; anything else, inf and NaN included, raises NotInSpace.
The planner groups its endpoints into classes only on the exact route:
a segment that the float filter below certifies has no class that is
not ok at any t, its ends included.

The exact segment test (_exit_time), which the planner and validation
share, decides every point of a segment. When every coordinate is a
float, a float filter tries first to certify that no class is ever not
ok: pairs that never meet are found by float comparisons, and a pair
that meets is shown alone in its class by determinants whose sign
Shewchuk's orient2d error bound (3 + 16 eps) eps (|eh| + |fg|), eps =
2^-53, certifies. Anything it cannot certify (a det within the bound, a
magnitude sum below 2^-900 or beyond the float range, a pair equal all
along, a meeting pair that is not ok, a coordinate that is not a float)
goes to the rational route, which is the only one that returns a time.
So answers do not depend on which route decided.

Exact arithmetic is integer arithmetic: the rational route of _exit_time
puts every coordinate of a segment over one common denominator
(_over_common_denominator), the planner checks its endpoints on that
frame's integer numerators and hands the frame on to its detour waypoint,
and _classes groups exact values by their integer ratios, so no Fraction
is hashed. The waypoint is rounded once, from integers: to floats
when a coordinate is a float, else to Fractions. So fractions (which loads
decimal and numbers) is imported only inside _detour_waypoint, for an
exact waypoint: at module top it took about a fifth of `import nokequal`,
which every CLI call pays for."""

from __future__ import annotations

import sys
from itertools import chain, combinations
from math import inf, isfinite, lcm, sqrt
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import DimensionMismatch, NotInSpace, ParameterOutOfRange
from .preorder import Record, _set, check_ints, mask_of

Configuration = Sequence[float]


def _classes(x: Configuration, exact: bool = False) -> Iterable[list[int]]:
    """The classes of equal coordinates of x, as lists of 1-based indices.

    An int or a float is grouped by its own hash. If exact is true, as
    _check_coordinates returns when some coordinate is neither, every
    coordinate is grouped by its as_integer_ratio(), which int, float,
    Fraction and Decimal give in lowest terms with a positive denominator,
    so that equal values of any of these types meet and no Fraction is
    hashed: Fraction.__hash__ computes a modular inverse per value."""
    keys = [v.as_integer_ratio() for v in x] if exact else x
    classes: dict = {}
    for i, v in enumerate(keys, 1):
        classes.setdefault(v, []).append(i)
    return classes.values()


def _check_coordinates(x: Configuration) -> bool:
    """Raise NotInSpace unless every coordinate is a finite real number: an
    int, a finite float, or a value with as_integer_ratio, such as a
    Fraction or a Decimal (as_integer_ratio raises for inf and NaN).
    Return True iff some coordinate is neither an int nor a float."""
    exact = False
    for v in x:
        if not (type(v) is float and isfinite(v)) and type(v) is not int:
            try:
                v.as_integer_ratio()
            except (AttributeError, OverflowError, TypeError, ValueError):
                raise NotInSpace(f"coordinate {v!r:.24} is not a finite real") from None
            exact = True
    return exact


def in_conf_k(x: Configuration, k: int) -> bool:
    """True iff every class of equal coordinates has fewer than k members."""
    rule = _class_rule(k, len(x))
    return all(map(rule, _classes(x, _check_coordinates(x))))


class SimplicialComplex(Record):
    """A simplicial complex K on the vertices 1..n, stored by its facets as
    bitmasks, vertex v at bit v - 1 (preorder.mask_of). A set of two or more
    vertices is a face iff its mask is a subset of some facet; the empty set
    and every singleton are faces. So K is downward closed and holds every
    singleton by construction, and no face besides a facet is ever listed."""

    __slots__ = ("n", "facets")

    def __init__(self, n: int, facets: tuple[int, ...]):
        if type(n) is not int:
            check_ints(n=n)
        if n < 0:
            raise ParameterOutOfRange(f"vertex count {n} is not >= 0")
        for f in facets:
            if type(f) is not int:
                check_ints(facet_mask=f)
            if f < 0 or f >> n:
                raise ParameterOutOfRange(f"facet mask {f!r:.24} outside 1..{n}")
        _set(self, "n", n)
        _set(self, "facets", facets)

    @classmethod
    def from_facets(cls, n: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """The complex whose faces are the subsets of the given facets, each
        a collection of integer vertices in 1..n; linear in the input."""
        if type(n) is not int:
            check_ints(n=n)
        masks = []
        for f in facets:
            f = list(f)
            for v in f:
                if type(v) is not int:
                    check_ints(vertex=v)
                if not 1 <= v <= n:
                    raise ParameterOutOfRange(f"vertex {v} outside 1..{n}")
            masks.append(mask_of(f))
        return cls(n, tuple(masks))

    @classmethod
    def skeleton(cls, n: int, dim: int) -> "SimplicialComplex":
        """The dim-skeleton of the full simplex: faces of size <= dim + 1,
        whose facets are the C(n, dim + 1) sets of that size."""
        if type(n) is not int or type(dim) is not int:
            check_ints(n=n, dim=dim)
        if n < 0 or dim < 0:
            raise ParameterOutOfRange(f"skeleton({n}, {dim}) needs n >= 0 and dim >= 0")
        return cls.from_facets(n, combinations(range(1, n + 1), min(dim + 1, n)))


def _class_rule(constraint: Union[int, SimplicialComplex],
                dim: int) -> Callable[[list[int]], bool]:
    """The rule that a class of equal coordinates, a list of 1-based
    indices into a configuration of dim coordinates, is allowed: fewer
    than k members for constraint k, a face of K for constraint K (a single
    index always is one). The rule is downward closed."""
    if isinstance(constraint, SimplicialComplex):
        if dim != constraint.n:
            raise DimensionMismatch(f"{dim} coordinates for {constraint.n} vertices")
        facets = constraint.facets

        def allowed(c: list[int]) -> bool:
            if len(c) < 2:
                return True
            m = mask_of(c)
            return any(m & f == m for f in facets)
        return allowed
    if type(constraint) is not int:
        check_ints(k=constraint)
    if constraint < 2:
        raise ParameterOutOfRange("k must be >= 2")
    return lambda c: len(c) < constraint


def in_conf_complex(x: Configuration, K: SimplicialComplex) -> bool:
    """True iff every class of two or more equal coordinates is a face of K."""
    rule = _class_rule(K, len(x))
    return all(map(rule, _classes(x, _check_coordinates(x))))


def reduce_to_xn(x: Configuration) -> tuple[tuple[float, ...], float, float]:
    """Split a configuration into a unit-sphere direction (last coordinate
    zero), a positive scale, and an offset: x = direction * scale + offset."""
    if len(x) < 3:
        raise ParameterOutOfRange("need at least 3 coordinates")
    if not in_conf_k(x, 3):
        raise NotInSpace("configuration has a triple collision")
    last = x[-1]
    overflow = "coordinate differences overflow the float range"
    try:
        diffs = [float(xi - last) for xi in x]
    except OverflowError:  # exact differences beyond float range
        raise ParameterOutOfRange(overflow) from None
    # scaled norm: squaring subnormal differences would underflow to zero
    peak = max(abs(d) for d in diffs)
    if peak == 0:
        # distinct exact coordinates whose differences underflow as floats
        raise ParameterOutOfRange("coordinate differences underflow to 0.0")
    norm = peak * sqrt(sum((d / peak) ** 2 for d in diffs))
    if not isfinite(norm):
        raise ParameterOutOfRange(overflow)
    return tuple(d / norm for d in diffs), norm, float(last)


def inverse_reduce(direction: Sequence[float], scale: float, offset: float) -> tuple[float, ...]:
    return tuple(d * scale + offset for d in direction)


class Path(Record):
    """Piecewise-linear path given by its breakpoints."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[tuple[float, ...], ...]):
        if len(points) < 2:
            raise ParameterOutOfRange("a path needs at least 2 breakpoints")
        dims = {len(p) for p in points}
        if len(dims) != 1:
            raise DimensionMismatch("breakpoints of mixed dimension")
        _set(self, "points", points)

    @classmethod
    def through(cls, *points: Configuration) -> "Path":
        return cls(tuple(tuple(p) for p in points))

    @property
    def start(self) -> tuple[float, ...]:
        return self.points[0]

    @property
    def end(self) -> tuple[float, ...]:
        return self.points[-1]

    @property
    def pieces(self) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
        return list(zip(self.points, self.points[1:]))


# Shewchuk's orient2d error bound and the magnitude below which a product
# may have underflowed, which the bound does not count; see _exit_time
_EPS = 2.0 ** -53
_DET_BOUND = (3 + 16 * _EPS) * _EPS
_DET_TINY = 2.0 ** -900


def _clear_in_floats(x: Configuration, y: Configuration,
                     ok: Callable[[list[int]], bool]) -> bool:
    """True if float arithmetic certifies that no class of equal
    coordinates of (1 - t) x + t y is ever not ok on [0,1]; False leaves
    the segment to the exact route, as it does when a coordinate is not a
    float. The floats must be finite: callers check them first. See
    _exit_time."""
    for v in chain(x, y):
        if type(v) is not float:
            return False
    n = len(x)
    for i in range(n - 1):
        xi, yi = x[i], y[i]
        for j in range(i + 1, n):
            xj, yj = x[j], y[j]
            if xi < xj and yi < yj or xi > xj and yi > yj:
                continue  # the pair never meets
            if not ok([i + 1, j + 1]):
                return False
            e, f = xi - xj, yi - yj
            for l in range(n):
                if l != i and l != j:
                    p, q = e * (yi - y[l]), f * (xi - x[l])
                    s = abs(p) + abs(q)  # inf or NaN if anything overflowed
                    if not _DET_TINY <= s < inf or abs(p - q) <= _DET_BOUND * s:
                        return False
    return True


def _over_common_denominator(x: Configuration, y: Configuration
                             ) -> tuple[int, list[int], list[int]]:
    """(den, xs, ys): the coordinates of x and y, finite reals, are
    xs[l]/den and ys[l]/den, with den > 0 the lcm of their denominators."""
    n = len(x)
    ratios = [v.as_integer_ratio() for v in (*x, *y)]
    den = lcm(*[q for _, q in ratios])
    nums = [p * (den // q) for p, q in ratios]
    return den, nums[:n], nums[n:]


def _exit_time(x: Configuration, y: Configuration,
               ok: Callable[[list[int]], bool]) -> Optional[tuple[int, int]]:
    """First time t in [0,1] at which a class of equal coordinates of
    (1 - t) x + t y, a list of 1-based indices, is not ok, as a pair (a, b)
    with t = a/b and b > 0; None if none is. The coordinates must be
    finite reals, as _check_coordinates ensures.

    ok must be downward closed, as both constraints are (fewer than k
    members; a face of K). Each pair i < j meets at one time a/b, never, or
    all along the segment. A class at t of two or more holds a pair that
    meets there. If one meets only at t, the class is its i's class at t,
    tested there. If all are equal all along, the class lies in the class
    at t = 0 of any member, which is tested and, by downward closure, is
    not ok either: 0 is the first bad time. A pair whose time is not
    earlier than the first bad time found so far is skipped.

    A float filter (_clear_in_floats) decides first when every coordinate
    is a float. A pair i < j never meets on [0,1] iff x_i - x_j and
    y_i - y_j have the same strict sign, which float comparisons of x_i
    with x_j and of y_i with y_j decide exactly. A pair that meets at one
    time has coordinate l in its class then iff det((e, f), (g, h)) = 0,
    with e = x_i - x_j, f = y_i - y_j, g = x_i - x_l and h = y_i - y_l. The
    filter certifies each such det nonzero by Shewchuk's orient2d bound
    ("Adaptive Precision Floating-Point Arithmetic and Fast Robust
    Geometric Predicates", 1997): computed in floats, differences
    included, |eh - fg| exceeds (3 + 16 eps) eps (|eh| + |fg|), eps =
    2^-53. If every meeting pair is ok and alone in its class, no class
    is ever not ok, and the answer is None. The segment goes on to the
    exact route when a coordinate is not a float; a meeting pair is not
    ok (as in Conf_2, or for a complex without that edge); |eh| + |fg| is
    below 2^-900, where a product may have underflowed and the bound,
    which counts rounding relative to size, fails; that sum is inf or
    NaN, from a difference or product beyond the float range; or a det
    lies within the bound. A pair equal all along has e = f = 0, so its
    sum is 0 for every l and it goes on too. The filter only ever
    answers None, and only where the exact route would, so the answer
    does not depend on which route decided it.

    The exact route (_exact_exit_time) uses rational arithmetic
    throughout: every coordinate, a float included, is the rational it
    denotes, and all 2n are put over one common denominator den once; at
    t = a/b coordinate l is (x_l (b - a) + y_l a) / (den b). The answer
    does not depend on scale: the boundary between the planner's domains
    is measure zero, where a tolerance would decide it by scale.
    """
    if _clear_in_floats(x, y, ok):
        return None
    _, xs, ys = _over_common_denominator(x, y)
    return _exact_exit_time(xs, ys, ok)


def _exact_exit_time(xs: list[int], ys: list[int],
                     ok: Callable[[list[int]], bool]) -> Optional[tuple[int, int]]:
    """_exit_time's exact route, on the numerators xs and ys of a segment's
    coordinates over their common denominator (_over_common_denominator)."""
    n = len(xs)
    best = None  # the first bad time found so far, (a, b) with b > 0
    for i in range(n - 1):
        xi, yi = xs[i], ys[i]
        for j in range(i + 1, n):
            # (1 - t) e + t f = 0 at t = e / (e - f), in [0,1] unless e
            # and f have the same strict sign
            e, f = xi - xs[j], yi - ys[j]
            if e > 0 and f > 0 or e < 0 and f < 0:
                continue
            a, b = e, e - f
            if b < 0:
                a, b = -a, -b
            elif b == 0:
                b = 1  # e = f = 0, equal all along: tested at t = 0
            if best and a * best[1] >= best[0] * b:
                continue
            c = b - a
            v = xi * c + yi * a
            if not ok([l + 1 for l in range(n)
                       if l == i or l == j or xs[l] * c + ys[l] * a == v]):
                best = (a, b)
    return best


# exact bound of the float range, which the waypoint's integers compare with
_FLOAT_MAX = int(sys.float_info.max)


def _detour_waypoint(den: int, xs: list[int], ys: list[int], at: tuple[int, int],
                     rounded: bool) -> tuple:
    """The waypoint of the detour around the diagonal, which the segment
    [x, y] crosses at time t = a/b, given as the pair at = (a, b) that
    _exact_exit_time returns, with x_l = xs[l]/den and y_l = ys[l]/den
    (_over_common_denominator). Floats if rounded, else Fractions.

    A waypoint w gives a clear detour if it is off the plane through the
    diagonal and x (the plane holds y too): each detour segment then has
    one end off the plane and cannot meet the diagonal, which lies in it.
    The point p = (1 - t) x + t y lies on the diagonal, and
    u = cross(y - x, (1,1,1)), which for d = y - x is
    (d_2 - d_3, d_3 - d_1, d_1 - d_2), is normal to that plane, so every
    w = r p + s u with s != 0 is off the plane.

    The waypoint is p + u when every coordinate of it is in the float
    range. With u_l = U_l/den, U = cross(Y - X, (1,1,1)), X = xs, Y = ys,
    in integers

        w_l = N_l / (den b),  N_l = (b - a) X_l + a Y_l + b U_l,

    and w is in range iff |N_l| <= _FLOAT_MAX den b for every l.
    Otherwise the waypoint is (p + (c/m) u) / 2, with c the largest
    |coordinate| of x and y and m that of u: both summands are at most c
    in size, so the waypoint is too, and it lies c/2 or more from the
    plane. With C = c den and M = m den, the largest |X_l|, |Y_l| and
    |U_l|, c/m = C/M, and in integers

        w_l = ((b - a) X_l M + a Y_l M + b C U_l) / (2 den b M).

    Either w stays exact, integer numerators over one denominator, until
    it is rounded once at the end: to Fractions, or if rounded to floats
    by int division, which gives the nearest float to each w_l, finite as
    w_l is in the float range. For the rescaled w each rounding moves a
    coordinate by at most 2^-53 c, so it stays off the plane as well. A
    small multiple of u would not do: scaled down far enough to keep
    p + u in range, it may round to zero.
    """
    a, b = at
    d1, d2, d3 = (yl - xl for xl, yl in zip(xs, ys))
    us = (d2 - d3, d3 - d1, d1 - d2)
    r = b - a
    q = den * b
    nums = [r * xl + a * yl + b * ul for xl, yl, ul in zip(xs, ys, us)]
    if max(map(abs, nums)) > _FLOAT_MAX * q:
        big_c = max(map(abs, chain(xs, ys)))
        big_m = max(map(abs, us))
        q *= 2 * big_m
        nums = [(r * xl + a * yl) * big_m + b * big_c * ul for xl, yl, ul in zip(xs, ys, us)]
    if rounded:
        return tuple(nl / q for nl in nums)
    from fractions import Fraction
    return tuple(Fraction(nl, q) for nl in nums)


def plan_conf3_3(x: Configuration, y: Configuration) -> tuple[int, Path]:
    """Motion planner for three points on the line, no triple collision.

    Domain 0: the segment [x, y] misses the diagonal; follow it. Domain 1:
    the segment crosses the diagonal at p; detour through p + u where u is
    the cross product of y - x with (1,1,1). u is orthogonal to the
    diagonal's direction and nonzero, so the waypoint (and hence both
    detour segments) stays clear of the diagonal.

    Each query is decided in one pass of _exit_time's two routes. The
    coordinates are checked first (_check_coordinates), as the float
    filter needs finite values. Then _clear_in_floats runs, and a segment
    it certifies is domain 0 with no further work. Its certificate covers
    every t in [0,1], the ends included, so it never clears a segment with
    a triple collision at an end: if x_i = x_j = x_l, the float
    differences e = x_i - x_j and g = x_i - x_l are exactly 0 (f and h if
    the collision is at y), so |eh| + |fg| is 0, or NaN where the other
    factor overflowed, and the filter declines. A declined segment takes
    the exact route. Its common-denominator frame is built once: the
    endpoints are checked on its integer numerators, where equal values
    have equal numerators; _exact_exit_time finds the crossing on it; and
    it gives the waypoint, the exact p + u, or a rescaled p + u where that
    leaves the float range, rounded once to floats when a coordinate is a
    float (see _detour_waypoint).
    """
    if len(x) != 3 or len(y) != 3:
        raise DimensionMismatch("planner works on 3 coordinates")
    _check_coordinates(x)
    _check_coordinates(y)
    ok = _class_rule(3, 3)
    if not _clear_in_floats(x, y, ok):
        den, xs, ys = _over_common_denominator(x, y)
        if not all(map(ok, chain(_classes(xs), _classes(ys)))):
            raise NotInSpace("endpoint has a triple collision")
        at = _exact_exit_time(xs, ys, ok)
        if at is not None:
            rounded = any(isinstance(v, float) for v in chain(x, y))
            return 1, Path.through(x, _detour_waypoint(den, xs, ys, at, rounded), y)
    return 0, Path.through(x, y)


def validate_path(path: Path, constraint: Union[int, SimplicialComplex],
                  samples: Optional[int] = None, strict: Optional[bool] = None) -> bool:
    """True iff the path stays inside the configuration space: at every
    point, every class of equal coordinates has fewer than k members, or is
    a face of K. A coordinate that is not a finite real number raises
    NotInSpace before any segment is tested. _exit_time then decides each
    segment exactly (a float filter, then the rationals), so no crossing
    between breakpoints is missed and none that only rounding makes is
    seen. samples and strict are accepted, as older callers pass them, and
    change nothing."""
    ok = _class_rule(constraint, len(path.start))
    for point in path.points:
        _check_coordinates(point)
    for a, b in path.pieces:
        if _exit_time(a, b, ok) is not None:
            return False
    return True
