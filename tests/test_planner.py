import hashlib
import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from nokequal import planner
from nokequal.errors import DimensionMismatch, NoKEqualError, NotInSpace, ParameterOutOfRange
from nokequal.planner import (
    Path,
    SimplicialComplex,
    _exit_time,
    in_conf_complex,
    in_conf_k,
    inverse_reduce,
    plan_conf3_3,
    reduce_to_xn,
    validate_path,
)
from nokequal.preorder import elems_of


def test_in_conf_k():
    assert in_conf_k((0, 0, 1, 1), 3)
    assert not in_conf_k((0, 0, 0, 1), 3)
    assert in_conf_k((3, 1, 4, 1, 5), 2) is False
    assert in_conf_k((1.5, 2.5, 3.5), 2)


def face_set(K):
    """Every face of K as a frozenset: the empty face, every singleton, and
    the closure of K's facets under removing one vertex at a time. The
    membership oracle, independent of the facet-mask subset test."""
    faces = {frozenset()}
    faces.update(frozenset([v]) for v in range(1, K.n + 1))
    stack = [frozenset(elems_of(f)) for f in K.facets]
    while stack:
        f = stack.pop()
        if f in faces:
            continue
        faces.add(f)
        stack.extend(f - {v} for v in f)
    return faces


def test_complex_downward_closure_from_facets():
    K = SimplicialComplex.from_facets(4, [[1, 2, 3]])
    faces = face_set(K)
    assert frozenset([1, 2]) in faces
    assert frozenset([4]) in faces
    assert frozenset([1, 2, 3, 4]) not in faces
    assert in_conf_complex((0, 0, 1, 2), K)
    assert in_conf_complex((0, 0, 0, 2), K)
    assert not in_conf_complex((0, 0, 1, 0), K)


@pytest.mark.parametrize("build", [
    lambda: SimplicialComplex.from_facets(3, [[1, 0]]),
    lambda: SimplicialComplex.from_facets(3, [[4]]),
    lambda: SimplicialComplex.from_facets(3, [[1.5]]),
    lambda: SimplicialComplex.from_facets(3, [["a"]]),
    lambda: SimplicialComplex.from_facets(3, [[2], [-1]]),
    lambda: SimplicialComplex.skeleton(3, -1),
    lambda: SimplicialComplex.skeleton(-1, 1),
    lambda: SimplicialComplex(-1, ()),
    lambda: SimplicialComplex(3, (0b1000,)),
    lambda: SimplicialComplex(3, (-1,)),
    # an n, dim or vertex that is not an int; a bool is not taken as 0 or 1
    lambda: SimplicialComplex.skeleton("a", 1),
    lambda: SimplicialComplex.skeleton(3.0, 1),
    lambda: SimplicialComplex.from_facets("3", [[1, 2]]),
    lambda: SimplicialComplex.skeleton(True, 1),
    lambda: SimplicialComplex.from_facets(3, [[True, 2]]),
    lambda: SimplicialComplex(3, (True, 6)),
    lambda: SimplicialComplex(3, (1.0,)),
], ids=["vertex 0", "vertex 4", "vertex 1.5", "vertex 'a'", "vertex -1",
        "skeleton dim -1", "skeleton n -1", "n -1", "mask beyond n", "negative mask",
        "skeleton n 'a'", "skeleton n 3.0", "from_facets n '3'", "skeleton n True",
        "vertex True", "mask True", "mask 1.0"])
def test_complex_input_is_checked_at_the_boundary(build):
    with pytest.raises(ParameterOutOfRange):
        build()


def minimal_nonfaces(K):
    """Inclusion-minimal subsets of {1..n} that are not faces of K, by a
    scan of all 2^n subsets: the collision patterns of Conf_K(R, n)."""
    faces = face_set(K)
    out = []
    for size in range(1, K.n + 1):
        for c in combinations(range(1, K.n + 1), size):
            s = frozenset(c)
            if s not in faces and all(s - {v} in faces for v in s):
                out.append(s)
    return out


def test_minimal_nonfaces_examples():
    edges = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    assert minimal_nonfaces(edges) == [frozenset([1, 2, 3])]
    full = SimplicialComplex.skeleton(4, 3)
    assert minimal_nonfaces(full) == []
    skel = SimplicialComplex.skeleton(5, 1)
    assert sorted(sorted(s) for s in minimal_nonfaces(skel)) == \
        [list(c) for c in combinations(range(1, 6), 3)]


def test_in_conf_complex():
    K = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    assert in_conf_complex((5, 5, 7), K)
    assert not in_conf_complex((5, 5, 5), K)
    with pytest.raises(DimensionMismatch):
        in_conf_complex((1, 2), K)


def test_full_simplex_accepts_everything():
    K = SimplicialComplex.skeleton(3, 2)
    assert in_conf_complex((9, 9, 9), K)


def test_skeleton_matches_k_predicate():
    rng = random.Random(0)
    K = SimplicialComplex.skeleton(5, 1)  # (k-2)-skeleton for k=3
    for _ in range(500):
        x = tuple(rng.randint(0, 3) for _ in range(5))
        assert in_conf_complex(x, K) == in_conf_k(x, 3)


def test_subcomplex_monotonicity():
    rng = random.Random(1)
    L = SimplicialComplex.skeleton(4, 1)
    K = SimplicialComplex.skeleton(4, 2)
    for _ in range(200):
        x = tuple(rng.randint(0, 2) for _ in range(4))
        if in_conf_complex(x, L):
            assert in_conf_complex(x, K)


def test_reduce_example():
    direction, scale, offset = reduce_to_xn((3, 5, 4))
    assert direction == pytest.approx((-(2 ** -0.5), 2 ** -0.5, 0.0))
    assert scale == pytest.approx(2 ** 0.5)
    assert offset == 4


def test_reduce_fixed_points():
    x = (0.6, -0.8, 0.0)
    direction, scale, offset = reduce_to_xn(x)
    assert direction == pytest.approx(x)
    assert scale == pytest.approx(1.0)
    assert offset == 0.0


def test_reduce_rejects_triple_collision():
    with pytest.raises(NotInSpace):
        reduce_to_xn((2, 2, 2, 5))


def test_reduce_rejects_differences_below_float_range():
    tiny = Fraction(1, 10 ** 400)
    with pytest.raises(ParameterOutOfRange):
        reduce_to_xn((0, tiny, 2 * tiny))


def test_reduce_rejects_differences_beyond_float_range():
    # an exact difference too large for a float, and float differences or a
    # norm that overflow
    for x in ((0, 10 ** 400, 1), (0, 1e308, -1e308), (1.5e308, -1.5e308, 0)):
        with pytest.raises(ParameterOutOfRange):
            reduce_to_xn(x)


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=8))
@settings(max_examples=80, deadline=None)
def test_reduce_roundtrip(coords):
    x = tuple(coords)
    if not in_conf_k(x, 3):
        return
    direction, scale, offset = reduce_to_xn(x)
    back = inverse_reduce(direction, scale, offset)
    for xi, bi in zip(x, back):
        assert abs(xi - bi) <= 1e-12 * max(1.0, abs(xi))
    assert direction[-1] == 0.0
    assert sum(d * d for d in direction) == pytest.approx(1.0)


def test_path_invariants():
    with pytest.raises(ParameterOutOfRange):
        Path(((0.0, 0.0),))
    p = Path.through((0, 0, 1), (1, 1, 0), (2, 2, 2))
    assert p.start == (0, 0, 1) and p.end == (2, 2, 2)
    assert len(p.pieces) == 2


def test_plan_direct_segment():
    domain, path = plan_conf3_3((0, 1, 2), (0, 2, 4))
    assert domain == 0
    assert path.points == ((0, 1, 2), (0, 2, 4))


def test_plan_detour():
    domain, path = plan_conf3_3((0, 1, 2), (2, 1, 0))
    assert domain == 1
    assert path.points[1] == (3, -3, 3)
    assert validate_path(path, 3)


def test_plan_constant():
    domain, path = plan_conf3_3((0, 1, 2), (0, 1, 2))
    assert domain == 0
    assert validate_path(path, 3)


def test_plan_domain_symmetric():
    rng = random.Random(5)
    for _ in range(300):
        x = tuple(rng.uniform(-4, 4) for _ in range(3))
        y = tuple(rng.uniform(-4, 4) for _ in range(3))
        assert plan_conf3_3(x, y)[0] == plan_conf3_3(y, x)[0]


def test_plan_rejects_collided_endpoint():
    with pytest.raises(NotInSpace):
        plan_conf3_3((1, 1, 1), (0, 1, 2))


@pytest.mark.parametrize("x,y", [
    ((0.5, 0.5, 0.5), (0.0, 1.0, 2.0)),
    ((0.0, 1.0, 2.0), (-0.0, 0.0, 0.0)),
    ((0.0, 1.0, 2.0), (2, 2, 2)),
    ((Decimal("1.0"), Fraction(1), 1), (0.0, 1.0, 2.0)),
    ((Fraction(1, 3), 0, 1), (Fraction(2, 6), Fraction(1, 3), Fraction(1, 3))),
    # y_1 - y_2 overflows, so the float filter's magnitude sum is NaN
    ((0.5, 0.5, 0.5), (1e308, -1e308, 0.0)),
], ids=["float-x", "signed-zero-y", "float-x-int-y", "decimal-fraction-int-x",
        "fraction-y", "overflowing-y"])
def test_plan_rejects_a_triple_collision_at_either_endpoint(x, y):
    # the float filter, which runs before any endpoint is grouped, never
    # certifies a segment with a bad end
    for pair in ((x, y), (y, x)):
        with pytest.raises(NotInSpace, match="^endpoint has a triple collision$"):
            plan_conf3_3(*pair)


def test_plan_exact_rational_boundary():
    # segment crosses the diagonal exactly at t = 1/2
    x = (Fraction(0), Fraction(1), Fraction(2))
    y = (Fraction(2), Fraction(1), Fraction(0))
    domain, path = plan_conf3_3(x, y)
    assert domain == 1
    assert validate_path(path, 3)


def test_plan_rejects_non_finite_coordinates():
    with pytest.raises(NotInSpace):
        plan_conf3_3((0, 1, float("inf")), (2, 1, 0))
    with pytest.raises(NotInSpace):
        plan_conf3_3((0, 1, 2), (float("nan"), 1, 0))


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("call", [
    lambda: in_conf_k((INF, INF, 0), 3),
    # one NaN object, which a dict of classes would group with itself
    lambda: in_conf_k((NAN, NAN, NAN), 3),
    lambda: in_conf_complex((INF, INF, 0), SimplicialComplex.skeleton(3, 1)),
    lambda: validate_path(Path.through((INF, 1, 2), (0, 1, 2)), 3),
    # every pair of this segment is apart by float comparison alone
    lambda: validate_path(Path.through((INF, 1.0, 2.0), (INF, 1.0, 2.0)), 3),
    # checked before the first piece, which crosses the diagonal
    lambda: validate_path(Path.through((0, 1, 2), (2, 1, 0), (NAN, 1, 2)), 3),
], ids=["inf-pair", "nan-triple", "inf-complex", "sampled-inf", "strict-inf",
        "strict-nan-after-a-crossing"])
def test_non_finite_floats_are_not_in_space(call):
    with pytest.raises(NotInSpace):
        call()


@pytest.mark.parametrize("x,y", [
    (("a", "b", "c"), (1, 2, 3)),
    ((0, 1, 2), (2, 1j, 0)),
    ((0, 1, 2), (2, None, 0)),
])
def test_non_numeric_coordinates_are_not_in_space(x, y):
    with pytest.raises(NotInSpace):
        plan_conf3_3(x, y)
    with pytest.raises(NotInSpace):
        validate_path(Path.through(x, y), 3)


def test_membership_refuses_non_numeric_coordinates_and_a_non_integer_k():
    with pytest.raises(NotInSpace):
        in_conf_k(("a", "a", "b"), 3)
    with pytest.raises(NotInSpace):
        in_conf_complex(("a", "a", "b"), SimplicialComplex.skeleton(3, 1))
    with pytest.raises(ParameterOutOfRange, match="must be an integer"):
        in_conf_k((0, 1, 2), 2.5)
    with pytest.raises(ParameterOutOfRange, match="must be an integer"):
        in_conf_k((0, 1, 2), True)


def test_sampled_validation_refuses_non_numeric_coordinates():
    with pytest.raises(NotInSpace):
        validate_path(Path.through(("a", "b", "c"), (1, 2, 3)), 3)
    with pytest.raises(ParameterOutOfRange, match="must be an integer"):
        validate_path(Path.through((0, 1, 2), (1, 2, 3)), 2.5)


def test_plan_refuses_an_unhashable_coordinate():
    with pytest.raises(NotInSpace):
        plan_conf3_3(([0], 1, 2), (1, 2, 3))


def test_exact_coordinates_of_other_types_are_accepted():
    assert in_conf_k((Fraction(1, 3), Fraction(1, 3), 2), 3)
    assert validate_path(Path.through((Fraction(1, 3), 0, 1), (2, 0, 1)), 3)
    assert plan_conf3_3((Fraction(1, 3), 0, 1), (0, 1, 2))[0] in (0, 1)


_dyadic = st.builds(lambda n, m: n / 2 ** m,
                    st.integers(-2 ** 20, 2 ** 20), st.integers(0, 20))
_coord = _dyadic | st.floats(-8, 8).filter(lambda v: v == 0 or abs(v) > 1e-6)
_triple = st.tuples(_coord, _coord, _coord)


@st.composite
def _pairs(draw):
    x = draw(_triple)
    if draw(st.booleans()):
        # y = 2c(1,1,1) - x crosses the diagonal at t = 1/2
        c = draw(_dyadic)
        return x, tuple(2 * c - v for v in x)
    return x, draw(_triple)


@given(_pairs(), st.integers(-60, 60), st.integers(-2 ** 20, 2 ** 20))
@settings(max_examples=300, deadline=None)
def test_plan_is_invariant_under_power_of_two_scaling(pair, j, j2):
    # and under translation by a dyadic offset, added as rationals so that
    # x + o is exact
    x, y = pair
    if not (in_conf_k(x, 3) and in_conf_k(y, 3)):
        return
    s = 2.0 ** j
    o = Fraction(j2, 2 ** 10)
    domain, path = plan_conf3_3(x, y)
    verdict = validate_path(path, 3)
    scaled_domain, scaled_path = plan_conf3_3(tuple(s * v for v in x),
                                              tuple(s * v for v in y))
    assert scaled_domain == domain
    assert validate_path(scaled_path, 3) == verdict
    moved_domain, moved_path = plan_conf3_3(tuple(Fraction(v) + o for v in x),
                                            tuple(Fraction(v) + o for v in y))
    assert moved_domain == domain
    assert validate_path(moved_path, 3) == verdict


@st.composite
def _crossing_pairs(draw):
    # y = q - s (x - q) crosses the diagonal at t = 1 / (1 + s)
    x = draw(st.tuples(_dyadic, _dyadic, _dyadic))
    q = draw(_dyadic)
    s = 2.0 ** draw(st.integers(-8, 8))
    return x, tuple(q - s * (v - q) for v in x)


@st.composite
def _spanning_pairs(draw):
    # 2^e1 a and -2^e2 a cross the diagonal about 2^(e1 - e2) from the
    # first, a point near the subnormals; the second is near the top
    a = draw(st.tuples(*[st.integers(-8, 8)] * 3))
    e1, e2 = draw(st.integers(-1074, -900)), draw(st.integers(900, 1020))
    pair = (tuple(math.ldexp(v, e1) for v in a), tuple(math.ldexp(-v, e2) for v in a))
    return pair[::-1] if draw(st.booleans()) else pair


@given(_pairs() | _crossing_pairs() | _spanning_pairs(), st.integers(0, 4))
@example(((1.0, 2.0, -3.0), (-1.0, -2.0, 3.0)), 0)
@settings(max_examples=300, deadline=None)
def test_plan_detour_is_finite_near_the_top_of_the_float_range(pair, i):
    # the largest |coordinate| is moved into [2^(1022-i), 2^(1023-i)), on
    # both sides of the switch to a scaled detour, where y - x can overflow
    c = max(abs(v) for z in pair for v in z)
    if c == 0:
        return
    shift = 1023 - math.frexp(c)[1] - i
    x, y = (tuple(math.ldexp(v, shift) for v in z) for z in pair)
    if not (in_conf_k(x, 3) and in_conf_k(y, 3)):
        return
    _, path = plan_conf3_3(x, y)
    assert all(math.isfinite(c) for pt in path.points for c in pt)
    assert validate_path(path, 3)


@pytest.mark.parametrize("x,y", [
    # crossing at t = 8/9, where p + u would overflow unless u is scaled
    (tuple(2.0 ** 1023 * v for v in (-1.5, 0.5, 1.75)),
     tuple(2.0 ** 1023 * v for v in (1.3125, 1.0625, 0.90625))),
    # crossing at t = 1 / (1 + 2^1021), next to x
    ((1.0, 2.0, -3.0), (-2.0 ** 1021, -2.0 ** 1022, 3 * 2.0 ** 1021)),
    # crossing at t = 1 / (1 + 2^2096), where a multiple of u scaled by t
    # would round to zero; and the same pair reversed
    ((0.0, 5e-324, 1e-323), (0.0, -2.0 ** 1022, -2.0 ** 1023)),
    ((0.0, -2.0 ** 1022, -2.0 ** 1023), (0.0, 5e-324, 1e-323)),
    # exact coordinates give an exact waypoint, here a rescaled one: p + u
    # is 2^1024 (1, -1, 1)
    (tuple(Fraction(v, 3) * 2 ** 1024 for v in (0, 1, 2)),
     tuple(Fraction(v, 3) * 2 ** 1024 for v in (2, 1, 0))),
    # a float among int coordinates whose p + u, 2^1024 (-2, 1, 1), is
    # beyond the float range: rescaled, then rounded once to floats
    ((0.0, 2 ** 1023, -2 ** 1023), (-0.0, -2 ** 1023, 2 ** 1023)),
])
def test_plan_detour_is_finite_at_extreme_pairs(x, y):
    domain, path = plan_conf3_3(x, y)
    assert domain == 1
    assert {type(c) for c in path.points[1]} == {type(x[0])}
    assert all(math.isfinite(c) for pt in path.points for c in pt)
    assert validate_path(path, 3)
    want, _ = expected_waypoint(x, y, _exit_time(x, y, lambda c: len(c) < 3))
    assert repr(path.points[1]) == repr(want)


FLOAT_MAX = int(sys.float_info.max)


def expected_waypoint(x, y, at):
    """The detour waypoint and its route, in Fraction arithmetic: "p + u",
    where [x, y] crosses the diagonal at p at t = a/b, at = (a, b), and
    u = cross(y - x, (1,1,1)), if it is in the float range; else
    "rescaled", (p + (c/m) u) / 2, with c the largest |coordinate| and m
    the largest |u_l|. The waypoint is rounded once to floats if a
    coordinate is a float (see planner._detour_waypoint)."""
    rounded = any(isinstance(v, float) for v in chain(x, y))
    x, y = tuple(map(Fraction, x)), tuple(map(Fraction, y))
    t = Fraction(*at)
    d1, d2, d3 = (yi - xi for xi, yi in zip(x, y))
    u = (d2 - d3, d3 - d1, d1 - d2)
    p = [(1 - t) * xi + t * yi for xi, yi in zip(x, y)]
    w, route = tuple(pi + ui for pi, ui in zip(p, u)), "p + u"
    if not all(-FLOAT_MAX <= wi <= FLOAT_MAX for wi in w):
        lam = max(map(abs, chain(x, y))) / max(map(abs, u))
        w, route = tuple((pi + lam * ui) / 2 for pi, ui in zip(p, u)), "rescaled"
    return tuple(map(float, w)) if rounded else w, route


def _detour_coordinate(rng, kind):
    if kind == "int":
        return rng.randint(-50, 50)
    if kind == "fraction":
        return Fraction(rng.randint(-600, 600), rng.choice((1, 2, 3, 7, 12, 999)))
    return math.ldexp(rng.randint(-2 ** 20, 2 ** 20), -rng.randint(0, 30))


def _scaled(v, shift):
    return math.ldexp(v, shift) if type(v) is float else v * 2 ** shift


DETOUR_KINDS = (("int",), ("fraction",), ("int", "fraction"),
                ("float",), ("float", "int"), ("float", "fraction"))


def detour_cases(seed, count):
    """A seeded stream of (x, y, at) where [x, y] crosses the diagonal at
    t = a/b, at = (a, b): y = q - s (x - q), which meets q (1,1,1) at
    t = 1 / (1 + s), on int, Fraction and float coordinates and their
    mixes (DETOUR_KINDS). Half of the pairs are scaled by a power of two
    so that the largest |coordinate| lies in [2^(1022-i), 2^(1023-i)),
    i = -1..2, on both sides of the switch to the rescaled waypoint."""
    rng = random.Random(seed)
    ok = lambda c: len(c) < 3
    made = 0
    while made < count:
        kinds = rng.choice(DETOUR_KINDS)
        x = [_detour_coordinate(rng, rng.choice(kinds)) for _ in range(3)]
        q = _detour_coordinate(rng, rng.choice(kinds))
        s = rng.choice((1, 2, 3) if "float" in kinds else (1, 2, 3, Fraction(1, 3)))
        y = [q - s * (v - q) for v in x]
        if rng.random() < 0.5:
            c = max(abs(v) for v in chain(x, y))
            if c == 0:
                continue
            shift = 1023 - math.frexp(c)[1] - rng.randint(-1, 2)
            x, y = ([_scaled(v, shift) for v in z] for z in (x, y))
        x, y = tuple(x), tuple(y)
        if not (in_conf_k(x, 3) and in_conf_k(y, 3)):
            continue
        at = _exit_time(x, y, ok)
        if at is not None:
            made += 1
            yield x, y, at


def test_detour_waypoint_matches_the_fraction_reference():
    routes = {}  # (has a float, route) -> cases
    for x, y, at in detour_cases(31, 3000):
        want, route = expected_waypoint(x, y, at)
        rounded = any(isinstance(v, float) for v in chain(x, y))
        got = planner._detour_waypoint(*planner._over_common_denominator(x, y), at, rounded)
        assert repr(got) == repr(want), (x, y, at)
        routes[rounded, route] = routes.get((rounded, route), 0) + 1
    # every route, exact and float, in range and rescaled, is exercised
    assert {key for key, count in routes.items() if count > 100} == \
        {(False, "p + u"), (False, "rescaled"), (True, "p + u"), (True, "rescaled")}, routes


PIN_POOL = (0.0, -0.0, 1.0, 1, Fraction(1), Decimal("1.0"), 2.5, Fraction(5, 2), 3)


def _plan_outcome(x, y):
    try:
        domain, path = plan_conf3_3(x, y)
    except NoKEqualError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((domain, path.points, validate_path(path, 3)))


def test_plan_outcomes_match_their_pinned_digest():
    # every domain, waypoint byte, verdict and exception message of the
    # crossing stream and of 20,000 pairs drawn from a pool of equal values
    # of every type; about a fifth of the pool pairs have a collided endpoint
    rng = random.Random(3)
    pool_pairs = ((tuple(rng.choice(PIN_POOL) for _ in range(3)),
                   tuple(rng.choice(PIN_POOL) for _ in range(3))) for _ in range(20000))
    digest = hashlib.sha256()
    for x, y in chain(((x, y) for x, y, _ in detour_cases(31, 3000)), pool_pairs):
        digest.update(_plan_outcome(x, y).encode() + b"\n")
    assert digest.hexdigest() == \
        "55e230057fb42d7ec76319ba9f07d2489b0d0ead7dc6e7ff066c3ac460dfba70"


def test_a_float_waypoint_is_the_exact_one_rounded_once():
    # p + u is (22104.75, 21954.75, 22317.75) exactly; rounding each float
    # step would give 22104.749999999996 and 22317.749999999996
    x, y = (-31, 33, 26), (66439.25, 66311.25, 66325.25)
    domain, path = plan_conf3_3(x, y)
    assert domain == 1
    assert repr(path.points[1]) == "(22104.75, 21954.75, 22317.75)"
    assert validate_path(path, 3)


def test_an_exact_crossing_is_put_over_its_common_denominator_once(monkeypatch):
    calls = []
    frame = planner._over_common_denominator
    monkeypatch.setattr(planner, "_over_common_denominator",
                        lambda x, y: calls.append(1) or frame(x, y))
    for x, y in (((0, 1, 2), (2, 1, 0)), ((0.5, 1.5, 2.5), (2.5, 1.5, 0.5)),
                 ((Fraction(1, 3), 0, 1), (Fraction(2, 3), 1, 0))):
        calls.clear()
        assert plan_conf3_3(x, y)[0] == 1
        assert len(calls) == 1, (x, y)


def test_a_float_query_is_decided_in_one_pass(monkeypatch):
    frames, grouped = [], []
    frame, classes = planner._over_common_denominator, planner._classes
    monkeypatch.setattr(planner, "_over_common_denominator",
                        lambda x, y: frames.append(1) or frame(x, y))
    monkeypatch.setattr(planner, "_classes",
                        lambda x, *exact: grouped.append(tuple(x)) or classes(x, *exact))
    # cleared by the float filter: neither grouped nor put over a denominator
    for x, y in (((0.0, 1.0, 2.0), (0.0, 2.0, 4.0)), ((0.1, 0.2, 0.3), (3.0, -1.0, 2.5)),
                 ((-1e-12, 3e-12, 2e-12), (5e5, -2e5, 1e6))):
        assert plan_conf3_3(x, y)[0] == 0
        assert frames == [] and grouped == [], (x, y)
    # the exact route builds its frame once and groups its integer numerators
    for x, y, domain in (((0, 1, 2), (2, 1, 0), 1), ((0.5, 1.5, 2.5), (2.5, 1.5, 0.5), 1),
                         ((0, 1, 2), (0, 2, 4), 0), ((Fraction(1, 3), 0, 1), (0, 1, 2), 0),
                         ((Decimal("0.5"), 1.0, 3), (3.5, 3, Fraction(1)), 1),
                         ((1, 1, 1), (0, 1, 2), None), ((0.5, 0.5, 0.5), (0.0, 1.0, 2.0), None)):
        frames.clear()
        grouped.clear()
        if domain is None:
            with pytest.raises(NotInSpace):
                plan_conf3_3(x, y)
        else:
            assert plan_conf3_3(x, y)[0] == domain
        assert len(frames) == 1 and len(grouped) == 2, (x, y)
        assert {type(v) for c in grouped for v in c} == {int}, (x, y)


def test_a_decimal_crossing_pair_gets_an_exact_detour():
    x = (Decimal("0.5"), Decimal(1), Decimal(3))
    y = (Decimal("3.5"), Decimal(3), Decimal(1))
    domain, path = plan_conf3_3(x, y)
    assert domain == 1
    assert path.points[1] == (6, -3, 3)
    assert {type(c) for c in path.points[1]} == {Fraction}
    assert validate_path(path, 3)
    # with a float among them, the waypoint is the exact p + u rounded
    # once to floats
    domain, path = plan_conf3_3((0.5, *x[1:]), y)
    assert domain == 1 and path.points[1] == (6.0, -3.0, 3.0)
    assert validate_path(path, 3)


def test_sampled_validation_takes_a_decimal_as_a_fraction():
    # a Decimal next to a Fraction or a float, which cannot be subtracted
    # from it, is taken by its integer ratio
    x = (Decimal("0.5"), Decimal(1), Decimal(3))
    y = (Decimal("3.5"), Decimal(3), Decimal(1))
    detour = plan_conf3_3(x, y)[1]
    mixed = Path.through((Decimal(1), 0.0, 2.0), (0.5, 1.0, 2.0))
    for path in (detour, mixed):
        assert validate_path(path, 3) is True
    # the segment meets the diagonal at t = 1/2
    crossing = Path.through((Decimal(0), Decimal(1), Decimal(2)), (2.0, Fraction(1), 0.0))
    assert validate_path(crossing, 3) is False


def hash_classes(x):
    """The classes of equal coordinates of x grouped by hashing the
    values themselves."""
    classes = {}
    for i, v in enumerate(x, 1):
        classes.setdefault(v, []).append(i)
    return sorted(classes.values())


CLASS_VALUES = (0, 1, -1, 3, 0.5, 1.0, -1.0, 0.1, 3.0, 2.0 ** -60,
                Fraction(1, 2), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(1, 10),
                Fraction(3), Fraction(1, 2 ** 60),
                Decimal("0.5"), Decimal("1.0"), Decimal("-1"), Decimal("0.1"),
                Decimal("3"), Decimal("0.50"), Decimal("-0"))


def test_classes_of_mixed_types_match_hash_grouping(monkeypatch):
    rng = random.Random(37)
    kinds = {}  # the types of a configuration -> configurations
    for _ in range(3000):
        pool = rng.choice((CLASS_VALUES[:4], CLASS_VALUES[4:10], CLASS_VALUES[:10], CLASS_VALUES))
        x = tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))
        # only a value that is neither an int nor a float makes _classes
        # key the coordinates by their ratios
        exact = planner._check_coordinates(x)
        assert exact == any(type(v) not in (int, float) for v in x)
        assert sorted(planner._classes(x, exact)) == hash_classes(x), x
        key = frozenset(map(type, x))
        kinds[key] = kinds.get(key, 0) + 1
    for types in ({int}, {float}, {int, float}, {int, float, Fraction, Decimal}):
        assert kinds.get(frozenset(types), 0) > 20, kinds
    # neither the planner nor validation hashes a Fraction
    monkeypatch.setattr(Fraction, "__hash__", None)
    x = (Fraction(1, 3), Fraction(2, 3), Fraction(1))
    domain, path = plan_conf3_3(x, tuple(1 - v for v in x))
    assert domain == 1 and validate_path(path, 3)


def test_parallel_to_diagonal_is_direct():
    # y - x proportional to (1,1,1) can never reach the diagonal
    domain, path = plan_conf3_3((0, 1, 2), (5, 6, 7))
    assert domain == 0
    assert validate_path(path, 3)


def test_validate_catches_midpoint_collision():
    seg = Path.through((0, 1, 2), (2, 1, 0))
    # the crossing at t = 1/2, whatever samples and strict say
    assert not validate_path(seg, 3)
    assert not validate_path(seg, 3, strict=True)
    assert not validate_path(seg, 3, samples=3)
    # a crossing at t = 1/3, between the ends, the only two samples
    assert not validate_path(Path.through((0, 1, 2), (3, 1, -1)), 3, samples=2)


@pytest.mark.parametrize("scale", [1.0, 1e308, int(1e308)], ids=["1", "1e308", "int"])
def test_sampling_sees_a_collision_whose_difference_overflows(scale):
    # the segment meets (0, 0, 0) at t = 1/2; at 1e308 the difference
    # b - a of the first two coordinates is beyond the float range
    seg = Path(((scale, -scale, 0.0), (-scale, scale, 0.0)))
    assert not validate_path(seg, 3)
    assert not validate_path(seg, 3, samples=257, strict=True)


def test_validate_accepts_exact_coordinates_beyond_float_range():
    # the exact test needs no float, so decides this path too
    x = (0, 10**400, 1)
    _, path = plan_conf3_3(x, tuple(10 - v for v in x))
    assert validate_path(path, 3)


def test_strict_validation_ignores_a_collision_made_by_rounding():
    # the segment is exactly clear; evaluated in floats at t = 1/2, its last
    # three coordinates round to one value
    seg = Path.through(
        (738.2574616181769, 157.05195736675535, -222.36509603239222,
         -721.1010481726528, -753.4235034114778),
        (590.7641280483409, -1476.3005047689771, -1096.8834513698298,
         -598.1474992295691, -565.8250439907441))
    assert not in_conf_k(tuple(a + (b - a) / 2 for a, b in zip(*seg.points)), 3)
    assert validate_path(seg, 3)
    assert validate_path(seg, 3, samples=9, strict=False)


def test_validate_rejects_k_below_2_on_a_clear_path():
    with pytest.raises(ParameterOutOfRange):
        validate_path(Path.through((0, 1, 2), (3, 5, 4)), 1)


ORACLE_COMPLEXES = (
    SimplicialComplex.skeleton(5, 1),  # Conf_3(R, 5)
    SimplicialComplex.skeleton(6, 2),  # Conf_4(R, 6)
    SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]]),
    SimplicialComplex.from_facets(4, [[1, 2, 3]]),
    SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4], [4, 5]]),
)


def _oracle_coordinate(rng, kind, scale, grid):
    if kind == "float":
        return scale * rng.uniform(-1, 1)
    if kind == "grid":  # dyadic, so coordinates can meet exactly
        return grid * rng.randint(-4, 4) / 4
    if kind == "int":
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 7)))


def oracle_cases(seed, count):
    """A seeded stream of (path, constraint): floats at scales
    1e-12..1e6, ints, Fractions and mixtures, with forced collisions at
    endpoints, through a common point at t = 1/2, and along whole segments."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.3:
            constraint = rng.choice(ORACLE_COMPLEXES)
            dim = constraint.n
        else:
            dim = rng.randint(3, 5)
            constraint = rng.randint(2, dim)
        scale = 10 ** rng.uniform(-12, 6)
        grid = 2.0 ** rng.randint(-40, 20)
        kinds = rng.choice((["float"], ["grid"], ["int"], ["fraction"],
                            ["float", "grid", "int", "fraction"]))
        points = [[_oracle_coordinate(rng, rng.choice(kinds), scale, grid)
                   for _ in range(dim)] for _ in range(rng.randint(2, 4))]
        s = rng.randrange(len(points) - 1)
        a, b = points[s], points[s + 1]
        block = rng.sample(range(dim), rng.randint(2, dim))
        force = rng.randrange(5)
        if force == 1:  # a shared value at one endpoint
            for i in block:
                a[i] = a[block[0]]
        elif force == 2:  # every coordinate of the block meets at t = 1/2
            c = a[block[0]]
            for i in block:
                a[i], b[i] = c + b[i], c - b[i]
        elif force == 3:  # collided along the whole segment
            for i in block:
                a[i], b[i] = a[block[0]], b[block[0]]
        elif force == 4:  # a constant segment
            points[s + 1] = list(a)
        yield Path.through(*points), constraint


def test_sampled_and_exact_validation_match_their_oracles():
    rejected = 0
    for path, constraint in oracle_cases(2026, 2000):
        want = all(pattern_exit_time(a, b, constraint) is None for a, b in path.pieces)
        got = validate_path(path, constraint)
        assert got == want, (path.points, constraint)
        rejected += not got
    # the stream must exercise both verdicts
    assert 0.2 < rejected / 2000 < 0.8


def fraction_collision_time(x, y, idxs):
    """The exact solve on Fractions, one pair of coordinates at a time."""
    ids = sorted(idxs)
    t = None
    for i, j in zip(ids, ids[1:]):
        a = Fraction(x[i - 1]) - Fraction(x[j - 1])
        b = Fraction(y[i - 1]) - Fraction(y[j - 1]) - a
        if b == 0:
            if a != 0:
                return None
            continue
        if t is None:
            t = -a / b
        elif t != -a / b:
            return None
    if t is None:
        return Fraction(0)
    return t if 0 <= t <= 1 else None


def exit_time(x, y, ok):
    """_exit_time's pair (a, b) as the Fraction a/b, or None."""
    at = _exit_time(x, y, ok)
    return None if at is None else Fraction(*at)


def pattern_exit_time(x, y, constraint):
    """The first time some collision pattern, a k-subset of the indices or a
    minimal non-face of K, is all equal on the segment [x, y]: the minimum
    over patterns of the Fraction solve, or None."""
    if isinstance(constraint, SimplicialComplex):
        patterns = minimal_nonfaces(constraint)
    else:
        patterns = combinations(range(1, len(x) + 1), constraint)
    times = [fraction_collision_time(x, y, sigma) for sigma in patterns]
    return min((t for t in times if t is not None), default=None)


def allowed_class(constraint):
    if isinstance(constraint, SimplicialComplex):
        faces = face_set(constraint)
        return lambda c: frozenset(c) in faces
    return lambda c: len(c) < constraint


def _random_complex(rng, n):
    facets = [rng.sample(range(1, n + 1), rng.randint(1, n))
              for _ in range(rng.randint(0, 4))]
    return SimplicialComplex.from_facets(n, facets)


def test_complex_membership_matches_the_face_set_oracle():
    rng = random.Random(17)
    complexes = [*ORACLE_COMPLEXES,
                 *(_random_complex(rng, rng.randint(1, 8)) for _ in range(200))]
    rejected = 0
    for K in complexes:
        faces = face_set(K)
        for _ in range(20):
            x = tuple(rng.randint(0, 2) for _ in range(K.n))
            classes = {}
            for i, v in enumerate(x, 1):
                classes.setdefault(v, set()).add(i)
            want = all(frozenset(c) in faces for c in classes.values())
            assert in_conf_complex(x, K) == want, (K, x)
            rejected += not want
    # the stream must exercise both verdicts
    assert 0.2 < rejected / (20 * len(complexes)) < 0.8


def test_a_full_facet_on_64_vertices_is_cheap():
    t0 = time.perf_counter()
    K = SimplicialComplex.from_facets(64, [range(1, 65)])
    assert in_conf_complex((0,) * 64, K)
    L = SimplicialComplex.from_facets(64, [range(1, 64)])
    assert not in_conf_complex((0,) * 64, L)
    assert in_conf_complex((0,) * 63 + (1,), L)
    assert time.perf_counter() - t0 < 0.1


def _exit_coordinate(rng, kind):
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "fraction":
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
    return rng.choice((1.0, 2.0 ** -30, 1e6)) * rng.randint(-4, 4) / 4


def exit_time_cases(seed, count):
    """A seeded stream of (x, y, constraint): Conf_k for n = 2..8 and
    k = 2..n and random complexes from facets, on int, Fraction, float and
    mixed coordinates drawn from a few values each, so that pairs, triples
    and larger classes meet at one time; some blocks are made equal along
    the whole segment, and some meet at one time by construction."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 8)
        constraint = (_random_complex(rng, n) if rng.random() < 0.4
                      else rng.randint(2, n))
        kinds = rng.choice((["int"], ["fraction"], ["float"],
                            ["int", "fraction", "float"]))
        x = [_exit_coordinate(rng, rng.choice(kinds)) for _ in range(n)]
        y = [_exit_coordinate(rng, rng.choice(kinds)) for _ in range(n)]
        block = rng.sample(range(n), rng.randint(2, n))
        force = rng.randrange(3)
        if force == 1:  # equal along the whole segment
            for i in block:
                x[i], y[i] = x[block[0]], y[block[0]]
        elif force == 2:  # the block meets at t = 1/(1 + s)
            q, s = x[block[0]], rng.choice((1, 2, 3))
            for i in block:
                y[i] = q - s * (x[i] - q)
        yield tuple(x), tuple(y), constraint


def oracle_segments(seed, count):
    """The segments of oracle_cases, each with its complex, or with Conf_k
    for every k = 2..dim."""
    for path, constraint in oracle_cases(seed, count):
        dim = len(path.start)
        constraints = ([constraint] if isinstance(constraint, SimplicialComplex)
                       else range(2, dim + 1))
        for a, b in path.pieces:
            for c in constraints:
                yield a, b, c


def test_collision_time_matches_the_fraction_solve():
    cases = [*exit_time_cases(11, 3000), *oracle_segments(7, 400)]
    bad = interior = 0
    for x, y, constraint in cases:
        want = pattern_exit_time(x, y, constraint)
        assert exit_time(x, y, allowed_class(constraint)) == want, \
            (x, y, constraint)
        bad += want is not None
        interior += want is not None and 0 < want < 1
    # the streams must exercise both verdicts and exit times between the ends
    assert 0.2 < bad / len(cases) < 0.8 and interior > 600


@pytest.mark.parametrize("x,y,k,want", [
    # 1 and 2 are equal all along and meet 3 at t = 1/3
    ((1, 1, 0), (-2, -2, 0), 3, Fraction(1, 3)),
    ((1.0, 1.0, 0.0), (-2.0, -2.0, 0.0), 3, Fraction(1, 3)),
    ((1, 1, 0), (-2, -2, 0), 2, Fraction(0)),
    # pairs meet at 3/7, 2/5 and 1/2, never all three
    ((0, 1, 3), (4, 3, 0), 3, None),
    ((0, 1, 3), (4, 3, 0), 2, Fraction(2, 5)),
    ((Fraction(1, 3), 0, 1), (Fraction(1, 3), 1, 0), 2, Fraction(1, 3)),
    # the triple meets at the far end; a constant collided segment
    ((0, 1, 2), (1, 1, 1), 3, Fraction(1)),
    ((2, 2, 2), (2, 2, 2), 3, Fraction(0)),
    # the triple meets at t = 1/16, yet the float dets e*h - f*g of its
    # pairs are 2^18, -2^18 and -2^19: a filter without the error bound
    # would call this segment clear
    ((5605588992.125, 20695220224.125, 0.14719581604003906),
     (-84083834879.875, -310428303359.875, -0.20793724060058594), 3, Fraction(1, 16)),
])
def test_exit_time_examples(x, y, k, want):
    assert exit_time(x, y, lambda c: len(c) < k) == want
    assert pattern_exit_time(x, y, k) == want


def _meet(rng, x, y, block, e):
    """Make the coordinates of block in the float lists x and y meet at a
    time t = a/2^m: x_l = P - t u_l and y_l = P + (1 - t) u_l, all exact
    floats, so the block equals P at t. P is about 2^e in size, and each
    u_l up to 2^25 times larger or smaller, so that float differences of
    the coordinates round."""
    m = rng.randint(1, 6)
    t = Fraction(rng.randint(0, 2 ** m), 2 ** m)
    # a coordinate is N 2^r - a U 2^(r + d - m) with |N|, |U| <= 2^20 and
    # |d| <= 25, which takes at most 52 bits between 2^(r - 31) and
    # 2^(r + 46): a float holds it exactly
    r = min(max(e - 20, -1043), 972)
    big_p = Fraction(rng.randint(-2 ** 20, 2 ** 20)) * Fraction(2) ** r
    for l in block:
        u = Fraction(rng.randint(-2 ** 20, 2 ** 20)) * Fraction(2) ** (r + rng.randint(-25, 25))
        x[l], y[l] = float(big_p - t * u), float(big_p + (1 - t) * u)
        assert x[l] == big_p - t * u and y[l] == big_p + (1 - t) * u


def float_segments(seed, count):
    """A seeded stream of (x, y, constraint, block) on float coordinates:
    Conf_k for n = 3..8 and k = 2..n, and random complexes. Each segment's
    coordinates lie near one scale, or each near its own, from the
    subnormals (2^-1060), through 2^-530, where products of differences
    underflow, to next to sys.float_info.max (2^1024). In half
    of them the indices in block meet at one time by construction (_meet);
    block is () in the others."""
    rng = random.Random(seed)
    scales = (-1060, -600, -530, -40, 0, 20, 600, 1024)
    for _ in range(count):
        n = rng.randint(3, 8)
        constraint = (_random_complex(rng, n) if rng.random() < 0.4
                      else rng.randint(2, n))
        e = rng.choice(scales)
        mixed = rng.random() < 0.3
        x, y = ([math.ldexp(rng.uniform(-1, 1), rng.choice(scales) if mixed else e)
                 for _ in range(n)] for _ in range(2))
        block = ()
        if rng.random() < 0.5:
            block = tuple(rng.sample(range(n), rng.randint(2, n)))
            _meet(rng, x, y, block, e)
        yield tuple(x), tuple(y), constraint, block


def test_float_filter_matches_the_exact_route_and_the_fraction_solve(monkeypatch):
    cases = list(float_segments(23, 1500))
    rules = [allowed_class(c) for _, _, c, _ in cases]
    cleared = [planner._clear_in_floats(x, y, ok) for (x, y, _, _), ok in zip(cases, rules)]
    got = [exit_time(x, y, ok) for (x, y, _, _), ok in zip(cases, rules)]
    monkeypatch.setattr(planner, "_clear_in_floats", lambda x, y, ok: False)
    exact = [exit_time(x, y, ok) for (x, y, _, _), ok in zip(cases, rules)]
    want = [pattern_exit_time(x, y, c) for x, y, c, _ in cases]
    for case, g, e, w in zip(cases, got, exact, want):
        assert g == e == w, case
    # the filter clears only segments without a bad time, and never one
    # where three or more coordinates meet, whether or not that is allowed
    assert all(w is None for w, c in zip(want, cleared) if c)
    assert not any(c for c, (*_, block) in zip(cleared, cases) if len(block) > 2)
    # the stream must exercise both verdicts and both routes
    bad = sum(w is not None for w in want)
    assert 0.2 < bad / len(cases) < 0.8 and 0.1 < sum(cleared) / len(cases) < 0.9


def test_the_float_filter_decides_random_pairs_and_declines_crossings(monkeypatch):
    verdicts = []  # each False sends one segment to the exact route
    clear = planner._clear_in_floats

    def counted(x, y, ok):
        verdicts.append(clear(x, y, ok))
        return verdicts[-1]

    monkeypatch.setattr(planner, "_clear_in_floats", counted)
    rng = random.Random(29)
    for _ in range(400):
        # random pairs in Conf_3(R, 3) at a log-uniform scale, as the plan
        # benchmark draws them; every one misses the diagonal
        scale = 10.0 ** rng.uniform(-12, 6)
        x, y = (tuple(scale * rng.uniform(-1, 1) for _ in range(3)) for _ in range(2))
        domain, path = plan_conf3_3(x, y)
        assert domain == 0 and validate_path(path, 3)
    assert verdicts.count(False) == 0 and len(verdicts) == 800
    crossings = [((0.5, 1.5, 2.5), (2.5, 1.5, 0.5))]
    for _ in range(200):
        # y = 2c(1,1,1) - x meets the diagonal at t = 1/2
        e = rng.randint(-40, 20)
        x = tuple(math.ldexp(rng.randint(-2 ** 40, 2 ** 40), e) for _ in range(3))
        c = math.ldexp(rng.randint(-2 ** 40, 2 ** 40), e)
        crossings.append((x, tuple(2 * c - v for v in x)))
    for _ in range(200):
        x, y = [0.0] * 3, [0.0] * 3
        _meet(rng, x, y, range(3), rng.choice((-1060, -40, 0, 600, 1024)))
        crossings.append((tuple(x), tuple(y)))
    planned = 0
    for x, y in crossings:
        if not (in_conf_k(x, 3) and in_conf_k(y, 3)):
            continue
        verdicts.clear()
        domain, path = plan_conf3_3(x, y)
        assert verdicts == [False] and domain == 1
        assert validate_path(path, 3)
        planned += 1
    assert planned > 350


def test_validate_with_complex_constraint():
    K = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    _, path = plan_conf3_3((0, 1, 2), (2, 1, 0))
    assert validate_path(path, K)


def test_validate_with_a_complex_on_24_points():
    K = SimplicialComplex.skeleton(24, 1)  # Conf_3(R, 24)
    x = tuple(range(24))
    # adjacent coordinates swap places: double collisions only
    clear = Path.through(x, tuple(v + 1 if v % 2 == 0 else v - 1 for v in x))
    assert validate_path(clear, K)
    # the first three meet at t = 1/2
    crossing = Path.through(x, (2, 1, 0) + x[3:])
    assert not validate_path(crossing, K)
    assert not validate_path(crossing, K)
