import copy
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from nokequal.cohomology import monomial_closure
from nokequal.errors import (
    AmbientMismatch,
    MalformedSyntax,
    NotAPartition,
    NotString,
    ParameterOutOfRange,
)
from nokequal.preorder import (
    RelationMatrix,
    StringPreorder,
    _assemble,
    _factor_masks,
    _ksubsets,
    _submasks,
    _x_masks,
    admissible_blocks,
    check_degree_params,
    classify,
    compose,
    count_admissible,
    elems_of,
    enumerate_admissible,
    enumerate_basic,
    factor_admissible,
    make_preorder,
    make_x,
    mask_of,
    parse_preorder,
    set_bits,
    to_matrix,
    to_string_form,
)


def discrete(n):
    """The empty (discrete) preorder: a single Empty level holding 1..n."""
    return make_preorder(n, [((1 << n) - 1, False)])


def test_parse_roundtrip_examples():
    for text in ["(1)[2,3](4)", "[1,2](3,4,5)", "(1,2,3)", "(1)(2)(3)"]:
        assert str(parse_preorder(text)) == text


def test_parse_infers_n():
    p = parse_preorder("[1,2](3,4)")
    assert p.n == 4


def test_parse_explicit_n_must_match():
    with pytest.raises(NotAPartition):
        parse_preorder("[1,2](3)", n=5)


@pytest.mark.parametrize("bad", ["", "[1,2", "(1,2))", "[]", "(1,x)", "[1,2](2,3)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises((MalformedSyntax, NotAPartition)):
        parse_preorder(bad)


def test_singleton_full_block_normalized_to_empty():
    # a one-element level is both full and empty; the empty form is canonical
    p = make_preorder(3, [((1 << 0), True), (0b110, False)])
    assert str(p) == "(1)(2,3)"


def test_a_plain_pair_level_equals_a_level_set():
    p = StringPreorder(3, ((0b001, False), (0b110, True)))
    q = make_preorder(3, [(0b001, False), (0b110, True)])
    assert p == q and hash(p) == hash(q) and str(p) == "(1)[2,3]"


@pytest.mark.parametrize("n, levels, error", [
    (3.0, ((7, False),), ParameterOutOfRange),
    ("3", ((7, False),), ParameterOutOfRange),
    (None, ((7, False),), ParameterOutOfRange),
    (0, (), ParameterOutOfRange),
    (65, (((1 << 65) - 1, False),), ParameterOutOfRange),
    (3, (7,), NotAPartition),
    (3, ((7,),), NotAPartition),
    (3, ((7, False, 0),), NotAPartition),
    (3, ((7.0, False),), NotAPartition),
    (3, ((7.0, True),), NotAPartition),
    (3, (("7", True),), NotAPartition),
    (3, 7, NotAPartition),
    (3, [(7, False)], NotAPartition),
    (3, ([7, False],), NotAPartition),
    (3, ((0, False), (7, False)), NotAPartition),
    (3, ((1, True), (6, False)), NotAPartition),
    (3, ((3, False), (6, False)), NotAPartition),
    (3, ((3, False),), NotAPartition),
])
def test_preorder_constructor_checks_its_inputs(n, levels, error):
    with pytest.raises(error):
        StringPreorder(n, levels)


def test_discrete_is_single_empty_level():
    assert str(discrete(4)) == "(1,2,3,4)"


def test_matrix_roundtrip():
    p = parse_preorder("(1)[2,3](4)")
    assert to_string_form(to_matrix(p)) == p


def test_identity_matrix_is_discrete():
    m = RelationMatrix(3, (0b001, 0b010, 0b100))
    assert to_string_form(m) == discrete(3)


def test_non_string_matrix_rejected():
    # 1 < 2 with 3 incomparable to both: no way to layer the classes
    rows = (0b011, 0b010, 0b100)
    with pytest.raises(NotString):
        to_string_form(RelationMatrix(3, rows))


def test_relation_matrix_rejects_rows_that_are_not_masks():
    for n, rows in [(1, (3,)), (1, (-1,)), (2, (1, 2.5))]:
        with pytest.raises(NotAPartition):
            RelationMatrix(n, rows)


def string_preorders(n):
    """Every string preorder on 1..n, each once: the ordered set partitions,
    with each level of two or more elements Full or Empty."""
    def rec(pool):
        if not pool:
            yield []
            return
        for level in _submasks(pool):
            if not level:
                continue
            for full in (False, True) if level & (level - 1) else (False,):
                for rest in rec(pool & ~level):
                    yield [(level, full)] + rest

    return [make_preorder(n, levels) for levels in rec((1 << n) - 1)]


def test_string_form_is_exact_on_small_ambients():
    # every string preorder with n <= 6 round-trips, and no two share a matrix
    by_rows = {}
    for n in range(1, 7):
        for p in string_preorders(n):
            rows = to_matrix(p).rows
            assert to_string_form(RelationMatrix(n, rows)) == p
            assert (n, rows) not in by_rows
            by_rows[n, rows] = p
    # every reflexive-transitive relation with n <= 4 gets the string
    # preorder with its matrix, or NotString when there is none
    relations = strings = 0
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for pattern in range(1 << len(pairs)):
            rows = [1 << i for i in range(n)]
            for t, (i, j) in enumerate(pairs):
                if pattern >> t & 1:
                    rows[i] |= 1 << j
            try:
                r = RelationMatrix(n, tuple(rows))
            except NotAPartition:
                continue  # not transitive
            relations += 1
            if (n, r.rows) in by_rows:
                strings += 1
                assert to_string_form(r) == by_rows[n, r.rows]
            else:
                with pytest.raises(NotString):
                    to_string_form(r)
    assert relations == 1 + 4 + 29 + 355  # the labelled preorders on n <= 4
    assert strings == 1 + 4 + 20 + 138  # every string preorder on n <= 4


def test_compose_merged_example():
    a = parse_preorder("[1,2](3)(4)")
    b = parse_preorder("(1)[2,3](4)")
    assert str(compose(a, b)) == "[1,2,3](4)"


def test_compose_nested_example():
    a = parse_preorder("(1)[2,3](4,5)")
    b = parse_preorder("(1,2,3)[4,5]")
    assert str(compose(a, b)) == "(1)[2,3][4,5]"


def test_compose_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        compose(discrete(3), discrete(4))


def test_classification():
    assert classify(parse_preorder("(1)[2,3](4)"), 3).is_basic
    assert classify(parse_preorder("[1,2](3,4)"), 3).is_elementary
    # max of J u I inside the bracket: admissible but not basic
    p = parse_preorder("(1,2)[3,4]")
    c = classify(p, 3)
    assert c.is_admissible and not c.is_basic
    assert classify(parse_preorder("[1,2,3](4)"), 3).kind == "non_admissible"


def test_classify_basic_matches_the_definition():
    # Basic, as defined: every block J_i u I_i has I_i nonempty and holding
    # the block's maximum. classify decides it by comparing top bits.
    for k in (3, 4):
        for n in range(k, 9):
            for d in range(n // (k - 1) + 1):
                for p in enumerate_admissible(k, n, d):
                    literal = all(
                        i_mask and max(elems_of(j_mask | i_mask)) in elems_of(i_mask)
                        for j_mask, i_mask in admissible_blocks(p.levels, k))
                    assert classify(p, k).is_basic == bool(literal), str(p)


def test_factor_admissible():
    p = parse_preorder("(1)[2,3](4)[5,6](7)")
    fs = factor_admissible(p, 3)
    assert [str(f) for f in fs] == ["(1)[2,3](4,5,6,7)", "(1,2,3,4)[5,6](7)"]


def test_make_x():
    assert str(make_x(1, 3, 5)) == "[1,2](3,4,5)"
    assert str(make_x(2, 3, 5)) == "(1)[2,3](4,5)"
    # the primed variant swaps the roles of m-1 and m
    assert str(make_x(3, 3, 6, primed=True)) == "(1,3)[2,4](5,6)"


def test_make_x_refuses_a_ring_outside_the_range():
    # checked first: k = 0 would shift by -1, k = 2 would build a non-admissible preorder
    for k, n in ((0, 0), (2, 5), (4, 3)):
        with pytest.raises(ParameterOutOfRange):
            make_x(1, k, n)


def x_masks_by_ranges(m, k, n, primed):
    """The generator's masks built element by element, as make_x built them
    before the closed form: the oracle for _x_masks."""
    prefix = mask_of(range(1, m))
    bracket = mask_of(range(m, m + k - 1))
    suffix = mask_of(range(m + k - 1, n + 1))
    if primed:
        prefix = (prefix & ~(1 << (m - 2))) | (1 << (m - 1))
        bracket = (bracket & ~(1 << (m - 1))) | (1 << (m - 2))
    return prefix, bracket, suffix


def test_closed_form_generator_masks_match_the_element_ranges():
    for n in range(3, 17):
        for k in range(3, n + 1):
            for m in range(1, n - k + 3):
                for primed in (False, True) if m >= 2 else (False,):
                    masks = x_masks_by_ranges(m, k, n, primed)
                    assert _x_masks(m, k, n, primed) == masks, (m, k, n, primed)
                    assert make_x(m, k, n, primed) == _assemble(
                        n, list(zip(masks, (False, True, False))))


def test_the_factorization_stays_out_of_equality_hash_repr_and_pickle():
    factored, fresh = parse_preorder("(1)[2,3](4)[5,6](7)"), parse_preorder("(1)[2,3](4)[5,6](7)")
    assert factored._factored() == (2, tuple(_factor_masks(7, admissible_blocks(
        factored.levels, 3))))
    assert factored == fresh and hash(factored) == hash(fresh)
    assert repr(factored) == repr(fresh)
    assert factored.__reduce__() == fresh.__reduce__()
    for twin in (pickle.loads(pickle.dumps(factored)), copy.copy(factored)):
        assert twin == factored
        with pytest.raises(AttributeError):
            twin._factors


@pytest.mark.parametrize("text, expected", [
    ("(1,2,3,4)", (None, ())),
    ("(1)(2)(3)", None),
    ("[1,2][3,4]", (2, ((0, 3, 12), (3, 12, 0)))),
    ("[1,2](3)[4,5,6]", None),
    ("[1,2,3](4)", (3, ((0, 7, 8),))),
])
def test_the_factorization_reads_the_block_shape(text, expected):
    assert parse_preorder(text)._factored() == expected


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_basic(3, 4, 1)) == 7
    assert sum(1 for _ in enumerate_basic(3, 5, 1)) == 31
    assert sum(1 for _ in enumerate_basic(3, 5, 2)) == 0


def test_enumeration_of_an_empty_degree_is_empty():
    # too few elements for the blocks: pruned at the root, not searched
    assert list(enumerate_basic(3, 12, 5)) == []
    assert list(enumerate_admissible(3, 12, 7)) == []


def test_enumeration_of_a_degree_beyond_reach_returns_at_once():
    # no d-tuple of block sizes is built for d blocks that cannot fit
    t0 = time.perf_counter()
    assert list(enumerate_basic(3, 5, 10 ** 18)) == []
    assert list(enumerate_admissible(3, 5, 10 ** 18)) == []
    assert time.perf_counter() - t0 < 1


def test_set_bits_and_elems_of_match_a_shift_loop():
    rng = random.Random(53)
    masks = [0, 1, 2 ** 63, 2 ** 64 - 1,
             *(rng.getrandbits(rng.randint(1, 200)) for _ in range(300))]
    for mask in masks:
        elements, rest, e = [], mask, 1
        while rest:
            if rest & 1:
                elements.append(e)
            rest >>= 1
            e += 1
        assert elems_of(mask) == elements, mask
        assert list(set_bits(mask)) == [1 << (e - 1) for e in elements], mask


def test_enumeration_sizes_match_counts():
    for k in (3, 4):
        for n in range(k, 8):
            for d in range(n // (k - 1) + 2):
                size = sum(1 for _ in enumerate_admissible(k, n, d))
                assert size == count_admissible(k, n, d), (k, n, d)


def test_enumeration_no_duplicates():
    seen = list(enumerate_admissible(3, 6, 2))
    assert len(seen) == len(set(seen)) == count_admissible(3, 6, 2)


def old_enumerate_basic(k, n, d):
    """enumerate_basic's body before the two enumerators were merged, kept
    verbatim as the oracle of the merged one."""
    check_degree_params(k, n, d)
    if d == 0:
        yield discrete(n)
        return
    all_mask = (1 << n) - 1

    def rec(pool: int, chosen: list[tuple[int, int]]):
        # Each remaining block needs k elements: k-1 in J plus its maximum in I.
        spare = pool.bit_count() - (d - len(chosen)) * k
        if spare < 0:
            return
        if len(chosen) == d:
            i0 = pool
            parts: list[tuple[int, bool]] = [(i0, False)]
            for j_mask, i_mask in chosen:
                parts.append((j_mask, True))
                parts.append((i_mask, False))
            yield _assemble(n, parts)
            return
        for j_mask in _ksubsets(pool, k - 1):
            rest = pool & ~j_mask
            j_max = j_mask.bit_length()  # 1-based max element of J
            for i_mask in _submasks(rest):
                # basic: I nonempty and max(J u I) in I
                if i_mask and i_mask.bit_length() > j_max and i_mask.bit_count() <= spare + 1:
                    yield from rec(rest & ~i_mask, chosen + [(j_mask, i_mask)])

    yield from rec(all_mask, [])


def old_enumerate_admissible(k, n, d):
    """enumerate_admissible's body before the merge, kept verbatim."""
    check_degree_params(k, n, d)
    if d == 0:
        yield discrete(n)
        return
    all_mask = (1 << n) - 1

    def rec(pool: int, chosen: list[tuple[int, int]]):
        # Each remaining block needs the k-1 elements of its J.
        spare = pool.bit_count() - (d - len(chosen)) * (k - 1)
        if spare < 0:
            return
        if len(chosen) == d:
            parts: list[tuple[int, bool]] = [(pool, False)]
            for j_mask, i_mask in chosen:
                parts.append((j_mask, True))
                parts.append((i_mask, False))
            yield _assemble(n, parts)
            return
        for j_mask in _ksubsets(pool, k - 1):
            rest = pool & ~j_mask
            for i_mask in _submasks(rest):
                if i_mask.bit_count() <= spare:
                    yield from rec(rest & ~i_mask, chosen + [(j_mask, i_mask)])

    yield from rec(all_mask, [])


def test_merged_enumerator_matches_the_old_bodies():
    def outcome(preorders):
        try:
            return list(preorders)
        except ParameterOutOfRange as exc:
            return repr(exc)

    cases = [(k, n, d) for k in (3, 4) for n in range(k, 9)
             for d in range(n // k + 2)]
    cases += [(2, 5, 1), (3, 2, 1), (5, 4, 1), (3, 65, 1), (3, 5, -1)]
    compared = 0
    for k, n, d in cases:
        for new, old in ((enumerate_basic, old_enumerate_basic),
                         (enumerate_admissible, old_enumerate_admissible)):
            expected = outcome(old(k, n, d))
            assert outcome(new(k, n, d)) == expected, (new.__name__, k, n, d)
            if isinstance(expected, list):
                compared += len(expected)
    assert compared == 100_945


def test_basics_are_admissible_subset():
    basics = set(enumerate_basic(4, 6, 1))
    adm = set(enumerate_admissible(4, 6, 1))
    assert basics <= adm
    assert all(classify(p, 4).is_basic for p in basics)


# -- hypothesis properties ---------------------------------------------------

@st.composite
def preorders(draw, max_n=7):
    n = draw(st.integers(3, max_n))
    elems = list(range(1, n + 1))
    draw(st.randoms()).shuffle(elems)
    levels = []
    i = 0
    while i < n:
        size = draw(st.integers(1, n - i))
        mask = 0
        for e in elems[i:i + size]:
            mask |= 1 << (e - 1)
        levels.append((mask, size > 1 and draw(st.booleans())))
        i += size
    return make_preorder(n, levels)


@given(preorders())
def test_string_matrix_roundtrip(p):
    assert to_string_form(to_matrix(p)) == p


@given(preorders())
def test_parse_str_roundtrip(p):
    assert parse_preorder(str(p), p.n) == p


@given(preorders(), preorders())
@settings(max_examples=60)
def test_compose_commutative(a, b):
    if a.n != b.n:
        return
    try:
        left = compose(a, b)
    except NotString:
        left = None
    try:
        right = compose(b, a)
    except NotString:
        right = None
    assert left == right


@given(preorders())
def test_compose_idempotent(p):
    assert compose(p, p) == p


@given(preorders())
def test_discrete_is_neutral(p):
    assert compose(p, discrete(p.n)) == p


@given(st.data())
@settings(max_examples=40)
def test_compose_associative_on_elementaries(data):
    n = data.draw(st.integers(5, 8))
    k = 3
    ms = data.draw(st.lists(st.integers(1, n - k + 2), min_size=3, max_size=3))
    xs = [make_x(m, k, n) for m in ms]
    try:
        left = compose(compose(xs[0], xs[1]), xs[2])
    except NotString:
        left = None
    try:
        right = compose(xs[0], compose(xs[1], xs[2]))
    except NotString:
        right = None
    assert left == right


def single_masks(f, k):
    """Masks (I, J, K) of an elementary factor (I)[J](K)."""
    (masks,) = _factor_masks(f.n, admissible_blocks(f.levels, k))
    return masks


def nests(f, g, k):
    """Whether one single-block factor's I u J lies in the other's I."""
    (i_f, j_f, _), (i_g, j_g, _) = single_masks(f, k), single_masks(g, k)
    return not (i_f | j_f) & ~i_g or not (i_g | j_g) & ~i_f


def closes_to_admissible(f, g, k):
    try:
        return admissible_blocks(compose(f, g).levels, k) is not None
    except NotString:
        return False


def check_pair(f, g, k):
    """compose, the Warshall route, against monomial_closure: equal on a
    nesting pair; otherwise the product is zero and the closure is not
    admissible, but for a repeated factor, which compose keeps (the ring's
    square of it is zero)."""
    closed = monomial_closure([f, g], k, f.n)
    if nests(f, g, k):
        assert closed is not None and compose(f, g) == closed, (f, g)
    elif f == g:
        assert closed is None and compose(f, g) == f
    else:
        assert closed is None and not closes_to_admissible(f, g, k), (f, g)


def test_nested_closed_form_matches_compose():
    # factors with I u J contained in the deeper hole compose by splicing
    outer = parse_preorder("(1)[2,3](4,5,6,7)")
    inner = parse_preorder("(1,2,3,4)[5,6](7)")
    spliced = monomial_closure([outer, inner], 3, 7)
    assert str(spliced) == "(1)[2,3](4)[5,6](7)"
    assert spliced == compose(outer, inner)


def test_merged_pair_closes_to_zero():
    a = parse_preorder("[1,2](3,4)")
    b = parse_preorder("(1)[2,3](4)")
    assert str(compose(a, b)) == "[1,2,3](4)"
    assert monomial_closure([a, b], 3, 4) is None


def test_compose_agrees_with_monomial_closure_on_every_pair():
    for k, n in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5)):
        elementary = list(enumerate_admissible(k, n, 1))
        for f in elementary:
            for g in elementary:
                check_pair(f, g, k)


@given(st.data())
@settings(max_examples=60)
def test_elementary_compose_closed_forms(data):
    n = data.draw(st.integers(4, 8))
    m1 = data.draw(st.integers(1, n - 2))
    m2 = data.draw(st.integers(1, n - 2))
    check_pair(make_x(m1, 3, n), make_x(m2, 3, n), 3)


def test_enumerate_basic_matches_brute_filter():
    brute = {p for p in enumerate_admissible(3, 6, 2) if classify(p, 3).is_basic}
    assert set(enumerate_basic(3, 6, 2)) == brute


def test_single_block_decomposition():
    p = parse_preorder("(1)[2,3](4,5)")
    assert _factor_masks(5, admissible_blocks(p.levels, 3)) == [(0b00001, 0b00110, 0b11000)]
