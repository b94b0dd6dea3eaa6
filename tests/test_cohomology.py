import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nokequal
from nokequal import cohomology
from nokequal.cohomology import (
    CohClass,
    _frame_row,
    _relation_rows,
    _term_masks,
    betti,
    cat_witness,
    clear_caches,
    cup,
    cup_length,
    monomial_closure,
    normalize,
    oracle_normal_form,
    witness_closure,
)
from nokequal.errors import (
    AmbientMismatch,
    CertificateFailure,
    NotAdmissible,
    NotElementary,
    NotString,
    ParameterOutOfRange,
    TooLarge,
)
from nokequal.invariants import cat_formula, invariant_report
from nokequal.preorder import (
    RelationMatrix,
    StringPreorder,
    _assemble,
    _factor_masks,
    _ksubsets,
    _submasks,
    _x_masks,
    admissible_blocks,
    classify,
    elems_of,
    enumerate_admissible,
    enumerate_basic,
    factor_admissible,
    make_preorder,
    make_x,
    mask_of,
    parse_preorder,
    to_matrix,
    to_string_form,
    transitive_closure,
)
from nokequal.tensor import expected_witness_term, zcl_lower, zero_divisor


def nf_x(m, k, n, primed=False):
    """Generator x_m as a CohClass in the basic basis."""
    p = make_x(m, k, n, primed)
    if classify(p, k).is_basic:
        return CohClass.of(k, n, [p])
    return normalize(p, k)


def test_addition_is_gf2():
    p = parse_preorder("(1)[2,3](4)")
    a = CohClass.of(3, 4, [p])
    assert (a + a).is_zero
    assert str(a + CohClass.zero(3, 4)) == "(1)[2,3](4)"


def test_monomial_closure_repeated_factor_is_zero():
    x = make_x(1, 3, 5)
    assert monomial_closure([x, x], 3, 5) is None


def test_monomial_closure_overlapping_brackets_merge_to_zero():
    # closure produces a full block of size 3 > k-1
    assert monomial_closure([make_x(1, 3, 6), make_x(2, 3, 6)], 3, 6) is None


def test_monomial_closure_empty_product_is_unit():
    assert monomial_closure([], 3, 5) == parse_preorder("(1,2,3,4,5)")


def test_monomial_closure_rejects_a_two_block_factor():
    with pytest.raises(NotElementary):
        monomial_closure([parse_preorder("[1,2](3)[4,5](6)")], 3, 6)


def test_monomial_closure_rejects_a_factor_on_another_n():
    with pytest.raises(AmbientMismatch):
        monomial_closure([make_x(1, 3, 5)], 3, 6)


def test_monomial_closure_refuses_a_ring_outside_the_range():
    # an empty product has no factor to check, so only the ring check can refuse it
    for k, n in ((2, 5), (4, 3), (3, 65)):
        with pytest.raises(ParameterOutOfRange):
            monomial_closure([], k, n)


def warshall_closure(factors, k, n):
    """The closure through relation matrices: union of the factors'
    relations, Warshall, then the string form. Oracle for the closed form."""
    if not factors:
        return make_preorder(n, [((1 << n) - 1, False)])
    for f in factors:
        if f.n != n:
            raise AmbientMismatch("factor has wrong ambient size")
        if not classify(f, k).is_elementary:
            raise NotElementary(f"{f} is not elementary for k={k}")
    if len(set(factors)) != len(factors):
        return None
    rows = [0] * n
    for f in factors:
        for i, row in enumerate(to_matrix(f).rows):
            rows[i] |= row
    closed = transitive_closure(n, rows)
    try:
        p = to_string_form(RelationMatrix(n, closed))
    except NotString:
        # Not expected in practice; a non-string closure cannot be admissible.
        return None
    blocks = admissible_blocks(p.levels, k)
    if blocks is None:
        return None
    assert len(blocks) == len(factors)
    return p


def random_admissible(rng, k, n, d):
    """A random admissible preorder with d blocks: random elements in the
    J's, every other element in a random hole."""
    elems = rng.sample(range(1, n + 1), n)
    holes = [[] for _ in range(d + 1)]
    for e in elems[d * (k - 1):]:
        holes[rng.randrange(d + 1)].append(e)
    levels = [(mask_of(holes[0]), False)]
    for i in range(d):
        levels += [(mask_of(elems[i * (k - 1):(i + 1) * (k - 1)]), True),
                   (mask_of(holes[i + 1]), False)]
    return make_preorder(n, [(m, full) for m, full in levels if m])


def random_factor_list(rng, k, n, length):
    """Factors of a random admissible product, shuffled; half the time one
    factor is then disturbed (a free element moved across its block, a
    factor replaced by a random one, or a factor repeated)."""
    if length * (k - 1) > n:
        return [factor_admissible(random_admissible(rng, k, n, 1), k)[0]
                for _ in range(length)]
    factors = factor_admissible(random_admissible(rng, k, n, length), k)
    rng.shuffle(factors)
    how = rng.randrange(6)
    i = rng.randrange(length)
    if how == 0:
        (i_mask, j_mask, k_mask), = _factor_masks(n, admissible_blocks(factors[i].levels, k))
        bit = 1 << (rng.choice([e for e in range(1, n + 1) if not j_mask >> (e - 1) & 1]) - 1)
        levels = [(i_mask ^ bit, False), (j_mask, True), (k_mask ^ bit, False)]
        factors[i] = make_preorder(n, [(m, full) for m, full in levels if m])
    elif how == 1:
        factors[i] = factor_admissible(random_admissible(rng, k, n, 1), k)[0]
    elif how == 2:
        factors[i] = factors[(i + 1) % length]
    return factors


def test_closed_form_matches_warshall_on_every_pair():
    for k, n in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5)):
        elementary = list(enumerate_admissible(k, n, 1))
        for f in elementary:
            for g in elementary:
                assert monomial_closure([f, g], k, n) == warshall_closure([f, g], k, n), (f, g)


def test_closed_form_matches_warshall_on_seeded_lists():
    rng = random.Random(20260418)
    nonzero = 0
    for _ in range(20_000):
        k, length = rng.randint(3, 5), rng.randint(3, 5)
        need = length * (k - 1)
        n = rng.randint(need, 10) if need <= 10 else rng.randint(k, 10)
        factors = random_factor_list(rng, k, n, length)
        closed = monomial_closure(factors, k, n)
        assert closed == warshall_closure(factors, k, n), factors
        nonzero += closed is not None
    # both outcomes are exercised in bulk
    assert 3_000 < nonzero < 17_000


def popcount_sorted_close(n, masks):
    """_close with the factors sorted by the size of I, as a sort key:
    the oracle for the plain tuple sort of _close."""
    if not masks:
        return (((1 << n) - 1, False),)
    masks = sorted(masks, key=lambda ijk: ijk[0].bit_count())
    parts = [(masks[0][0], False)]
    for (i_lo, j_lo, k_lo), (i_hi, _, _) in zip(masks, masks[1:]):
        if (i_lo | j_lo) & ~i_hi:
            return None
        parts += [(j_lo, True), (k_lo & i_hi, False)]
    _, j_top, k_top = masks[-1]
    parts += [(j_top, True), (k_top, False)]
    return tuple(lv for lv in parts if lv[0])


@pytest.mark.parametrize("k,n,degrees", [(3, 7, (0, 1, 2)), (4, 9, (2,))])
def test_close_of_any_factor_order_gives_the_levels(k, n, degrees):
    for d in degrees:
        for p in enumerate_admissible(k, n, d):
            masks = _factor_masks(n, admissible_blocks(p.levels, k))
            for perm in itertools.permutations(masks):
                assert cohomology._close(n, perm) == p.levels, (p, perm)


def random_generator_masks(rng, k, n, length):
    """Masks (I, J, K) of `length` generators of ring (k, n): half the
    time a shuffled nesting chain, with one factor at random replaced or
    repeated one time in three, and otherwise independent random
    generators, which seldom nest."""
    elems = list(range(n))
    rng.shuffle(elems)
    if rng.random() < 0.5 and length * (k - 1) <= n:
        # holes of random sizes between `length` blocks of k-1 elements
        cuts = sorted(rng.choices(range(n - length * (k - 1) + 1), k=length))
        masks, below, pos = [], 0, 0
        for f, cut in enumerate(cuts):
            start = cut + f * (k - 1)
            below |= sum(1 << e for e in elems[pos:start])
            block = sum(1 << e for e in elems[start:start + k - 1])
            masks.append((below, block, ((1 << n) - 1) ^ below ^ block))
            below |= block
            pos = start + k - 1
        rng.shuffle(masks)
        how = rng.randrange(3)
        if how == 0:
            masks[rng.randrange(length)] = random_generator_masks(rng, k, n, 1)[0]
        elif how == 1:
            masks[rng.randrange(length)] = rng.choice(masks)
        return masks
    masks = []
    for _ in range(length):
        rng.shuffle(elems)
        block = sum(1 << e for e in elems[:k - 1])
        below = sum(1 << e for e in elems[k - 1:] if rng.random() < 0.5)
        masks.append((below, block, ((1 << n) - 1) ^ below ^ block))
    return masks


def test_close_matches_the_popcount_sort_on_seeded_lists():
    rng = random.Random(20261020)
    nonzero = 0
    for _ in range(20_000):
        k = rng.randint(3, 5)
        n = rng.randint(k, 12)
        masks = random_generator_masks(rng, k, n, rng.randint(1, 4))
        closed = cohomology._close(n, masks)
        assert closed == popcount_sorted_close(n, masks), (n, masks)
        nonzero += closed is not None
    # both outcomes are exercised in bulk
    assert 3_000 < nonzero < 17_000, nonzero


def test_normalize_basic_is_fixed():
    p = parse_preorder("(1)[2,3](4)")
    assert normalize(p, 3).terms == frozenset([p])


def test_normalize_worked_example():
    out = normalize(parse_preorder("(1,2)[3,4]"), 3)
    assert str(out) == "(1)[2,3](4)+(2)[1,3](4)"


def test_normalize_rejects_non_admissible():
    with pytest.raises(NotAdmissible):
        normalize(parse_preorder("[1,2,3](4)"), 3)


def test_normalize_top_degree_at_n18_under_the_default_recursion_limit():
    # shaped like a top-degree basic preorder, [J_1](i_1)...[J_6](i_6), with
    # shuffled elements, so most blocks need rewriting
    k, n = 3, 18
    limit = sys.getrecursionlimit()
    rng = random.Random(18)
    for _ in range(20):
        elems = rng.sample(range(1, n + 1), n)
        levels = []
        for i in range(0, n, k):
            levels += [(mask_of(elems[i:i + k - 1]), True), (mask_of(elems[i + k - 1:i + k]), False)]
        out = normalize(make_preorder(n, levels), k)
        assert out.terms
        assert all(classify(t, k).is_basic and classify(t, k).d == n // k for t in out.terms)
    assert sys.getrecursionlimit() == limit


def monotone_violations(c, k):
    """Blocks j at which a basic term T of NF(c) breaks one of
    (a) max J_j(T) <= max J_j(c), (b) min J_j(T) <= min J_j(c),
    (c) the elements below block j in T lie below block j in c."""
    n = c.n
    source = _term_masks(c, k, n)
    bad = []
    for t in normalize(c, k).terms:
        for j, ((i_c, j_c, _), (i_t, j_t, _)) in enumerate(zip(source, _term_masks(t, k, n))):
            if (j_t.bit_length() > j_c.bit_length() or (j_t & -j_t) > (j_c & -j_c)
                    or i_t & ~i_c):
                bad.append((str(c), str(t), j))
    return bad


@pytest.mark.parametrize("k,n,sample", [(3, 7, None), (4, 8, None), (3, 8, 2500), (4, 9, 2500)])
def test_normal_form_terms_are_monotone_in_their_source(k, n, sample):
    # Evidence for a lemma that would let the TC certificate prune patterns
    # by blocks; no production code relies on it.
    sources = list(enumerate_admissible(k, n, 2))
    if sample is not None:
        sources = random.Random(100 * k + n).sample(sources, sample)
    assert [v for c in sources for v in monotone_violations(c, k)] == []


def rewrite_measure(p, k):
    """The termination measure of normalize's docstring, from the definition:
    (i, -max(J_i)) for the rightmost block [J_i](I_i) whose maximum lies in
    J_i, or None when p is basic."""
    blocks = admissible_blocks(p.levels, k)
    for i in reversed(range(len(blocks))):
        j_mask, i_mask = blocks[i]
        if max(elems_of(j_mask | i_mask)) in elems_of(j_mask):
            return (i, -max(elems_of(j_mask)))
    return None


def test_rewrite_measure_decreases_on_every_edge(monkeypatch):
    # Each _nf call made while rewriting a preorder is an edge from that
    # preorder to one term of its rewrite; the measure drops along every one.
    # _nf takes a level tuple; the preorder is built here to measure it.
    edges, stack = [], []
    real_nf = cohomology._nf

    def recording_nf(k, n, levels):
        p = make_preorder(n, levels)
        if stack:
            edges.append((stack[-1], p, k))
        stack.append(p)
        try:
            return real_nf(k, n, levels)
        finally:
            stack.pop()

    monkeypatch.setattr(cohomology, "_nf", recording_nf)
    monkeypatch.setattr(cohomology, "_nf_memo", {})
    for k, n_max in ((3, 7), (4, 8)):
        for n in range(k, n_max + 1):
            for d in (1, 2):
                for p in enumerate_admissible(k, n, d):
                    normalize(p, k)
    for parent, child, k in edges:
        child_measure = rewrite_measure(child, k)
        assert child_measure is None or child_measure < rewrite_measure(parent, k), (
            str(parent), str(child))
    assert len(edges) == 25_482


def test_normalize_overflow_degree_is_zero():
    # two blocks cannot fit in n=5 at k=3
    for q in enumerate_admissible(3, 5, 2):
        assert normalize(q, 3).is_zero


def row_sum(row, k, n):
    """GF(2) sum of the normal forms of a relation row's terms."""
    total = CohClass.zero(k, n)
    for t in row:
        total = total + normalize(make_preorder(n, t), k)
    return total


def test_relation_instance_sums_to_zero():
    # the instance A = {1,2}, B = {3}, C = {4} is the frame (A)[B](C)
    row = _frame_row([(0b0011, False), (0b0100, True), (0b1000, False)], 0)
    assert row in list(_relation_rows(3, 4, 1))
    assert row_sum(row, 3, 4).is_zero


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_every_relation_instance_normalizes_to_zero(seed):
    # the degree-1 rows are the 5 * 2**4 instances [5] = A u B u C, card(B) = 1
    rows = list(_relation_rows(3, 5, 1))
    assert len(rows) == 80
    assert row_sum(rows[seed % len(rows)], 3, 5).is_zero


def random_frame(rng, k, n, d, i):
    """A uniformly random frame of degree d on 1..n whose block B is J_{i+1}."""
    elements = list(range(1, n + 1))
    rng.shuffle(elements)
    parts = [(0, False)]
    for t in range(d):
        size = k - 2 if t == i else k - 1
        parts += [(mask_of(elements[:size]), True), (0, False)]
        del elements[:size]
    for e in elements:
        h = 2 * rng.randrange(d + 1)
        parts[h] = (parts[h][0] | 1 << (e - 1), False)
    return parts


@pytest.mark.parametrize("n", [9, 10])
def test_sampled_degree_3_rows_normalize_to_zero(n):
    # normalize is well defined on the quotient: each relation row, with B at
    # every position, sums to zero. Sampled, since (3, 9, 3) alone has
    # 483,840 admissibles.
    rng = random.Random(n)
    checked = 0
    while checked < 300:
        i = checked % 3
        row = _frame_row(random_frame(rng, 3, n, 3, i), i)
        if row:
            assert row_sum(row, 3, n).is_zero, (n, i, row)
            checked += 1


def old_relation_instances(k, n):
    all_mask = (1 << n) - 1
    for b_mask in _ksubsets(all_mask, k - 2):
        rest = all_mask & ~b_mask
        for a_mask in _submasks(rest):
            yield a_mask, b_mask, rest & ~a_mask


def old_relation_rows(k, n, d):
    """The hand-written degree-1 and degree-2 rows the frames replaced."""
    if d == 1:
        for A, B, C in old_relation_instances(k, n):
            row = []
            for a in elems_of(A):
                bit = 1 << (a - 1)
                row.append(_assemble(n, [(A ^ bit, False), (B | bit, True), (C, False)]))
            for c in elems_of(C):
                bit = 1 << (c - 1)
                row.append(_assemble(n, [(A, False), (B | bit, True), (C ^ bit, False)]))
            yield row
        return
    for A, B, C in old_relation_instances(k, n):
        # Family "above": factors (I)[J](K) with I containing A u B, i.e.
        # J inside C; every product has the fixed tail [J](K).
        for j_mask in _ksubsets(C, k - 1):
            rest = C & ~j_mask
            for extra in _submasks(rest):
                k_mask = rest & ~extra
                row = []
                for a in elems_of(A):
                    bit = 1 << (a - 1)
                    row.append(_assemble(n, [(A ^ bit, False),
                                             (B | bit, True),
                                             (extra, False),
                                             (j_mask, True),
                                             (k_mask, False)]))
                for c in elems_of(extra):
                    bit = 1 << (c - 1)
                    row.append(_assemble(n, [(A, False),
                                             (B | bit, True),
                                             (extra ^ bit, False),
                                             (j_mask, True),
                                             (k_mask, False)]))
                if row:
                    yield row
        # Family "below": factors (I)[J](K) with I u J inside A; every
        # product has the fixed head (I)[J].
        for j_mask in _ksubsets(A, k - 1):
            for i_mask in _submasks(A & ~j_mask):
                head = i_mask | j_mask
                row = []
                for a in elems_of(A & ~head):
                    bit = 1 << (a - 1)
                    row.append(_assemble(n, [(i_mask, False),
                                             (j_mask, True),
                                             (A & ~head & ~bit, False),
                                             (B | bit, True),
                                             (C, False)]))
                for c in elems_of(C):
                    bit = 1 << (c - 1)
                    row.append(_assemble(n, [(i_mask, False),
                                             (j_mask, True),
                                             (A & ~head, False),
                                             (B | bit, True),
                                             (C ^ bit, False)]))
                if row:
                    yield row


@pytest.mark.parametrize("k, n", [(3, n) for n in range(3, 8)] + [(4, n) for n in range(4, 9)])
def test_frame_rows_match_the_hand_written_families(k, n):
    for d in (1, 2):
        old = {frozenset(p.levels for p in row) for row in old_relation_rows(k, n, d)}
        new = {frozenset(row) for row in _relation_rows(k, n, d)}
        assert new == old, (k, n, d)


def test_betti_values():
    assert betti(3, 4, 0) == 1
    assert betti(3, 4, 1) == 7
    assert betti(3, 5, 1) == 31
    assert betti(3, 5, 2) == 0
    assert betti(3, 6, 2) == 20


def test_betti_count_matches_enumeration():
    mismatches = [(k, n, d)
                  for k in range(3, 6)
                  for n in range(k, 11)
                  for d in range(n // k + 2)
                  if betti(k, n, d) != sum(1 for _ in enumerate_basic(k, n, d))]
    assert mismatches == []


@pytest.mark.parametrize("k, n, d", [(2, 5, 1), (3, 2, 0), (4, 3, 1), (3, 5, -1), (3, 65, 1)])
def test_betti_rejects_out_of_range_parameters(k, n, d):
    with pytest.raises(ParameterOutOfRange):
        betti(k, n, d)


def test_cup_unit():
    one = CohClass.unit(3, 5)
    a = nf_x(2, 3, 5)
    assert cup(one, a).terms == a.terms


def test_cup_rejects_a_non_admissible_term():
    bad = CohClass.of(3, 4, [parse_preorder("[1,2,3](4)")])
    with pytest.raises(NotAdmissible):
        cup(CohClass.unit(3, 4), bad)


def test_cup_rejects_a_ring_with_k_above_n():
    with pytest.raises(ParameterOutOfRange):
        cup(CohClass.of(4, 3, [parse_preorder("[1,2,3]")]), CohClass.unit(4, 3))


def test_a_ring_with_k_above_n_is_refused_at_construction():
    # [1,2,3] is admissible for k = 4, so only the ring check can refuse it
    with pytest.raises(ParameterOutOfRange):
        normalize(parse_preorder("[1,2,3]"), 4)
    with pytest.raises(ParameterOutOfRange):
        CohClass.of(4, 3, [parse_preorder("[1,2,3]")])
    with pytest.raises(ParameterOutOfRange):
        CohClass.zero(2, 5)


def test_a_refused_normalize_leaves_the_memo_unchanged(monkeypatch):
    monkeypatch.setattr(cohomology, "_nf_memo", {})
    with pytest.raises(ParameterOutOfRange):
        normalize(parse_preorder("[1,2,3]"), 4)
    assert cohomology._nf_memo == {}


def test_clear_caches_empties_the_memo_and_keeps_the_results(monkeypatch):
    monkeypatch.setattr(cohomology, "_nf_memo", {})
    p = make_x(6, 3, 7)
    nf, zcl = normalize(p, 3), zcl_lower(3, 7)
    assert cohomology._nf_memo
    clear_caches()
    assert cohomology._nf_memo == {}
    assert normalize(p, 3) == nf and zcl_lower(3, 7) == zcl
    assert cohomology._nf_memo


def counting_preorder_builds(monkeypatch):
    """A list that records every StringPreorder built from now on."""
    built = []
    real = StringPreorder.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(StringPreorder, "__init__", counting)
    return built


def test_a_repeated_cup_builds_no_preorder(monkeypatch):
    # The memo is keyed by level tuples, so a product already in it is
    # answered without building a StringPreorder.
    a, b = nf_x(1, 3, 7), nf_x(4, 3, 7) + nf_x(5, 3, 7)
    first = cup(a, b)
    built = counting_preorder_builds(monkeypatch)
    assert cup(a, b) == first
    assert built == []


@pytest.mark.parametrize("call", [
    lambda: zero_divisor(3, 7, 2, q=1, s=3, primed=True),
    lambda: zero_divisor(3, 7, 6),  # x_6 is not basic: its normal form is a sum
    lambda: expected_witness_term(3, 7, 2, 3),
    lambda: expected_witness_term(3, 9, 3),  # the p witnesses, n = ik
    lambda: cat_witness(4, 9),
    lambda: CohClass.unit(3, 7),
])
def test_a_repeated_certificate_step_builds_no_preorder(monkeypatch, call):
    # generators are masks and every basic preorder comes from the memo,
    # so a call already made is answered without building a StringPreorder
    first = call()
    built = counting_preorder_builds(monkeypatch)
    assert call() == first
    assert built == []


@pytest.mark.parametrize("k, n", [(3, 7), (4, 8)])
def test_each_term_factors_itself_as_the_blocks_say(k, n):
    for d in range(3):
        for p in enumerate_admissible(k, n, d):
            masks = tuple(_factor_masks(n, admissible_blocks(p.levels, k)))
            assert _term_masks(p, k, n) == masks
            assert _term_masks(p, k, n) == masks  # read from the slot
            for other in range(3, n + 1):
                if other != k and d:
                    with pytest.raises(NotAdmissible):
                        _term_masks(p, other, n)
                    with pytest.raises(NotAdmissible):
                        normalize(p, other)


def test_witness_closure_refuses_a_closure_that_is_not_basic():
    # x_6 of (3, 7) is admissible but not basic; x_1 x_2 is zero
    with pytest.raises(CertificateFailure, match=r"\(1,2,3,4,5\)\[6,7\] closes to"):
        witness_closure([_x_masks(6, 3, 7)], 3, 7)
    with pytest.raises(CertificateFailure, match="closes to None"):
        witness_closure([_x_masks(1, 3, 7), _x_masks(2, 3, 7)], 3, 7)
    with pytest.raises(CertificateFailure):
        witness_closure([_x_masks(1, 3, 7), _x_masks(4, 3, 7, primed=True),
                         _x_masks(5, 3, 7)], 3, 7)
    assert witness_closure([_x_masks(1, 3, 7), _x_masks(4, 3, 7)], 3, 7) == cat_witness(3, 7)


@pytest.mark.parametrize("a, b", [
    (CohClass.unit(3, 5), CohClass.unit(3, 6)),
    (CohClass.unit(3, 6), CohClass.of(3, 6, [make_x(1, 3, 5)])),
])
def test_cup_rejects_classes_of_another_ring(a, b):
    with pytest.raises(AmbientMismatch):
        cup(a, b)


def level_factors(p, k):
    """The elementary factors of an admissible p, read off its levels: the
    i-th is (everything before J_i)[J_i](everything after). They must equal
    factor_admissible's, which derives them from the blocks' masks."""
    all_mask = (1 << p.n) - 1
    factors, before = [], 0
    for mask, full in p.levels:
        if full:
            factors.append(_assemble(p.n, [(before, False), (mask, True),
                                           (all_mask & ~before & ~mask, False)]))
        before |= mask
    assert factors == factor_admissible(p, k)
    return factors


def preorder_route_cup(a, b):
    """The cup product through preorders, term pair by term pair: factor
    into elementary preorders, close them with monomial_closure, normalize.
    Oracle for cup, which runs the same product on (I, J, K) masks."""
    k, n = a.k, a.n
    acc = set()
    for pa in a.terms:
        for pb in b.terms:
            mono = monomial_closure(level_factors(pa, k) + level_factors(pb, k), k, n)
            if mono is not None:
                acc ^= normalize(mono, k).terms
    return CohClass(k, n, frozenset(acc))


@pytest.mark.parametrize("k, n", [(3, 6), (3, 7), (3, 8), (4, 8), (4, 9)])
def test_cup_matches_the_preorder_route_on_seeded_pairs(k, n):
    rng = random.Random(k * 100 + n)
    top = n // (k - 1)

    def random_class():
        terms = [random_admissible(rng, k, n, rng.randint(0, top))
                 for _ in range(rng.randint(1, 3))]
        return CohClass.of(k, n, terms)

    non_basic = nonzero = 0
    for _ in range(150):
        a, b = random_class(), random_class()
        product = cup(a, b)
        assert product == preorder_route_cup(a, b), (a, b)
        non_basic += any(not classify(p, k).is_basic for p in a.terms | b.terms)
        nonzero += not product.is_zero
    assert non_basic > 50 and nonzero > 30


def test_cup_commutative_small():
    xs = [nf_x(m, 3, 7) for m in (1, 2, 4, 5)]
    for a in xs:
        for b in xs:
            assert cup(a, b).terms == cup(b, a).terms


def test_cup_squares_vanish():
    for m in (1, 2, 3):
        a = nf_x(m, 3, 6)
        assert cup(a, a).is_zero


def test_cup_length_examples():
    assert cup_length(3, 6) == 2
    assert cup_length(3, 7) == 2
    assert cup_length(4, 9) == 2
    assert cup_length(5, 5) == 1
    assert cup_length(3, 2) == 0


@pytest.mark.parametrize("k, n", [(2, 5), (3, 0), (0, 0)])
def test_cup_length_refuses_what_cat_formula_refuses(k, n):
    with pytest.raises(ParameterOutOfRange):
        cat_formula(k, n)
    with pytest.raises(ParameterOutOfRange):
        cup_length(k, n)


def test_cup_length_raises_when_the_grading_bound_fails(monkeypatch):
    monkeypatch.setattr(cohomology, "betti", lambda k, n, d: 1)
    with pytest.raises(CertificateFailure):
        cup_length(3, 7)
    r = invariant_report(3, 7, 2)
    cat = next(c for c in r.certificates if c.name == "cat_lower")
    assert (cat.value, cat.status) == (None, "fail")
    assert not r.all_agree


CHECK_UNDER_O = """
from nokequal import CertificateFailure, cohomology
assert False, "assert statements must be stripped"
cohomology.betti = lambda k, n, d: 1
try:
    cohomology.cup_length(3, 7)
except CertificateFailure:
    print("raised")
"""


def test_cup_length_certificate_survives_python_O():
    src = str(Path(nokequal.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", CHECK_UNDER_O],
                         env={"PYTHONPATH": src}, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "raised"


def test_cat_witness_matches_display():
    assert str(cat_witness(3, 6)) == "[1,2](3)[4,5](6)"
    assert str(cat_witness(3, 7)) == "[1,2](3)[4,5](6,7)"
    with pytest.raises(ParameterOutOfRange):
        cat_witness(3, 2)


# -- oracle agreement --------------------------------------------------------

def test_oracle_small_ranks():
    o = oracle_normal_form(3, 4, 1)
    assert (len(o.basis), o.consistent) == (7, True)
    o = oracle_normal_form(3, 5, 1)
    assert (len(o.basis), o.consistent) == (31, True)
    o = oracle_normal_form(3, 5, 2)
    assert (len(o.basis), o.consistent) == (0, True)


def test_oracle_rejects_high_degree():
    with pytest.raises(TooLarge):
        oracle_normal_form(3, 9, 3)


def test_oracle_respects_dimension_cap(monkeypatch):
    monkeypatch.setenv("NOKEQUAL_MAX_ORACLE_DIM", "10")
    with pytest.raises(TooLarge):
        oracle_normal_form(3, 5, 1)


@pytest.mark.parametrize("k, n", [(3, 7), (4, 9)])
def test_oracle_in_degree_3_is_consistent(k, n):
    # d = 3 > floor(n/k): every admissible is eliminated
    o = oracle_normal_form(k, n, 3)
    assert (o.basis, o.consistent, o.issues) == ([], True, [])
    assert o.rank == len(o.normal_form)


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
def test_oracle_rejects_a_malformed_cap(monkeypatch, raw):
    monkeypatch.setenv("NOKEQUAL_MAX_ORACLE_DIM", raw)
    with pytest.raises(ParameterOutOfRange):
        oracle_normal_form(3, 5, 1)


def test_normalize_agrees_with_oracle_at_3_6_2():
    o = oracle_normal_form(3, 6, 2)
    assert o.consistent
    for p in enumerate_admissible(3, 6, 2):
        assert normalize(p, 3).terms == o.normal_form[p]


def test_oracle_degree_zero():
    o = oracle_normal_form(3, 5, 0)
    assert o.basis == [parse_preorder("(1,2,3,4,5)")]


# -- ring identities ---------------------------------------------------------

def test_first_shift_identity():
    # x_2 x_{k+1} = x_1 x_{k+1}
    k, n = 3, 6
    assert cup(nf_x(2, k, n), nf_x(4, k, n)).terms == \
        cup(nf_x(1, k, n), nf_x(4, k, n)).terms


def test_boundary_products_vanish():
    # x_{n-2k+4} x_{n-k+2} = 0 = x_{n-2k+3} x_{n-k+2}
    k, n = 3, 7
    assert cup(nf_x(n - 2 * k + 4, k, n), nf_x(n - k + 2, k, n)).is_zero
    assert cup(nf_x(n - 2 * k + 3, k, n), nf_x(n - k + 2, k, n)).is_zero


@given(st.integers(4, 8), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_cup_associative_on_generators(n, m1, m2):
    k = 3
    if max(m1, m2) > n - k + 2:
        return
    a, b = nf_x(m1, k, n), nf_x(m2, k, n)
    c = nf_x(1, k, n)
    assert cup(cup(a, b), c).terms == cup(a, cup(b, c)).terms
