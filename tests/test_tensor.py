import inspect
import random
from itertools import permutations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from nokequal import cohomology, tensor
from nokequal.cohomology import CohClass, cup, normalize
from nokequal.errors import (
    AmbientMismatch,
    CertificateFailure,
    IndexOutOfRange,
    NotAdmissible,
    ParameterOutOfRange,
)
from nokequal.invariants import invariant_report, tcs_formula
from nokequal.preorder import classify, enumerate_basic, make_x, parse_preorder
from nokequal.tensor import (
    TensorClass,
    _structured_factors,
    _witness_coefficient,
    expected_witness_term,
    multiplication_image,
    p_witness,
    tensor_cup,
    witness_product,
    zcl_lower,
    zero_divisor,
)


def y(k, n, m):
    """The s=2 zero-divisor y_m = x_m⊗1 + 1⊗x_m."""
    return zero_divisor(k, n, m)


def test_y_expansion():
    assert str(y(3, 4, 1)) == "[1,2](3,4)⊗(1,2,3,4)+(1,2,3,4)⊗[1,2](3,4)"


def test_zero_divisor_slot_layout():
    z = zero_divisor(3, 5, 2, q=1, s=3)
    # x_2 in the first slot and x_2 in the last slot, units elsewhere
    assert len(z.terms) == 2
    for t in z.terms:
        degrees = [sum(full for _, full in p.levels) for p in t]
        assert sorted(degrees) == [0, 0, 1]
        assert degrees[1] == 0  # middle slot always the unit


def test_zero_divisor_kernel():
    for m in (1, 2, 3):
        assert multiplication_image(y(3, 5, m)).is_zero


def test_zero_divisor_outside_the_kernel_is_a_certificate_failure(monkeypatch):
    monkeypatch.setattr(tensor, "multiplication_image", lambda t: CohClass.unit(t.k, t.n))
    with pytest.raises(CertificateFailure, match="kernel"):
        y(3, 5, 1)


def pure(slots, k, n):
    """The tensor product of s cohomology classes, one per slot."""
    return TensorClass(k, n, len(slots), frozenset(iproduct(*(c.terms for c in slots))))


def swap(t):
    """t with the slots of every term reversed: the coordinate-switch
    involution."""
    return TensorClass(t.k, t.n, t.s, frozenset(u[::-1] for u in t.terms))


def reference_zero_divisor(k, n, m, q, s, primed):
    """z_{m,q} built from classes: x_m (x'_m) as a normalized CohClass,
    one pure tensor with it in slot q and one with it in slot s, added."""
    x = normalize(make_x(m, k, n, primed), k)
    one = CohClass.unit(k, n)
    first = pure([x if j == q else one for j in range(1, s + 1)], k, n)
    last = pure([x if j == s else one for j in range(1, s + 1)], k, n)
    return first + last


def test_zero_divisor_matches_the_class_construction():
    cases = 0
    for k in range(3, 10):
        for n in range(k, 10):
            for m in range(1, n - k + 3):
                for s in range(2, 5):
                    for q in range(1, s):
                        for primed in ((False, True) if m >= 2 else (False,)):
                            z = zero_divisor(k, n, m, q, s, primed)
                            ref = reference_zero_divisor(k, n, m, q, s, primed)
                            assert z == ref and hash(z) == hash(ref), (k, n, m, q, s, primed)
                            assert str(z) == str(ref)
                            cases += 1
    assert cases > 1000, cases


def test_zero_divisor_boundary_generator_is_normalized():
    # x_{n-k+2} is elementary but not basic; the class is rewritten first
    z = y(3, 5, 4)
    assert all(len(t) == 2 for t in z.terms)
    assert multiplication_image(z).is_zero


def test_zero_divisor_index_checks():
    with pytest.raises(IndexOutOfRange):
        zero_divisor(3, 4, 5)  # m + k > n + 2
    with pytest.raises(IndexOutOfRange):
        zero_divisor(3, 4, 1, q=2, s=2)


def test_y1_y2_nonzero_at_n4():
    prod = tensor_cup(y(3, 4, 1), y(3, 4, 2))
    rendered = str(prod)
    assert "(1)[2,3](4)⊗[1,2](3,4)" in rendered
    assert "[1,2](3,4)⊗(1)[2,3](4)" in rendered


def test_y1_squared_is_zero():
    a = y(3, 4, 1)
    assert tensor_cup(a, a).is_zero


def test_y1_y2_vanishes_at_n_equals_k():
    assert tensor_cup(y(3, 3, 1), y(3, 3, 2)).is_zero


def test_tensor_cup_rejects_a_non_admissible_term():
    bad = TensorClass(3, 4, 2, frozenset([(parse_preorder("[1,2,3](4)"),
                                           parse_preorder("(1,2,3,4)"))]))
    with pytest.raises(NotAdmissible, match=r"\[1,2,3\]\(4\)⊗\(1,2,3,4\)"):
        tensor_cup(bad, y(3, 4, 1))
    with pytest.raises(NotAdmissible):
        tensor_cup(y(3, 4, 1), bad)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        tensor_cup(y(3, 4, 1), y(3, 5, 1))


def test_swap_invariance_of_witness():
    w = witness_product(3, 7, 2, 2)
    assert swap(w).terms == w.terms


def test_witness_designated_term_3_7_2():
    w = witness_product(3, 7, 2, 2)
    assert expected_witness_term(3, 7, 2) in w.terms


def test_witness_designated_term_boundary_case():
    # n = ik: the alternating p-monomials replace the plain products
    w = witness_product(3, 6, 2, 2)
    p1, p2 = expected_witness_term(3, 6, 2)
    assert str(p1) == "[1,2](3)[4,5](6)"
    assert str(p2) == "[1,2](4)[3,5](6)"
    assert (p1, p2) in w.terms


def test_witness_higher_power_structure():
    w = witness_product(3, 6, 2, 3)
    assert w
    # first slot of every term carries the full plain product
    for t in w.terms:
        assert str(t[0]) == "[1,2](3)[4,5](6)"


def s2_witness_product(k, n, i):
    """The s = 2 body that witness_product had before it was folded into
    the general TC_s loop, kept as its oracle."""
    factors = []
    for j in range(1, i + 1):
        m = (j - 1) * k + 1
        factors.append(y(k, n, m))
        factors.append(y(k, n, m + 1))
    out = factors[0]
    for f in factors[1:]:
        out = tensor_cup(out, f)
        if out.is_zero:
            break
    return out


@pytest.mark.parametrize("k", [3, 4, 5])
def test_witness_at_s2_matches_the_y_product(k):
    for n in range(k, 2 * k + 4):
        for i in range(1, n // k + 1):
            assert witness_product(k, n, i, 2) == s2_witness_product(k, n, i), (k, n, i)


def test_witness_rejects_bad_parameters():
    with pytest.raises(ParameterOutOfRange):
        witness_product(3, 5, 2, 2)  # ik > n
    with pytest.raises(ParameterOutOfRange):
        witness_product(3, 6, 2, 1)


P123 = parse_preorder("(1)[2,3]")


@pytest.mark.parametrize("call", [
    # a str k or n, which does not compare with an int
    lambda: normalize(P123, "3"),
    lambda: classify(P123, "3"),
    lambda: CohClass.zero("3", 4),
    lambda: cohomology.monomial_closure([make_x(1, 3, 4)], 3, "4"),
    # a float k, which compares like an int
    lambda: normalize(P123, 3.0),
    lambda: classify(P123, 3.0),
    lambda: CohClass.of(3.0, 4, []),
    lambda: TensorClass.zero(3.0, 4, 2),
    # an s that is not an int >= 1
    lambda: TensorClass.zero(3, 4, "2"),
    lambda: TensorClass.unit(3, 6, 0),
    lambda: TensorClass.unit(3, 6, "2"),
])
def test_ring_parameters_that_are_not_ints_are_refused(call):
    with pytest.raises(ParameterOutOfRange):
        call()


@pytest.mark.parametrize("i", [0, -1])
def test_expected_witness_term_rejects_an_index_below_1(i):
    # an empty product would close to the unit pair, which certifies nothing
    with pytest.raises(ParameterOutOfRange):
        expected_witness_term(3, 7, i)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_witness_coefficient_matches_the_full_expansion(k):
    # 1 on every term of witness_product, 0 on seeded s-tuples of its slot
    # entries that are not terms; the designated term is a term.
    rng = random.Random(k)
    negatives = 0
    for s in (2, 3, 4):
        for n in range(k + 1, 4 * k + 1):
            i = n // k
            w = witness_product(k, n, i, s)
            term = expected_witness_term(k, n, i, s)
            assert len(term) == s and term in w.terms, (k, n, s)
            for t in w.terms:
                assert _witness_coefficient(k, n, i, s, t) == 1, (k, n, s, t)
            pool = sorted({p for t in w.terms for p in t}, key=lambda p: p.sort_key())
            for _ in range(10):
                t = tuple(rng.choice(pool) for _ in range(s))
                if t not in w.terms:
                    negatives += 1
                    assert _witness_coefficient(k, n, i, s, t) == 0, (k, n, s, t)
    assert negatives >= 100


def test_witness_coefficient_checks_that_the_pairs_vanish(monkeypatch):
    # a pair x_a x_{a+1} that closed to a nonzero product would let a double
    # put both its factors in one slot, outside the summed patterns
    monkeypatch.setattr(tensor, "_close", lambda n, masks: (((1 << n) - 1, False),))
    with pytest.raises(CertificateFailure, match="does not vanish"):
        zcl_lower(3, 7, 2)


def test_witness_coefficient_checks_that_the_singles_are_forced():
    # with i < floor(n/k) a single routed to slot s need not vanish
    term = expected_witness_term(3, 7, 1, 3)
    with pytest.raises(CertificateFailure, match="not forced"):
        _witness_coefficient(3, 7, 1, 3, term)
    assert _witness_coefficient(3, 7, 2, 3, expected_witness_term(3, 7, 2, 3)) == 1


@pytest.mark.parametrize("k,n,s", [(3, 7, 2), (3, 7, 3), (4, 9, 3), (3, 6, 4), (5, 11, 2)])
def test_zcl_lower_multiplies_no_tensor_product_above_n_equals_k(monkeypatch, k, n, s):
    # outside s = 2, k < n <= 2k (where the witness is also multiplied
    # out) the bound comes from the designated coefficient alone, and every
    # structured divisor is still built, so each one's kernel check runs
    built = []
    real = tensor.zero_divisor

    def counting(*args):
        built.append(args)
        return real(*args)

    def refuse(a, b):
        raise AssertionError("zcl_lower formed a tensor product")

    monkeypatch.setattr(tensor, "zero_divisor", counting)
    monkeypatch.setattr(tensor, "tensor_cup", refuse)
    assert zcl_lower(k, n, s) == s * (n // k)
    assert sorted(built) == sorted((k, n, m, q, s) for m, q in _structured_factors(k, n // k, s))


def _record_builds(monkeypatch):
    """Patch zero_divisor to append each call's full arguments, defaults
    applied, to the returned list."""
    built = []
    real = tensor.zero_divisor
    signature = inspect.signature(real)

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        built.append(tuple(bound.arguments.values()))
        return real(*args, **kwargs)

    monkeypatch.setattr(tensor, "zero_divisor", counting)
    return built


@pytest.mark.parametrize("k,n", [(3, n) for n in (4, 5, 6)] + [(4, n) for n in (5, 6, 7, 8)])
def test_zcl_lower_builds_each_divisor_once(monkeypatch, k, n):
    # zcl_lower builds each structured factor once and multiplies those
    # same divisors out for the s = 2 cross-check, building none of them a
    # second time; each build runs its kernel check
    built, checked = _record_builds(monkeypatch), []
    real_image = tensor.multiplication_image

    def checking(t):
        checked.append(t)
        return real_image(t)

    monkeypatch.setattr(tensor, "multiplication_image", checking)
    assert zcl_lower(k, n, 2) == 2 * (n // k)
    assert len(built) == len(set(built)) == len(checked)
    assert {(k, n, m, q, 2, False) for m, q in _structured_factors(k, n // k, 2)} <= set(built)


@pytest.mark.parametrize("k,n", [(k, n) for k in (3, 4, 5) for n in range(k + 1, 2 * k)])
def test_zcl_lower_builds_only_the_divisors_its_search_reaches(monkeypatch, k, n):
    # below n = 2k the structured witness is y_1 y_2, so zcl_lower builds
    # neither y_{n-k+2} nor y'_{n-k+2}, the last y-type divisors
    built = _record_builds(monkeypatch)
    assert zcl_lower(k, n, 2) == 2
    assert {(k, n, m, 1, 2, False) for m in (1, 2)} <= set(built)
    assert all(m != n - k + 2 for _, _, m, _, _, _ in built), built


def test_a_divisor_outside_the_kernel_fails_the_report(monkeypatch):
    monkeypatch.setattr(tensor, "multiplication_image", lambda t: CohClass.unit(t.k, t.n))
    (cert,) = [c for c in invariant_report(3, 6, 2).certificates if c.name == "zcl_lower"]
    assert cert.status == "fail" and cert.value is None
    assert cert.note == "zero-divisor escaped the kernel of multiplication"


def test_a_divisor_built_wrong_fails_the_report(monkeypatch):
    # zero_divisor keeps only its slot-q half, x_m (x) 1; the kernel check
    # itself is left as it is and sees x_m's image
    real = tensor.TensorClass

    def slot_q_half(k, n, s, terms):
        return real(k, n, s, frozenset(t for t in terms
                                       if not any(full for _, full in t[-1].levels)))

    monkeypatch.setattr(tensor, "TensorClass", slot_q_half)
    (cert,) = [c for c in invariant_report(3, 6, 2).certificates if c.name == "zcl_lower"]
    assert cert.status == "fail" and cert.value is None
    assert cert.note == "zero-divisor escaped the kernel of multiplication"


def test_p_witness_values():
    assert str(next(iter(p_witness(2, 1, 3, 6).terms))) == "[1,2](3)[4,5](6)"
    assert str(next(iter(p_witness(2, 2, 3, 6).terms))) == "[1,2](4)[3,5](6)"
    assert str(next(iter(p_witness(3, 1, 3, 9).terms))) == "[1,2](3)[4,5](7)[6,8](9)"


def test_witness_monomial_that_is_not_basic_is_a_certificate_failure(monkeypatch):
    monkeypatch.setattr(cohomology, "is_basic_block", lambda j_mask, i_mask: False)
    with pytest.raises(CertificateFailure):
        p_witness(2, 1, 3, 6)
    with pytest.raises(CertificateFailure):
        expected_witness_term(3, 7, 2)


def test_p_witness_requires_exact_multiple():
    with pytest.raises(ParameterOutOfRange):
        p_witness(2, 1, 3, 7)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_zcl_at_n_equals_k_drops_the_last_structured_factor(k, s):
    # the full structured product vanishes at n = k; without its last
    # factor z_{2,s-1} it is the chain z_{1,1}...z_{1,s-1}, of length s-1
    assert witness_product(k, k, 1, s).is_zero
    assert zcl_lower(k, k, s) == s - 1


@pytest.mark.parametrize("k, n, s", [(2, 1, 2), (3, 0, 2), (2, 5, 2), (0, 0, 3)])
def test_zcl_lower_refuses_what_tcs_formula_refuses(k, n, s):
    with pytest.raises(ParameterOutOfRange):
        tcs_formula(k, n, s)
    with pytest.raises(ParameterOutOfRange):
        zcl_lower(k, n, s)


def test_zcl_lower_values():
    assert zcl_lower(3, 7, 2) == 4
    assert zcl_lower(3, 4, 2) == 2
    assert zcl_lower(3, 6, 3) == 6
    assert zcl_lower(3, 3, 2) == 1
    assert zcl_lower(3, 2, 2) == 0
    assert zcl_lower(4, 4, 3) == 2


def _reference_tensor_cup(a, b):
    # Slotwise cup of every term pair, with no degree shortcut and no cache.
    k, n = a.k, a.n
    acc = set()
    for ta in a.terms:
        for tb in b.terms:
            slot_terms = [cup(CohClass.of(k, n, [pa]), CohClass.of(k, n, [pb])).terms
                          for pa, pb in zip(ta, tb)]
            for combo in iproduct(*slot_terms):
                acc ^= {combo}
    return TensorClass(k, n, a.s, frozenset(acc))


def _divisors(k, n, s):
    return [zero_divisor(k, n, m, q, s, primed)
            for m in range(1, n - k + 3)
            for primed in ((False, True) if m >= 2 else (False,))
            for q in range(1, s)]


@pytest.mark.parametrize("k,n,s", [(3, n, s) for n in range(4, 8) for s in (2, 3)]
                         + [(4, n, 2) for n in range(5, 9)])
def test_tensor_cup_matches_slotwise_reference(k, n, s):
    divisors = _divisors(k, n, s)
    for a in divisors:
        for b in divisors:
            assert tensor_cup(a, b).terms == _reference_tensor_cup(a, b).terms, (a, b)


def _reference_multiplication_image(t):
    # The slot-by-slot cup chain of each term, summed over the terms.
    k, n = t.k, t.n
    out = CohClass.zero(k, n)
    for tup in t.terms:
        prod = CohClass.of(k, n, [tup[0]])
        for p in tup[1:]:
            prod = cup(prod, CohClass.of(k, n, [p]))
        out = out + prod
    return out


def _broken_divisors(k, n, s):
    """Divisors built wrong on purpose, with the reference's classes: x_m in
    slot q with x'_m in slot s, and x_m in slot q alone."""
    one = CohClass.unit(k, n)
    for m in range(1, n - k + 3):
        x = normalize(make_x(m, k, n), k)
        for q in range(1, s):
            first = pure([x if j == q else one for j in range(1, s + 1)], k, n)
            yield first
            x_primed = normalize(make_x(m, k, n, True), k) if m >= 2 else x
            if x_primed != x:
                yield first + pure([x_primed if j == s else one for j in range(1, s + 1)], k, n)


@pytest.mark.parametrize("k,n,s", [(3, n, s) for n in range(3, 8) for s in (2, 3, 4)]
                         + [(4, n, s) for n in range(4, 10) for s in (2, 3)]
                         + [(5, 11, 3)])
def test_a_divisor_kernel_check_makes_no_product(monkeypatch, k, n, s):
    # the two halves of z_{m,q} join the same factor masks term by term, so
    # multiplication_image cancels every term before it multiplies; a
    # broken divisor leaves terms, and those are multiplied
    inside, checked, products = [], [], []
    real_image, real_product = tensor.multiplication_image, tensor._product

    def image(t):
        checked.append(t)
        inside.append(t)
        try:
            return real_image(t)
        finally:
            inside.pop()

    def counting(k, n, masks):
        if inside:
            products.append(inside[-1])
        return real_product(k, n, masks)

    monkeypatch.setattr(tensor, "multiplication_image", image)
    monkeypatch.setattr(tensor, "_product", counting)
    divisors = _divisors(k, n, s)
    assert len(checked) == len(divisors) and products == []
    for broken in _broken_divisors(k, n, s):
        assert image(broken)
        assert products and products[-1] is broken


def _seeded_pure_classes(rng, k, n, s, count):
    """Pure tensors of sums of up to three basic preorders, with slot
    degrees adding up to at most floor(n/k) so the image can be nonzero."""
    basics = {d: list(enumerate_basic(k, n, d)) for d in range(n // k + 1)}
    for _ in range(count):
        degrees = [0] * s
        for _ in range(rng.randint(1, n // k)):
            degrees[rng.randrange(s)] += 1
        slots = [CohClass.of(k, n, rng.sample(basics[d], min(3, len(basics[d]))))
                 for d in degrees]
        yield pure(slots, k, n)


@pytest.mark.parametrize("k,n,s", [(3, n, s) for n in (6, 7, 8) for s in (2, 3)]
                         + [(4, n, s) for n in (8, 9) for s in (2, 3)])
def test_multiplication_image_matches_the_slot_by_slot_chain(k, n, s):
    rng = random.Random(1000 * k + 10 * n + s)
    nonzero = 0
    for t in _seeded_pure_classes(rng, k, n, s, 30):
        image = multiplication_image(t)
        assert image == _reference_multiplication_image(t), str(t)
        nonzero += bool(image)
    assert nonzero >= 10
    for z in _divisors(k, n, s):
        assert multiplication_image(z) == _reference_multiplication_image(z)
    for t in _broken_divisors(k, n, s):
        image = multiplication_image(t)
        assert image and image == _reference_multiplication_image(t), str(t)


def _permuted_terms(rng, k, n, s, basics):
    """Slot permutations of one s-tuple, such as a(x)b + b(x)a: distinct
    terms whose joined factor masks agree up to order. The tuple's degrees
    add up to 2..floor(n/k), and it is redrawn, up to a point, until its
    entries' product is nonzero; an entry may repeat. A term may also hold
    in its first slot a basic term of that product, whose masks can be the
    same list again."""
    one = basics[0][0]
    for _ in range(20):
        degrees = [0] * s
        for _ in range(rng.randint(2, n // k)):
            degrees[rng.randrange(s)] += 1
        entries = [rng.choice(basics[d]) for d in degrees]
        masks = [m for p in entries for m in cohomology._term_masks(p, k, n)]
        closed = sorted(cohomology._product(k, n, masks), key=str)
        if closed:
            break
    perms = sorted(set(permutations(entries)), key=str)
    terms = set(rng.sample(perms, rng.randint(1, len(perms))))
    if closed and rng.random() < 0.5:
        terms ^= {(rng.choice(closed),) + (one,) * (s - 1)}
    return terms


def _seeded_permuted_classes(rng, k, n, s, count):
    """Sums of two sets of _permuted_terms."""
    basics = {d: list(enumerate_basic(k, n, d)) for d in range(n // k + 1)}
    for _ in range(count):
        terms = _permuted_terms(rng, k, n, s, basics) ^ _permuted_terms(rng, k, n, s, basics)
        yield TensorClass(k, n, s, frozenset(terms))


@pytest.mark.parametrize("k,n,s", [(3, n, s) for n in (6, 7, 9) for s in (2, 3)]
                         + [(4, n, s) for n in (8, 9) for s in (2, 3)])
def test_multiplication_image_cancels_permuted_mask_lists_exactly(k, n, s):
    rng = random.Random(7000 + 100 * k + 10 * n + s)
    zero = nonzero = 0
    for t in _seeded_permuted_classes(rng, k, n, s, 40):
        image = multiplication_image(t)
        assert image == _reference_multiplication_image(t), str(t)
        nonzero += bool(image)
        zero += len(t.terms) > 1 and not image
    assert nonzero >= 5 and zero >= 5, (nonzero, zero)


def test_tensor_class_refuses_a_ring_outside_the_range():
    for k, n in ((4, 3), (2, 5), (3, 65)):
        with pytest.raises(ParameterOutOfRange):
            TensorClass.zero(k, n, 2)


def _unpruned_zcl(k, n):
    # Exhaustive search over products of y-type divisors, with squares and
    # every length expanded, for n <= 2k, s=2: the oracle for zcl_lower.
    divisors = _divisors(k, n, 2)
    best = 0
    stack = [(d, j, 1) for j, d in enumerate(divisors)]
    while stack:
        prod, j, depth = stack.pop()
        if prod.is_zero:
            continue
        best = max(best, depth)
        for j2 in range(j, len(divisors)):
            nxt = tensor_cup(prod, divisors[j2])
            if nxt:
                stack.append((nxt, j2, depth + 1))
    return best


@pytest.mark.parametrize("k,n", [(k, n) for k in (3, 4, 5) for n in range(k + 1, 2 * k + 1)])
def test_pruned_zcl_search_matches_unpruned(k, n):
    assert zcl_lower(k, n, 2) == _unpruned_zcl(k, n) == 2 * (n // k)


@pytest.mark.parametrize("k,n", [(3, 6), (4, 8), (5, 10), (6, 12)])
def test_zcl_search_stops_at_the_bound(monkeypatch, k, n):
    # at n = 2k the s = 2 cross-check multiplies out the structured witness
    # y_1 y_2 y_{k+1} y_{k+2}: its four divisors are all zcl_lower builds,
    # and 2i - 1 = 3 products reach the bound
    built = _record_builds(monkeypatch)
    calls = []
    real = tensor.tensor_cup

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(tensor, "tensor_cup", counting)
    assert zcl_lower(k, n, 2) == 2 * (n // k)
    assert len(calls) == 2 * (n // k) - 1
    assert built == [(k, n, m, 1, 2, False) for m, _ in _structured_factors(k, n // k, 2)]


@pytest.mark.parametrize("k,n", [(3, 4), (3, 6), (4, 7), (4, 8), (5, 10)])
def test_zcl_lower_fails_when_the_structured_witness_expands_to_zero(monkeypatch, k, n):
    # every product whose right factor is the last structured divisor is
    # set to zero, so the structured witness expands to zero while its
    # designated coefficient is still 1: the two derivations disagree, and
    # no other product of divisors may stand in for the witness
    *_, (m, q) = _structured_factors(k, n // k, 2)
    last = zero_divisor(k, n, m, q, 2)
    real = tensor.tensor_cup
    dropped = []

    def without_last(a, b):
        if b == last:
            dropped.append(a)
            return TensorClass.zero(k, n, 2)
        return real(a, b)

    monkeypatch.setattr(tensor, "tensor_cup", without_last)
    with pytest.raises(CertificateFailure, match="unexpectedly vanished"):
        zcl_lower(k, n, 2)
    assert dropped


@pytest.mark.parametrize("k,n", [(k, n) for k in (3, 4) for n in range(k + 1, 2 * k + 1)])
def test_zcl_search_runs_to_the_end_when_the_bound_is_unreachable(monkeypatch, k, n):
    # Every product of cap factors is set to zero, so the longest nonzero
    # product has cap - 1 factors, and the structured witness, of cap
    # factors, expands to zero.
    cap = 2 * (n // k)
    real = tensor.tensor_cup

    def capped(a, b):
        prod = real(a, b)
        if any(sum(classify(p, k).d for p in t) == cap for t in prod.terms):
            return TensorClass.zero(k, n, 2)
        return prod

    monkeypatch.setattr(tensor, "tensor_cup", capped)
    monkeypatch.setitem(globals(), "tensor_cup", capped)
    assert _unpruned_zcl(k, n) == cap - 1
    with pytest.raises(CertificateFailure):
        zcl_lower(k, n, 2)


def test_zcl_search_disagreement_is_a_certificate_failure(monkeypatch):
    monkeypatch.setattr(tensor, "_chain", lambda divisors: TensorClass.zero(3, 5, 2))
    with pytest.raises(CertificateFailure, match="unexpectedly vanished"):
        zcl_lower(3, 5, 2)


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_tensor_cup_commutes_with_swap(m1, m2):
    a, b = y(3, 5, m1), y(3, 5, m2)
    prod = tensor_cup(a, b)
    assert tensor_cup(swap(a), swap(b)).terms == swap(prod).terms


@given(st.integers(2, 4))
@settings(max_examples=10, deadline=None)
def test_degree_bound_kills_overlong_products(extra):
    # floor(7/3) = 2 blocks per slot at most
    prod = witness_product(3, 7, 2, 2)
    more = tensor_cup(prod, y(3, 7, extra))
    assert more.is_zero
