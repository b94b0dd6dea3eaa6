"""Tensor powers of the cohomology ring, zero-divisors, witness products.

A TensorClass is a GF(2) sum of s-tuples of basic preorders (the tensor
basis). Products of zero-divisors built here certify the lower bounds for
topological complexity and its higher analogues.
"""

from __future__ import annotations

from itertools import product as iproduct

from .cohomology import (
    CohClass,
    _close,
    _nf,
    _product,
    _term_masks,
    witness_closure,
)
from .errors import (
    AmbientMismatch,
    CertificateFailure,
    IndexOutOfRange,
    NotAdmissible,
    ParameterOutOfRange,
)
from .preorder import (
    Record,
    StringPreorder,
    _set,
    _x_masks,
    check_domain,
    check_ints,
    check_ring,
    check_s,
)

TENSOR_SIGN = "⊗"


class TensorClass(Record):
    """GF(2) linear combination of s-tuples of basic preorders; 3 <= k <= n <= 64."""

    __slots__ = ("k", "n", "s", "terms")

    def __init__(self, k: int, n: int, s: int, terms: frozenset[tuple[StringPreorder, ...]]):
        check_ring(k, n)
        if type(s) is not int:
            check_ints(s=s)
        if s < 1:
            raise ParameterOutOfRange(f"tensor power s={s} is not >= 1")
        for t in terms:
            if len(t) != s:
                raise AmbientMismatch(f"term of length {len(t)} in power {s}")
        _set(self, "k", k)
        _set(self, "n", n)
        _set(self, "s", s)
        _set(self, "terms", terms)

    @classmethod
    def zero(cls, k: int, n: int, s: int) -> "TensorClass":
        return cls(k, n, s, frozenset())

    @classmethod
    def unit(cls, k: int, n: int, s: int) -> "TensorClass":
        if type(s) is not int:
            check_ints(s=s)
        (one,) = CohClass.unit(k, n).terms
        return cls(k, n, s, frozenset([(one,) * s]))

    def __add__(self, other: "TensorClass") -> "TensorClass":
        if (self.k, self.n, self.s) != (other.k, other.n, other.s):
            raise AmbientMismatch("tensor classes live in different rings")
        return TensorClass(self.k, self.n, self.s, self.terms ^ other.terms)

    def __mul__(self, other: "TensorClass") -> "TensorClass":
        return tensor_cup(self, other)

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keyed = sorted(self.terms, key=lambda t: tuple(p.sort_key() for p in t))
        return "+".join(TENSOR_SIGN.join(str(p) for p in t) for t in keyed)


def zero_divisor(k: int, n: int, m: int, q: int = 1, s: int = 2,
                 primed: bool = False) -> TensorClass:
    """The zero-divisor z_{m,q}: x_m in slot q plus x_m in slot s, with
    x'_m in both slots when primed; the same class in both slots puts z in
    the kernel of multiplication. For s=2, q=1 this is y_m = x_m⊗1 + 1⊗x_m.

    Built in one pass from the normal-form memo: x_m's basic terms are
    _product of its masks (_x_masks), the unit's one term is _nf's, and the
    s-tuples (each term of x_m in slot q, then in slot s, the unit in every
    other slot) form the TensorClass directly. The two halves share no
    tuple, since x_m's terms have degree 1, so their union is their GF(2)
    sum. Every call checks that z lies in the kernel of multiplication
    (multiplication_image) and raises CertificateFailure otherwise. The
    check costs no normal form when z is right: its two halves join the
    same factor masks term by term, and multiplication_image cancels equal
    mask lists before it multiplies; any construction whose halves differ
    leaves a list to multiply, and the check sees its product. _x_masks
    checks m (IndexOutOfRange)."""
    if (type(k) is not int or type(n) is not int or type(m) is not int
            or type(q) is not int or type(s) is not int):
        check_ints(k=k, n=n, m=m, q=q, s=s)
    if not 1 <= q <= s - 1:
        raise IndexOutOfRange(f"slot q={q} outside 1..{s - 1}")
    # x_{n-k+2} is elementary but not basic; its normal form is a sum
    x_terms = _product(k, n, [_x_masks(m, k, n, primed)])
    (one,) = _nf(k, n, (((1 << n) - 1, False),))
    before, between, units = (one,) * (q - 1), (one,) * (s - 1 - q), (one,) * (s - 1)
    z = TensorClass(k, n, s, frozenset([
        t for x in x_terms for t in (before + (x,) + between + (one,), units + (x,))]))
    if multiplication_image(z):
        raise CertificateFailure("zero-divisor escaped the kernel of multiplication")
    return z


def tensor_cup(a: TensorClass, b: TensorClass) -> TensorClass:
    """Slotwise cup product (no signs over GF(2)), bilinear over terms.

    Each preorder's factor masks come from _term_masks, which does the
    checks; their count is its slot degree, and a slot product is one
    _product over two factor lists. Raises NotAdmissible, naming the whole
    term, when a term holds a non-admissible preorder.
    """
    if (a.k, a.n, a.s) != (b.k, b.n, b.s):
        raise AmbientMismatch("tensor classes live in different rings")
    k, n, s = a.k, a.n, a.s
    cap = n // k

    def slot_masks(t: tuple[StringPreorder, ...]) -> list:
        try:
            return [_term_masks(p, k, n) for p in t]
        except NotAdmissible:
            raise NotAdmissible(f"term {TENSOR_SIGN.join(map(str, t))} "
                                f"is not admissible for k={k}") from None

    a_masks = [slot_masks(t) for t in a.terms]
    b_masks = [slot_masks(t) for t in b.terms]
    acc: set[tuple[StringPreorder, ...]] = set()
    for fa in a_masks:
        for fb in b_masks:
            # degree bound per slot: more than floor(n/k) blocks is zero
            if any(len(x) + len(y) > cap for x, y in zip(fa, fb)):
                continue
            slot_terms = [_product(k, n, x + y) for x, y in zip(fa, fb)]
            if not all(slot_terms):
                continue
            for combo in iproduct(*slot_terms):
                acc ^= {combo}
    return TensorClass(k, n, s, frozenset(acc))


def multiplication_image(t: TensorClass) -> CohClass:
    """Image under the s-fold cup multiplication map H^{⊗s} -> H.

    A term's image is the _product of its slots' factor masks joined
    (_term_masks checks each slot's preorder). That product depends only on
    the multiset of masks, since _close sorts them, so each term is keyed by
    its sorted joined masks and equal keys cancel in pairs over GF(2) before
    anything is multiplied: one _product runs per key left with an odd
    count. This holds for every TensorClass; a zero-divisor z_{m,q} leaves
    no key at all."""
    k, n = t.k, t.n
    keys: set[tuple[tuple[int, int, int], ...]] = set()
    for tup in t.terms:
        masks: list[tuple[int, int, int]] = []
        for p in tup:
            masks += _term_masks(p, k, n)
        keys ^= {tuple(sorted(masks))}
    acc: set[StringPreorder] = set()
    for masks in keys:
        acc ^= _product(k, n, masks)
    return CohClass(k, n, frozenset(acc))


def _structured_factors(k: int, i: int, s: int) -> list[tuple[int, int]]:
    """Indices (m, q) of the structured witness's zero-divisors z_{m,q}: the
    singles z_{(j-1)k+1,q} for q = 1..s-2, then the slot-(s-1) doubles
    z_{(j-1)k+1,s-1} z_{(j-1)k+2,s-1}, for j = 1..i."""
    singles = [((j - 1) * k + 1, q) for q in range(1, s - 1) for j in range(1, i + 1)]
    doubles = [((j - 1) * k + off, s - 1) for j in range(1, i + 1) for off in (1, 2)]
    return singles + doubles


def _chain(divisors: list[TensorClass]) -> TensorClass:
    """Product of the divisors listed, left to right, stopping at zero."""
    out = divisors[0]
    for z in divisors[1:]:
        out = tensor_cup(out, z)
        if out.is_zero:
            break
    return out


def _check_witness_index(k: int, n: int, i: int, s: int) -> None:
    """The parameters of a structured witness: ints with 1 <= i, ik <= n
    and s >= 2 (ParameterOutOfRange)."""
    if type(k) is not int or type(n) is not int or type(i) is not int or type(s) is not int:
        check_ints(k=k, n=n, i=i, s=s)
    if i < 1 or i * k > n or s < 2:
        raise ParameterOutOfRange(f"need 1 <= i, ik <= n, s >= 2; got i={i}, s={s}")


def witness_product(k: int, n: int, i: int, s: int = 2) -> TensorClass:
    """The structured product of s*i zero-divisors (_structured_factors),
    fully normalized; for s=2 it is prod_j y_{(j-1)k+1} y_{(j-1)k+2}.
    Factors are multiplied left-to-right so that zero terms are pruned as
    early as possible.
    """
    _check_witness_index(k, n, i, s)
    return _chain([zero_divisor(k, n, m, q, s) for m, q in _structured_factors(k, i, s)])


def p_witness(i: int, variant: int, k: int, n: int) -> CohClass:
    """The alternating witness monomial p_{i,1} or p_{i,2} when n = ik.

    Even i=2a: x_1 (x_{k+1} x'_{2k+1} ... x_{(2a-3)k+1} x'_{(2a-2)k+1})
    x_{(2a-1)k+1}; odd i=2a+1 keeps the full alternating run. Variant 2
    swaps primed and unprimed throughout (x_1 stays unprimed).
    """
    if (type(i) is not int or type(variant) is not int or type(k) is not int
            or type(n) is not int):
        check_ints(i=i, variant=variant, k=k, n=n)
    if variant not in (1, 2):
        raise ParameterOutOfRange("variant must be 1 or 2")
    if i < 2 or i * k != n:
        raise ParameterOutOfRange(f"p witnesses need i >= 2 and ik = n; got i={i}, n={n}")
    swap = variant == 2
    factors = [_x_masks(1, k, n)]
    a, odd = divmod(i, 2)
    top = a if odd else a - 1
    for j in range(1, top + 1):
        factors.append(_x_masks((2 * j - 1) * k + 1, k, n, primed=swap))
        factors.append(_x_masks(2 * j * k + 1, k, n, primed=not swap))
    if not odd:
        factors.append(_x_masks((2 * a - 1) * k + 1, k, n, primed=swap))
    return CohClass.of(k, n, [witness_closure(factors, k, n)])


def expected_witness_term(k: int, n: int, i: int, s: int = 2) -> tuple[StringPreorder, ...]:
    """The designated tensor basis element of the structured witness product:
    m_0 = prod x_{(j-1)k+1} in slots 1..s-2, then m_0⊗m_1 with
    m_1 = prod x_{(j-1)k+2} when ik < n, else p_{i,1}⊗p_{i,2}."""
    _check_witness_index(k, n, i, s)

    def closure(off: int) -> StringPreorder:
        return witness_closure([_x_masks((j - 1) * k + off, k, n) for j in range(1, i + 1)],
                               k, n)

    m0 = closure(1)
    if i * k < n:
        return (m0,) * (s - 1) + (closure(2),)
    (p1,) = p_witness(i, 1, k, n).terms
    (p2,) = p_witness(i, 2, k, n).terms
    return (m0,) * (s - 2) + (p1, p2)


def _witness_coefficient(k: int, n: int, i: int, s: int,
                         term: tuple[StringPreorder, ...]) -> int:
    """Coefficient of the s-tuple of basic terms `term` in
    witness_product(k, n, i, s), read from factor masks: no TensorClass
    product is built.

    Expanding each factor z_{m,q} routes x_m either to slot q or to slot s,
    and the coefficient is the GF(2) number of routings whose slot products
    all contain the term's entries. With a_j = (j-1)k+1, two facts cut the
    routings to 2^i, and each is checked here (CertificateFailure when it
    fails):
    - the pairs vanish: x_{a_j} x_{a_j+1} = 0, so the double
      z_{a_j,s-1} z_{a_j+1,s-1} puts one factor in slot s-1 and the other
      in slot s, and slot s holds i factors from the doubles;
    - the singles are forced: a single z_{a_j,q} routed to slot s would
      give it i+1 > floor(n/k) factors, a vanishing degree, so every single
      stays in its slot q, and each of the slots 1..s-2 is the one product
      prod_j x_{a_j}.
    What is left is summed exactly over eps in {0,1}^i: slot s-1 holds
    prod_j x_{a_j+eps_j} and slot s prod_j x_{a_j+1-eps_j}; the slot-s
    product is formed only when slot s-1 contains its entry.
    """
    lo, hi = ([_x_masks((j - 1) * k + off, k, n) for j in range(1, i + 1)]
              for off in (1, 2))
    for j, pair in enumerate(zip(lo, hi)):
        if _close(n, pair) is not None:
            a = j * k + 1
            raise CertificateFailure(f"x_{a} x_{a + 1} does not vanish: a double "
                                     "can put both its factors in one slot")
    if s > 2:
        if i + 1 <= n // k:
            raise CertificateFailure(f"a single in slot {s} gives it {i + 1} <= "
                                     f"floor(n/k) = {n // k} factors: singles are not forced")
        singles = _product(k, n, lo)
        if any(t not in singles for t in term[:-2]):
            return 0
    first, last = term[-2:]
    coeff = 0
    for eps in iproduct((False, True), repeat=i):
        if first in _product(k, n, [h if e else l for l, h, e in zip(lo, hi, eps)]):
            coeff ^= last in _product(k, n, [l if e else h for l, h, e in zip(lo, hi, eps)])
    return coeff


def zcl_lower(k: int, n: int, s: int = 2) -> int:
    """Certified lower bound for the s-th zero-divisor cup-length.

    The domain is that of the closed forms, k >= 3 and n >= 1; cells with
    n < k are contractible and give 0. Every other bound is the length of
    a nonzero product of structured factors (_structured_factors). Each
    one is built once by zero_divisor, so each one's kernel check runs.

    For n > k the product is all s*i of them, i = floor(n/k), and it is
    certified nonzero by one coefficient: that of the designated term
    (m_0, ..., m_0, t_{s-1}, t_s) of expected_witness_term, which
    _witness_coefficient reads from factor masks without expanding the
    product. It checks that the pairs x_{a_j} x_{a_j+1} vanish (so each
    double splits between slots s-1 and s) and that the singles are forced
    into their own slots by the degree bound, then sums the last two slots
    exactly over the 2^i patterns; the sum must be 1.

    For n = k the full list vanishes; all but its last factor z_{2,s-1}
    leaves the chain z_{1,1}...z_{1,s-1}, which is multiplied out.

    For s = 2 and k < n <= 2k the same divisors are also multiplied out
    (_chain, the route of witness_product), a second derivation of the
    bound: the expansion must be nonzero too. There it takes 2i - 1 <= 3
    tensor products. The guard stays
    because the expansion's cost grows with i and s, which is what reading
    one coefficient avoids: cold, it costs more than the rest of zcl_lower
    in every larger cell measured, about twice as much at (3, 24, 2) and
    twelve times at (3, 12, 4). CertificateFailure is raised when any of
    these checks fails.
    """
    check_s(s)
    check_domain(k, n)
    if n < k:
        return 0
    i = n // k
    factors = _structured_factors(k, i, s)
    if n == k:
        factors.pop()
    divisors = [zero_divisor(k, n, m, q, s) for m, q in factors]
    if n > k:
        term = expected_witness_term(k, n, i, s)
        if _witness_coefficient(k, n, i, s, term) != 1:
            raise CertificateFailure(
                f"the coefficient of {TENSOR_SIGN.join(map(str, term))} in the "
                "structured witness product vanished")
    if (n == k or s == 2 and n <= 2 * k) and not _chain(divisors):
        raise CertificateFailure("structured witness product unexpectedly vanished")
    return len(divisors)
