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
    """The zero-divisor z_{m,q}: x_m (x'_m when primed) in slot q plus x_m
    in slot s. For s=2, q=1 this is y_m = x_m⊗1 + 1⊗x_m.

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
    leaves a list to multiply, and the check sees its product."""
    if (type(k) is not int or type(n) is not int or type(m) is not int
            or type(q) is not int or type(s) is not int):
        check_ints(k=k, n=n, m=m, q=q, s=s)
    if not 1 <= q <= s - 1:
        raise IndexOutOfRange(f"slot q={q} outside 1..{s - 1}")
    if m + k > n + 2:
        raise IndexOutOfRange(f"m={m} needs m+k <= n+2")
    # x_{n-k+2} is elementary but not basic; its normal form is a sum
    x_terms = _product(k, n, [_x_masks(m, k, n, primed)])
    (one,) = _nf(k, n, (((1 << n) - 1, False),))
    before, between, units = (one,) * (q - 1), (one,) * (s - 1 - q), (one,) * (s - 1)
    z = TensorClass(k, n, s, frozenset([
        t for x in x_terms for t in (before + (x,) + between + (one,), units + (x,))]))
    if multiplication_image(z):
        raise CertificateFailure("zero-divisor escaped the kernel of multiplication")
    return z


def y(k: int, n: int, m: int, primed: bool = False) -> TensorClass:
    """The s=2 zero-divisor y_m = x_m⊗1 + 1⊗x_m."""
    return zero_divisor(k, n, m, primed=primed)


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


def _chain(k: int, n: int, s: int, factors: list[tuple[int, int]]) -> TensorClass:
    """Product of the zero-divisors z_{m,q} listed, left to right, stopping
    at zero; every divisor is built first, so each one's kernel check runs."""
    divisors = [zero_divisor(k, n, m, q, s) for m, q in factors]
    out = divisors[0]
    for z in divisors[1:]:
        out = tensor_cup(out, z)
        if out.is_zero:
            break
    return out


def witness_product(k: int, n: int, i: int, s: int = 2) -> TensorClass:
    """The structured product of s*i zero-divisors (_structured_factors),
    fully normalized; for s=2 it is prod_j y_{(j-1)k+1} y_{(j-1)k+2}.
    Factors are multiplied left-to-right so that zero terms are pruned as
    early as possible.
    """
    if type(k) is not int or type(n) is not int or type(i) is not int or type(s) is not int:
        check_ints(k=k, n=n, i=i, s=s)
    if i < 1 or i * k > n or s < 2:
        raise ParameterOutOfRange(f"need 1 <= i, ik <= n, s >= 2; got i={i}, s={s}")
    return _chain(k, n, s, _structured_factors(k, i, s))


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
    if type(k) is not int or type(n) is not int or type(i) is not int or type(s) is not int:
        check_ints(k=k, n=n, i=i, s=s)
    if i < 1 or i * k > n or s < 2:
        raise ParameterOutOfRange(f"need 1 <= i, ik <= n, s >= 2; got i={i}, s={s}")

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


def _exhaustive_zcl(k: int, n: int) -> int:
    """Longest nonzero product of distinct y-type zero-divisors, s=2.

    The search runs over products y_{m_1} ... y_{m_r} of distinct
    divisors from y_m (1 <= m <= n-k+2) and y'_m (m >= 2), taken in one
    fixed order: the structured factors z_{m,1} of
    _structured_factors(k, n // k, 2), on which zcl_lower's certificate
    rests, then every other divisor in increasing index order. Squares are
    skipped: over GF(2) y_m^2 = x_m^2 (x) 1 + 1 (x) x_m^2, and x_m^2 = 0,
    so a product with a repeated factor is zero. No product of more than
    cap = 2*floor(n/k) factors is nonzero: each factor adds one block to
    one slot and a slot holds at most floor(n/k) blocks.

    The search is depth-first: it multiplies the current product by the
    next divisor in that order, descends into that product at once if it
    is nonzero, and backtracks when no divisor is left. It returns cap as
    soon as some product of cap factors is nonzero. No order can change
    the value: any fixed order enumerates each set of distinct divisors
    once (the product is commutative over GF(2)), a zero product stays
    zero when extended, so pruning it is sound, and no product is longer
    than cap, so stopping there gives the value a full search would. When
    no product reaches cap, the search runs to the end and returns the
    true maximum. The order only decides which product is found first: at
    n = 2k it is the structured witness y_1 y_2 y_{k+1} y_{k+2}, after
    three products.

    The structured factors are built first. Every other divisor is built
    the first time the search multiplies by it, so each divisor is built,
    and kernel-checked, at most once per call; a search that stops at cap
    never builds the divisors it does not reach, and one that runs to the
    end builds them all.
    """
    structured = [(m, False) for m, _ in _structured_factors(k, n // k, 2)]
    ms = structured + [(m, primed)
                       for m in range(1, n - k + 3)
                       for primed in ((False, True) if m >= 2 else (False,))
                       if (m, primed) not in structured]
    divisors: list[TensorClass | None] = [y(k, n, m) for m, _ in structured]
    divisors += [None] * (len(ms) - len(divisors))
    cap = 2 * (n // k)
    best = 0
    # path holds (product, index of its last factor) for each depth
    path: list[tuple[TensorClass, int]] = []
    j = 0
    while True:
        if j < len(divisors):
            z = divisors[j]
            if z is None:
                z = divisors[j] = y(k, n, *ms[j])
            prod = tensor_cup(path[-1][0], z) if path else z
            if prod:
                path.append((prod, j))
                best = max(best, len(path))
                if best == cap:
                    return best
            j += 1
        elif path:
            j = path.pop()[1] + 1
        else:
            return best


def zcl_lower(k: int, n: int, s: int = 2) -> int:
    """Certified lower bound for the s-th zero-divisor cup-length.

    The domain is that of the closed forms, k >= 3 and n >= 1; cells with
    n < k are contractible and give 0. Every other bound is backed by a
    nonzero product of the structured factors (_structured_factors), each
    built by zero_divisor, so each one's kernel check runs. Each divisor
    is built at most once per call: where the exhaustive search below runs,
    it builds the structured factors first and any other y_m or y'_m only
    when it first multiplies by it, and nothing is built a second time.

    For n > k the product is all s*i of them, i = floor(n/k), and it is
    certified nonzero by one coefficient: that of the designated term
    (m_0, ..., m_0, t_{s-1}, t_s) of expected_witness_term, which
    _witness_coefficient reads from factor masks without expanding the
    product. It checks that the pairs x_{a_j} x_{a_j+1} vanish (so each
    double splits between slots s-1 and s) and that the singles are forced
    into their own slots by the degree bound, then sums the last two slots
    exactly over the 2^i patterns; the sum must be 1. witness_product, the
    full expansion, is kept for display (nokequal witness) and as the
    tests' oracle for this coefficient.

    For n = k the full list vanishes; all but its last factor z_{2,s-1}
    leaves the chain z_{1,1}...z_{1,s-1}, which is multiplied out.

    For s = 2 and k < n <= 2k, an exhaustive search over products of
    distinct y-type divisors (_exhaustive_zcl) derives the bound a second
    way. It can find no more than 2*floor(n/k) factors, by the slot degree
    bound, and no fewer, since its divisors include every factor of the
    structured witness; so the two must be equal. The search is depth-first,
    over the structured factors first and then the other divisors in
    ascending order, and returns at the first nonzero product of
    2*floor(n/k) factors. No order can change its value: each set of
    distinct divisors is tried once, a zero product stays zero when
    extended, and no product is longer than the bound, so stopping there
    gives the value a full search would; a search that never reaches the
    bound runs to the end and reports its true maximum, which then fails
    the comparison. The search stays a second derivation: the certificate
    reads one coefficient from masks, and the search expands its products
    in full. CertificateFailure is raised when any of these checks fails.
    """
    check_s(s)
    check_domain(k, n)
    if n < k:
        return 0
    if n == k:
        if not _chain(k, n, s, _structured_factors(k, 1, s)[:-1]):
            raise CertificateFailure("structured witness product unexpectedly vanished")
        return s - 1
    i = n // k
    searched = s == 2 and n <= 2 * k
    if not searched:
        # when the search below runs, it builds these itself, first
        for m, q in _structured_factors(k, i, s):
            zero_divisor(k, n, m, q, s)
    term = expected_witness_term(k, n, i, s)
    if _witness_coefficient(k, n, i, s, term) != 1:
        raise CertificateFailure(
            f"the coefficient of {TENSOR_SIGN.join(map(str, term))} in the "
            "structured witness product vanished")
    bound = s * i
    if searched:
        found = _exhaustive_zcl(k, n)
        if found != bound:
            raise CertificateFailure(
                f"exhaustive zero-divisor search gives {found}, "
                f"structured witness gives {bound}")
    return bound
