"""The GF(2) cohomology ring of the no-k-equal configuration space.

Classes are stored as GF(2) sums of basic preorders (the additive basis);
addition is symmetric difference of term sets. A product of elementary
generators is canonically represented by its closure, which is either
admissible (every Full block of size k-1) or zero.
"""

from __future__ import annotations

import os
from math import comb
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatch,
    CertificateFailure,
    NotAdmissible,
    NotElementary,
    ParameterOutOfRange,
    TooLarge,
)
from .preorder import (
    Record,
    StringPreorder,
    _assemble,
    _set,
    _block_parts,
    _factor_masks,
    _x_masks,
    admissible_blocks,
    check_degree_params,
    check_domain,
    check_ring,
    count_admissible,
    enumerate_admissible,
    is_basic_block,
    make_preorder,
    set_bits,
)

DEFAULT_ORACLE_CAP = 100_000


class CohClass(Record):
    """GF(2) linear combination of basic preorders; 3 <= k <= n <= 64."""

    __slots__ = ("k", "n", "terms")

    def __init__(self, k: int, n: int, terms: frozenset[StringPreorder]):
        check_ring(k, n)
        _set(self, "k", k)
        _set(self, "n", n)
        _set(self, "terms", terms)

    @classmethod
    def zero(cls, k: int, n: int) -> "CohClass":
        return cls(k, n, frozenset())

    @classmethod
    def of(cls, k: int, n: int, preorders: Iterable[StringPreorder]) -> "CohClass":
        return cls(k, n, frozenset(preorders))

    @classmethod
    def unit(cls, k: int, n: int) -> "CohClass":
        """The class of the discrete preorder (1..n), the memo's basic term."""
        check_ring(k, n)
        return cls(k, n, _nf(k, n, (((1 << n) - 1, False),)))

    def __add__(self, other: "CohClass") -> "CohClass":
        if (self.k, self.n) != (other.k, other.n):
            raise AmbientMismatch("classes live in different rings")
        return CohClass(self.k, self.n, self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "+".join(str(t) for t in sorted(self.terms, key=lambda t: t.sort_key()))


def monomial_closure(factors: Sequence[StringPreorder], k: int, n: int):
    """Closure of a product of elementary generators.

    Returns the admissible closure (one Full block per factor), or None when
    the product is zero. Checks the ring (ParameterOutOfRange) and each
    factor (AmbientMismatch, NotElementary), takes its masks from the
    factor's own factorization, and closes them with _close, as the product
    path of cup does.
    """
    check_ring(k, n)
    masks = []
    for f in factors:
        if f.n != n:
            raise AmbientMismatch("factor has wrong ambient size")
        factored = f._factored()
        if factored is None or factored[0] != k - 1 or len(factored[1]) != 1:
            raise NotElementary(f"{f} is not elementary for k={k}")
        masks += factored[1]
    levels = _close(n, masks)
    return None if levels is None else make_preorder(n, levels)


def witness_closure(masks: Sequence[tuple[int, int, int]], k: int, n: int) -> StringPreorder:
    """Closure of a witness monomial, given by the (I, J, K) masks of its
    factors (_x_masks), checked to be a basic preorder (a basis element,
    hence a nonzero class); CertificateFailure otherwise. The preorder is
    the normal-form memo's one for that closure, built on its first use."""
    levels = _close(n, masks)
    blocks = None if levels is None else admissible_blocks(levels, k)
    if blocks is None or not all(is_basic_block(j, i) for j, i in blocks):
        factors = "*".join(str(_assemble(n, [(i, False), (j, True), (c, False)]))
                           for i, j, c in masks)
        mono = None if levels is None else make_preorder(n, levels)
        raise CertificateFailure(
            f"witness monomial {factors} closes to {mono}, not a basic preorder")
    (mono,) = _nf(k, n, levels)
    return mono


def _close(n: int, masks: Sequence[tuple[int, int, int]]) -> tuple | None:
    """Level tuple ((mask, full), ...) of the closure of the elementary
    factors with masks (I_f, J_f, K_f), empty holes dropped, or None when
    the product is zero; no preorder is built, as the tuple keys _nf's memo.
    It is computed by level arithmetic, in closed form:

    A nonzero closure keeps every J_f as its own Full block, so the factors
    are totally ordered with f below g iff J_f lies in I_g and J_g in K_f,
    and every element outside the J's sits in K_f for a prefix of that order
    and in I_f for the rest. Since each factor partitions 1..n, all of this
    holds iff the factors, listed by strictly growing I, nest: I_f u J_f is
    contained in I_g for each consecutive pair f, g. Nesting makes each I_f
    a proper subset of the next I_g (J_f is not empty), hence a smaller
    integer as a bitmask, so when the factors nest, plain tuple order
    sorted(masks) lists them in their nesting order; no sort key is needed.
    A list that does not nest fails some consecutive check in any order,
    and a tie in I fails one because J is not empty. The closure is then
    (I_1)[J_1](K_1 n I_2)[J_2] ... [J_d](K_d), hole i holding the elements
    that sit above exactly i blocks. Any other product closes some J_f into
    a class with another element, more than k-1 elements, and is zero; that
    includes a repeated factor (exterior square over GF(2)), whose I ties
    with its copy's.

    The generic route (relation matrices, Warshall closure, string form) is
    kept as the test oracle for this closed form in tests/test_cohomology.py.
    """
    if not masks:
        return (((1 << n) - 1, False),)
    masks = sorted(masks)
    parts = [(masks[0][0], False)]
    for (i_lo, j_lo, k_lo), (i_hi, _, _) in zip(masks, masks[1:]):
        if (i_lo | j_lo) & ~i_hi:
            return None
        parts += [(j_lo, True), (k_lo & i_hi, False)]
    _, j_top, k_top = masks[-1]
    parts += [(j_top, True), (k_top, False)]
    return tuple(lv for lv in parts if lv[0])


# The ring's one cache, keyed by (k, level tuple): a preorder's levels
# (LevelSet is a NamedTuple) and a closure's plain tuple share an entry.
_nf_memo: dict[tuple[int, tuple], frozenset] = {}


def clear_caches() -> None:
    """Empty the ring's one cache, the normal-form memo; results do not
    change, later calls only rebuild the entries they need. The memo also
    supplies every basic preorder the ring hands out: the unit, the
    generators' normal forms and the witness monomials. Generators are
    (I, J, K) masks until then, and each preorder keeps its own
    factorization (StringPreorder._factored), which is part of no cache."""
    _nf_memo.clear()


def normalize(p: StringPreorder, k: int) -> CohClass:
    """Express an admissible preorder in the basic basis.

    Rewrites right-to-left: for the rightmost block [J_i](I_i) whose maximum
    m = max(J_i u I_i) sits in the bracket (I_i = empty included), apply the
    relation instance A = prefix, B = J_i \\ m, C = suffix u {m}, which
    exchanges m out of the bracket into the suffix; the replacement factors
    are re-closed against the remaining ones and the process recurses.
    Degrees above floor(n/k) vanish outright (no basic preorders exist
    there).

    The rewriting terminates. Measure a non-basic admissible by the pair
    (i, -max(J_i)), i the index of its rightmost violating block, compared
    lexicographically; every nonzero replacement is basic or has a smaller
    measure. The blocks right of i never change. A term that moves c out of
    the suffix is nonzero only when c is in I_i, and block i becomes
    [J_i \\ m u c](I_i \\ c u m), which is basic, so the index drops. A
    term that moves a out of the prefix is nonzero only when a lies in the
    hole before block i, and block i becomes [J_i \\ m u a](I_i u m): basic
    if a < m (the index drops), still violating with its maximum raised to
    a if a > m (the index stays and -max(J_i) drops). The measure takes
    finitely many values, so every chain of rewrites ends.
    """
    check_ring(k, p.n)
    _term_masks(p, k, p.n)
    return CohClass(k, p.n, _nf(k, p.n, p.levels))


def _nf(k: int, n: int, levels: tuple) -> frozenset:
    """Basic terms of the normal form of an admissible level tuple on 1..n,
    memoized under (k, levels). The blocks are parsed off the tuple; a
    StringPreorder is built only for a basic result, once per new entry."""
    key = (k, levels)
    cached = _nf_memo.get(key)
    if cached is not None:
        return cached
    blocks = admissible_blocks(levels, k)
    violating = [i for i, (j_mask, i_mask) in enumerate(blocks)
                 if not is_basic_block(j_mask, i_mask)]
    if not violating:
        result = frozenset([make_preorder(n, levels)])
    elif len(blocks) > n // k:
        result = frozenset()
    else:
        i = violating[-1]
        factors = _factor_masks(n, blocks)
        # prefix [J_i] suffix is the elementary factor at block i
        prefix, j_mask, suffix = factors[i]
        m_bit = 1 << (j_mask.bit_length() - 1)
        j0 = j_mask ^ m_bit
        replacements = []
        for bit in set_bits(prefix):
            replacements.append((prefix ^ bit, j0 | bit, suffix | m_bit))
        for bit in set_bits(suffix):
            replacements.append((prefix, j0 | bit, (suffix | m_bit) ^ bit))
        acc: set[StringPreorder] = set()
        for repl in replacements:
            acc ^= _product(k, n, factors[:i] + [repl] + factors[i + 1:])
        result = frozenset(acc)
    _nf_memo[key] = result
    return result


def cup(a: CohClass, b: CohClass) -> CohClass:
    """Cup product, bilinear over the basic basis. Raises AmbientMismatch or
    NotAdmissible for a class or term outside the ring."""
    if (a.k, a.n) != (b.k, b.n):
        raise AmbientMismatch("classes live in different rings")
    k, n = a.k, a.n
    acc: set[StringPreorder] = set()
    b_factors = [_term_masks(pb, k, n) for pb in b.terms]
    for pa in a.terms:
        fa = _term_masks(pa, k, n)
        for fb in b_factors:
            acc ^= _product(k, n, fa + fb)
    return CohClass(k, n, frozenset(acc))


def _term_masks(p: StringPreorder, k: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """Masks of the elementary factors of a term of a class in ring (k, n),
    one per block: the tuple's length is the term's degree. The term
    factors itself once (StringPreorder._factored); here only its ambient
    size and its block size are checked."""
    if p.n != n:
        raise AmbientMismatch("term has wrong ambient size")
    factored = p._factored()
    if factored is None or factored[0] != k - 1 and factored[1]:
        raise NotAdmissible(f"{p} is not admissible for k={k}")
    return factored[1]


def _product(k: int, n: int, masks: Sequence[tuple[int, int, int]]) -> frozenset:
    """Basic terms of the product of the elementary factors with these masks."""
    levels = _close(n, masks)
    return frozenset() if levels is None else _nf(k, n, levels)


def betti(k: int, n: int, d: int) -> int:
    """Rank of the degree-d part: number of basic preorders with d blocks.

    Counted, not enumerated. A basic block J_i u I_i has b >= k elements:
    its maximum lies in I_i and J_i is any (k-1)-subset of the other b-1.
    With W_j(m) the number of sequences of j basic blocks on a fixed
    m-element set,

        W_0(0) = 1,   W_{j+1}(m+b) += W_j(m) * C(m+b, b) * C(b-1, k-1)

    for b >= k, and I_0 is the remainder, so
    betti(k, n, d) = sum_m C(n, m) * W_d(m). enumerate_basic is the
    independent oracle for this count in the tests.
    """
    check_degree_params(k, n, d)
    if d > n // k:
        return 0  # every round past n // k is all zeros
    words = [1] + [0] * n
    for _ in range(d):
        nxt = [0] * (n + 1)
        for m, ways in enumerate(words):
            if ways:
                for b in range(k, n - m + 1):
                    nxt[m + b] += ways * comb(m + b, b) * comb(b - 1, k - 1)
        words = nxt
    return sum(comb(n, m) * ways for m, ways in enumerate(words))


def cup_length(k: int, n: int) -> int:
    """Largest number of positive-degree classes with nonzero product.

    The domain is that of the closed forms, k >= 3 and n >= 1; it is 0 for
    n < k. Certified below by the explicit basic witness
    [1..k-1](k)[k+1..2k-1](2k)...[(q-1)k+1..qk-1](qk..n) with q = floor(n/k)
    (a basis element, hence nonzero; cat_witness checks it), and above by
    the grading bound: any product of more than floor(n/k) blocks lands in a
    vanishing degree. Both checks always run and raise CertificateFailure
    when they fail.
    """
    check_domain(k, n)
    q = n // k
    if q == 0:
        return 0
    cat_witness(k, n)
    if betti(k, n, q + 1):
        raise CertificateFailure(f"degree {q + 1} is nonzero: the grading bound fails")
    return q


def cat_witness(k: int, n: int) -> StringPreorder:
    """The basic witness product x_1 x_{k+1} ... x_{(q-1)k+1} of
    q = floor(n/k) elementary factors, checked basic by witness_closure."""
    q = n // k
    if q == 0:
        raise ParameterOutOfRange(f"n={n} < k={k}: no positive-degree witness")
    return witness_closure([_x_masks(j * k + 1, k, n) for j in range(q)], k, n)


# ---------------------------------------------------------------------------
# Independent Gaussian-elimination oracle
# ---------------------------------------------------------------------------

class OracleNormalForm(Record, frozen=False):
    """Quotient of the admissible span by all relation rows in one degree."""

    __slots__ = ("k", "n", "d", "basis", "normal_form", "rank", "consistent", "issues")

    def __init__(self, k: int, n: int, d: int, basis: list[StringPreorder],
                 normal_form: dict[StringPreorder, frozenset[StringPreorder]],
                 rank: int, consistent: bool, issues: list[str] | None = None):
        self.k, self.n, self.d = k, n, d
        self.basis = basis
        self.normal_form = normal_form
        self.rank = rank
        self.consistent = consistent
        self.issues = [] if issues is None else issues


def _oracle_cap() -> int:
    raw = os.environ.get("NOKEQUAL_MAX_ORACLE_DIM")
    if not raw:
        return DEFAULT_ORACLE_CAP
    if not raw.isdecimal():
        raise ParameterOutOfRange(
            f"NOKEQUAL_MAX_ORACLE_DIM must be a non-negative integer, got {raw!r}")
    return int(raw)


def oracle_normal_form(k: int, n: int, d: int) -> OracleNormalForm:
    """Brute-force normal forms in degree d via GF(2) Gaussian elimination.

    Spans all admissible preorders of degree d, imposes every relation row,
    eliminates, and reads normal forms off the reduced rows. There is one
    row per frame, a degree-d level list with one block of k-2 elements:
    the terms that move one element of a hole next to that block into it
    (see _relation_rows). Any degree is accepted; the only limit is the
    admissible-column cap (NOKEQUAL_MAX_ORACLE_DIM, default 100000), beyond
    which TooLarge is raised.
    """
    check_degree_params(k, n, d)
    if count_admissible(k, n, d) > _oracle_cap():
        raise TooLarge(f"oracle infeasible at (k={k}, n={n}, d={d})")
    admissibles = list(enumerate_admissible(k, n, d))

    # Columns: basics first, then non-basics ordered by increasing violation
    # (the number of non-basic blocks), so that leading-bit pivoting lands
    # on the most violating columns.
    basics, non_basics = [], []
    for p in admissibles:
        bad = sum(not is_basic_block(j, i) for j, i in admissible_blocks(p.levels, k))
        if bad:
            non_basics.append((bad, p))
        else:
            basics.append(p)
    non_basics.sort(key=lambda bp: (bp[0], bp[1].sort_key()))
    columns = (sorted(basics, key=lambda p: p.sort_key())
               + [p for _, p in non_basics])
    index = {p.levels: i for i, p in enumerate(columns)}
    n_basic = len(basics)

    rows = set()
    for row in _relation_rows(k, n, d):
        bits = 0
        for t in row:
            bits ^= 1 << index[t]
        if bits:
            rows.add(bits)

    pivots: dict[int, int] = {}
    issues: list[str] = []
    # Shortest rows first, which keeps the forward pass's row additions few.
    # The order cannot change the result: after back-substitution the rows
    # are the reduced echelon form, which depends only on the row space.
    for row in sorted(rows, key=lambda r: (r.bit_count(), r.bit_length())):
        while row:
            lead = row.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row ^= piv
    # Full back-substitution: ascending pivot columns, so lower pivots are
    # already reduced to free bits when a higher pivot consumes them.
    for lead in sorted(pivots):
        row = pivots[lead]
        rest = row ^ (1 << lead)
        reduced = 1 << lead
        while rest:
            b = rest.bit_length() - 1
            if b in pivots:
                # b < lead, so pivots[b] is already fully reduced
                rest ^= pivots[b]
            else:
                reduced |= 1 << b
                rest ^= 1 << b
        pivots[lead] = reduced

    rank = len(pivots)
    free = [i for i in range(len(columns)) if i not in pivots]
    basis = [columns[i] for i in free if i < n_basic]
    expected = betti(k, n, d)
    consistent = True
    if rank != len(admissibles) - expected:
        consistent = False
        issues.append(f"rank {rank} != {len(admissibles)} - betti {expected}")
    if any(i >= n_basic for i in free):
        consistent = False
        issues.append("a non-basic column survived as a free generator")
    if any(i < n_basic for i in pivots):
        consistent = False
        issues.append("a basic column was eliminated")

    nf: dict[StringPreorder, frozenset[StringPreorder]] = {}
    for i, p in enumerate(columns):
        piv = pivots.get(i)
        if piv is None:
            nf[p] = frozenset([p])
        else:
            nf[p] = frozenset(columns[bit.bit_length() - 1]
                              for bit in set_bits(piv ^ (1 << i)))
    return OracleNormalForm(k, n, d, basis, nf, rank, consistent, issues)


def _relation_rows(k: int, n: int, d: int):
    """Relation rows in degree d, each a list of admissible level tuples.

    One row per frame: a level list (H_0)[J_1](H_1) ... [J_d](H_d) of 1..n
    whose block B = J_i has k-2 elements and every other block k-1. The
    row holds the terms that move one element of H_{i-1} or H_i into B. It
    is the relation instance A = everything below B, C = everything above
    it, times the elementary factors of the other blocks: every other term
    of that product fails to nest and is zero, and so is every product
    with a factor that does not nest. The terms are written out in nested
    closed form, so the oracle calls no monomial_closure.
    """
    if d * (k - 1) - 1 > n:
        return  # no frame fits in 1..n
    for i in range(d):
        sizes = (k - 1,) * i + (k - 2,) + (k - 1,) * (d - 1 - i)
        for parts in _block_parts(n, sizes, basic=False):
            row = _frame_row(parts, i)
            if row:
                yield row


def _frame_row(parts: list[tuple[int, bool]], i: int) -> list[tuple]:
    """The row of a frame whose block B is J_{i+1}, as level tuples."""
    b = 2 * i + 1
    b_mask = parts[b][0]
    row = []
    for h in (b - 1, b + 1):
        hole = parts[h][0]
        for bit in set_bits(hole):
            term = list(parts)
            term[h] = (hole ^ bit, False)
            term[b] = (b_mask | bit, True)
            row.append(tuple(lv for lv in term if lv[0]))
    return row
