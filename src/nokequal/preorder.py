"""String preorders on {1..n}: parsing, composition, classification.

A string preorder is an ordered list of level sets, each either Full
(``[...]``, all elements mutually equivalent) or Empty (``(...)``, elements
mutually incomparable), with lower levels strictly below higher ones.
Element sets are stored as integer bitmasks (element e <-> bit e-1), which
caps the ambient size at 64.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import comb
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    AmbientMismatch,
    MalformedSyntax,
    NotAdmissible,
    NotAPartition,
    NotString,
    IndexOutOfRange,
    ParameterOutOfRange,
)

MAX_N = 64


def mask_of(elements) -> int:
    """Bitmask of an iterable of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elems_of(mask: int) -> list[int]:
    """Sorted 1-based elements of a bitmask."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


class LevelSet(NamedTuple):
    """One level of a string preorder: an element set plus its bracket kind."""

    mask: int
    full: bool


def _level(mask: int, full: bool) -> LevelSet:
    # A singleton level is Empty by convention.
    return LevelSet(mask, full and mask.bit_count() > 1)


_set = object.__setattr__


class Record:
    """Base of the package's value records. A subclass lists its fields
    in __slots__ in constructor order (a leading underscore marks a private
    slot) and sets them in its own __init__, with _set when frozen. Records
    compare, hash, print and pickle by their public fields, as dataclasses
    do. They are frozen unless declared with frozen=False; a mutable record
    is unhashable."""

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        key = attrgetter(*cls._fields)
        # _key always gives a tuple, so the hash is that of the field tuple
        cls._key = key if len(cls._fields) > 1 else staticmethod(lambda r: (key(r),))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class StringPreorder(Record):
    """Immutable string preorder on {1..n}: levels is a tuple of (mask,
    full) pairs, as make_preorder builds them (LevelSet is a NamedTuple).
    The private slots, out of ==, hash, repr and pickle, hold the hash and,
    once _factored has run, the preorder's factorization."""

    __slots__ = ("n", "levels", "_hash", "_factors")

    def __init__(self, n: int, levels: tuple[LevelSet, ...]):
        if not isinstance(n, int) or not 1 <= n <= MAX_N:
            raise ParameterOutOfRange(f"ambient size {n!r:.24} not in 1..{MAX_N}")
        seen = 0
        try:
            for mask, full in levels:
                if mask == 0:
                    raise NotAPartition("empty level set")
                if full and mask.bit_count() == 1:
                    raise NotAPartition("singleton level must be Empty")
                if seen & mask:
                    raise NotAPartition("repeated element across levels")
                seen |= mask
            # hashed once: preorders key every frozenset and memo of the ring
            h = hash((n, levels))
        except (TypeError, ValueError, AttributeError):
            # a level that is no pair, a mask that is no int, or an unhashable level
            raise NotAPartition(
                f"levels {levels!r:.40} are not a tuple of (int mask, full) pairs") from None
        if seen != (1 << n) - 1:
            raise NotAPartition(f"levels do not cover 1..{n}")
        _set(self, "n", n)
        _set(self, "levels", levels)
        _set(self, "_hash", h)

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        parts = []
        for mask, full in self.levels:
            body = ",".join(str(e) for e in elems_of(mask))
            parts.append(f"[{body}]" if full else f"({body})")
        return "".join(parts)

    def sort_key(self) -> tuple:
        return (self.n, self.levels)

    def _factored(self) -> tuple[int | None, tuple[tuple[int, int, int], ...]] | None:
        """(size, masks): the levels read as (I_0)[J_1](I_1) ... [J_d](I_d)
        with every Full block of one size, and the (I, J, K) masks of its
        elementary factors (_factor_masks). So the preorder is admissible
        exactly for k = size + 1, or for every k when it has no block and
        size is None; None when no k admits it. Worked out on the first call
        and kept in the _factors slot, since the ring factors its basic terms
        again and again."""
        try:
            return self._factors
        except AttributeError:
            pass
        size = next((mask.bit_count() for mask, full in self.levels if full), None)
        blocks = admissible_blocks(self.levels, (size or 0) + 1)
        factors = None if blocks is None else (size, tuple(_factor_masks(self.n, blocks)))
        _set(self, "_factors", factors)
        return factors


def make_preorder(n: int, levels: Sequence[tuple[int, bool]]) -> StringPreorder:
    """Build a StringPreorder, normalizing singleton levels to Empty."""
    return StringPreorder(n, tuple(_level(m, f) for m, f in levels))


_GROUP_RE = re.compile(r"([(\[])([^()\[\]]*)([)\]])")


def parse_preorder(text: str, n: int | None = None) -> StringPreorder:
    """Parse bracket notation like ``(1)[2,3](4,5)`` into a StringPreorder.

    With n omitted it is inferred as the maximum element (the levels must
    then partition 1..max exactly).
    """
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise MalformedSyntax("empty preorder string")
    levels: list[tuple[int, bool]] = []
    pos = 0
    max_seen = 0
    for m in _GROUP_RE.finditer(stripped):
        if m.start() != pos:
            raise MalformedSyntax(f"unexpected text at position {pos}: {stripped[pos:]!r}")
        opener, body, closer = m.groups()
        if (opener, closer) not in (("(", ")"), ("[", "]")):
            raise MalformedSyntax(f"mismatched brackets {opener}...{closer}")
        if not body:
            raise MalformedSyntax("empty bracket group")
        try:
            elements = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise MalformedSyntax(f"non-integer element in {body!r}") from None
        if any(e < 1 for e in elements):
            raise MalformedSyntax("elements must be positive integers")
        mask = mask_of(elements)
        if mask.bit_count() != len(elements):
            raise NotAPartition(f"repeated element within {body!r}")
        levels.append((mask, opener == "["))
        max_seen = max(max_seen, max(elements))
        pos = m.end()
    if pos != len(stripped):
        raise MalformedSyntax(f"trailing text {stripped[pos:]!r}")
    if n is None:
        n = max_seen
    elif type(n) is not int:
        check_ints(n=n)
    if max_seen > n:
        raise NotAPartition(f"element {max_seen} exceeds ambient size {n}")
    return make_preorder(n, levels)


class RelationMatrix(Record):
    """Reflexive transitive relation on {1..n}; row i is the bitmask of
    successors of element i+1 (0-based rows)."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if len(rows) != n:
            raise AmbientMismatch("row count differs from n")
        for i, row in enumerate(rows):
            if not row >> i & 1:
                raise NotAPartition(f"relation not reflexive at {i + 1}")
        for i in range(n):
            acc = rows[i]
            for j in elems_of(rows[i]):
                acc |= rows[j - 1]
            if acc != rows[i]:
                raise NotAPartition(f"relation not transitive at {i + 1}")
        _set(self, "n", n)
        _set(self, "rows", rows)


def transitive_closure(n: int, rows: Sequence[int]) -> tuple[int, ...]:
    """Reflexive-transitive closure of bitmask rows (Warshall)."""
    work = [rows[i] | (1 << i) for i in range(n)]
    for via in range(n):
        via_row = work[via]
        for i in range(n):
            if work[i] >> via & 1:
                work[i] |= via_row
    return tuple(work)


def to_matrix(p: StringPreorder) -> RelationMatrix:
    """Relation matrix: i <= j iff level(i) is earlier than level(j), i = j,
    or i and j share a Full level."""
    rows = [0] * p.n
    above = (1 << p.n) - 1
    for mask, full in p.levels:
        above &= ~mask
        for e in elems_of(mask):
            rows[e - 1] = above | (1 << (e - 1)) | (mask if full else 0)
    return RelationMatrix(p.n, tuple(rows))


def to_string_form(r: RelationMatrix) -> StringPreorder:
    """Unique string form of a relation matrix, or raise NotString.

    Classes of mutually related elements are layered by the number of
    classes strictly below them; the matrix is string iff the layers are
    totally ordered, layers of incomparable elements contain only
    singleton classes, and every class of size >= 2 sits alone in its layer.
    """
    n = r.n
    # Equivalence classes of mutual relation.
    class_of: dict[int, int] = {}
    classes: list[int] = []
    for i in range(n):
        if i in class_of:
            continue
        cls = 0
        for j in range(n):
            if r.rows[i] >> j & 1 and r.rows[j] >> i & 1:
                cls |= 1 << j
                class_of[j] = len(classes)
        classes.append(cls)

    def strictly_below(a: int, b: int) -> bool:
        ia = classes[a].bit_length() - 1
        ib = classes[b].bit_length() - 1
        return bool(r.rows[ia] >> ib & 1) and a != b

    below_count = [sum(strictly_below(b, a) for b in range(len(classes)))
                   for a in range(len(classes))]
    layers: dict[int, list[int]] = {}
    for c, cnt in enumerate(below_count):
        layers.setdefault(cnt, []).append(c)
    ordered = sorted(layers)
    # Validate the layering.
    for pos, cnt in enumerate(ordered):
        members = layers[cnt]
        for a, b in combinations(members, 2):
            if strictly_below(a, b) or strictly_below(b, a):
                raise NotString("incomparability is not transitive")
        if len(members) > 1 and any(classes[c].bit_count() > 1 for c in members):
            raise NotString("full class shares a height with another class")
        for later_cnt in ordered[pos + 1:]:
            for a in members:
                for b in layers[later_cnt]:
                    if not strictly_below(a, b):
                        raise NotString("classes not totally ordered by height")
    levels = []
    for cnt in ordered:
        members = layers[cnt]
        mask = 0
        for c in members:
            mask |= classes[c]
        full = len(members) == 1 and classes[members[0]].bit_count() > 1
        levels.append((mask, full))
    return make_preorder(n, levels)


def compose(p: StringPreorder, q: StringPreorder) -> StringPreorder:
    """Closure product: transitive closure of the union of both relations.

    Raises NotString when the closure is not a string preorder (cannot
    happen for single-block operands).
    """
    if p.n != q.n:
        raise AmbientMismatch(f"ambient sizes differ: {p.n} vs {q.n}")
    mp, mq = to_matrix(p), to_matrix(q)
    rows = transitive_closure(p.n, [a | b for a, b in zip(mp.rows, mq.rows)])
    return to_string_form(RelationMatrix(p.n, rows))


def admissible_blocks(levels: Sequence[tuple[int, bool]], k: int) -> list[tuple[int, int]] | None:
    """Blocks (J_i, I_i) of an admissible level sequence, or None.

    The levels are (mask, full) pairs: a preorder's p.levels, or a closure's
    level tuple from cohomology._close. Admissible means they read
    (I_0) [J_1] (I_1) ... [J_d] (I_d) with every Full block of size k-1 and
    at most one Empty level between consecutive blocks (I_i possibly absent).
    """
    blocks: list[tuple[int, int]] = []
    i = 0
    if i < len(levels) and not levels[i][1]:
        i += 1  # leading Empty region I_0
    while i < len(levels):
        mask, full = levels[i]
        if not full or mask.bit_count() != k - 1:
            return None
        i += 1
        i_mask = 0
        if i < len(levels) and not levels[i][1]:
            i_mask = levels[i][0]
            i += 1
        blocks.append((mask, i_mask))
    return blocks


def is_basic_block(j_mask: int, i_mask: int) -> bool:
    """Whether I holds max(J u I), for a block [J](I). J and I are disjoint
    and J is nonempty, so that is I having the higher top bit."""
    return i_mask.bit_length() > j_mask.bit_length()


class PreorderClass(Record):
    """Classification of a string preorder for a collision parameter k."""

    __slots__ = ("kind", "d", "k")

    def __init__(self, kind: str, d: int | None, k: int):
        _set(self, "kind", kind)  # 'basic' | 'admissible' | 'non_admissible'
        _set(self, "d", d)
        _set(self, "k", k)

    @property
    def is_admissible(self) -> bool:
        return self.kind in ("basic", "admissible")

    @property
    def is_basic(self) -> bool:
        return self.kind == "basic"

    @property
    def is_elementary(self) -> bool:
        return self.is_admissible and self.d == 1


def classify(p: StringPreorder, k: int) -> PreorderClass:
    """Classify p as basic / admissible / non-admissible for parameter k."""
    check_ring(k, p.n)
    blocks = admissible_blocks(p.levels, k)
    if blocks is None:
        return PreorderClass("non_admissible", None, k)
    basic = all(is_basic_block(j_mask, i_mask) for j_mask, i_mask in blocks)
    return PreorderClass("basic" if basic else "admissible", len(blocks), k)


def _factor_masks(n: int, blocks: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Masks (I, J, K) of the elementary factors of an admissible preorder
    on 1..n, given its blocks (J_i, I_i) from admissible_blocks: I is
    everything before J_i, K everything after it."""
    all_mask = (1 << n) - 1
    masks, after = [], 0
    for j_mask, i_mask in reversed(blocks):
        after |= i_mask
        masks.append((all_mask & ~j_mask & ~after, j_mask, after))
        after |= j_mask
    return masks[::-1]


def factor_admissible(p: StringPreorder, k: int) -> list[StringPreorder]:
    """Factor an admissible preorder into its elementary closure factors,
    built as preorders from the masks of _factor_masks (which the product
    path of cohomology uses as they are)."""
    blocks = admissible_blocks(p.levels, k)
    if blocks is None:
        raise NotAdmissible(f"{p} is not admissible for k={k}")
    return [_assemble(p.n, [(i_mask, False), (j_mask, True), (k_mask, False)])
            for i_mask, j_mask, k_mask in _factor_masks(p.n, blocks)]


def _submasks(pool: int) -> Iterator[int]:
    """All submasks of pool in increasing integer order (including 0)."""
    s = 0
    while True:
        yield s
        if s == pool:
            return
        s = (s - pool) & pool


def _ksubsets(pool: int, size: int) -> list[int]:
    """Size-subsets of pool as bitmasks, in increasing integer order."""
    bits = [1 << (e - 1) for e in elems_of(pool)]
    out = []
    for combo in combinations(range(len(bits)), size):
        m = 0
        for c in combo:
            m |= bits[c]
        out.append(m)
    out.sort()
    return out


def _assemble(n: int, parts: Sequence[tuple[int, bool]]) -> StringPreorder:
    return make_preorder(n, [(m, f) for m, f in parts if m])


def check_ring(k: int, n: int) -> None:
    """Raise ParameterOutOfRange unless k and n are integers with
    3 <= k <= n <= MAX_N."""
    if type(k) is not int or type(n) is not int:
        check_ints(k=k, n=n)
    if not 3 <= k <= n <= MAX_N:
        raise ParameterOutOfRange(f"need 3 <= k <= n <= {MAX_N}, got k={k}, n={n}")


def check_ints(**params) -> None:
    """Raise ParameterOutOfRange unless every value is an int; a float or a
    bool is not one. The public entry points check their parameters at the
    boundary, and check_ring, which the per-term constructors run, checks k
    and n. Building the keyword dict costs several times what the range
    checks do, so callers test `type(v) is int` first and call this only
    when that fails (an int subclass other than bool then passes here)."""
    for name, v in params.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParameterOutOfRange(f"{name} must be an integer, got {v!r:.24}")


def check_s(s: int) -> None:
    """Raise ParameterOutOfRange unless s is an integer >= 2."""
    if type(s) is not int:
        check_ints(s=s)
    if s < 2:
        raise ParameterOutOfRange("s must be >= 2")


def check_domain(k: int, n: int) -> None:
    """Raise ParameterOutOfRange unless k >= 3 and n >= 1 are integers, the
    domain of the closed forms and of the certified bounds (n < k included)."""
    if type(k) is not int or type(n) is not int:
        check_ints(k=k, n=n)
    if k < 3 or n < 1:
        raise ParameterOutOfRange(f"need k >= 3 and n >= 1, got k={k}, n={n}")


def check_degree_params(k: int, n: int, d: int) -> None:
    """Raise ParameterOutOfRange unless k, n and d are integers with
    3 <= k <= n <= MAX_N and d >= 0."""
    check_ring(k, n)
    if type(d) is not int:
        check_ints(d=d)
    if d < 0:
        raise ParameterOutOfRange("d must be non-negative")


def enumerate_basic(k: int, n: int, d: int) -> Iterator[StringPreorder]:
    """All basic preorders with d Full blocks, each exactly once.

    Order: depth-first lexicographic on the sequence (J_1, I_1, ..., J_d, I_d)
    encoded as bitmask integers, smallest first; I_0 is the remainder.
    """
    yield from _enumerate(k, n, d, basic=True)


def enumerate_admissible(k: int, n: int, d: int) -> Iterator[StringPreorder]:
    """All admissible preorders with d Full blocks, each exactly once.

    Same deterministic order as enumerate_basic, without the basic filter
    (the I_i may be empty).
    """
    yield from _enumerate(k, n, d, basic=False)


def _enumerate(k: int, n: int, d: int, basic: bool) -> Iterator[StringPreorder]:
    check_degree_params(k, n, d)
    for parts in _block_parts(n, (k - 1,) * d, basic):
        yield _assemble(n, parts)


def _block_parts(n: int, sizes: Sequence[int],
                 basic: bool) -> Iterator[list[tuple[int, bool]]]:
    """Level lists (H_0)[J_1](H_1) ... [J_d](H_d) partitioning 1..n with
    card(J_i) = sizes[i-1]; with basic, H_i holds max(J_i u H_i) for i >= 1.
    Empty holes stay in the list and every J_i stays Full, so J_i is at
    position 2i-1. Order: depth-first lexicographic on (J_1, H_1, ...,
    J_d, H_d) as bitmask integers, smallest first; H_0 is the remainder.
    """
    d = len(sizes)
    # Each remaining block needs the elements of its J; a basic one also
    # needs its maximum, in the hole after it.
    extra = 1 if basic else 0
    need = [sum(sizes[t:]) + extra * (d - t) for t in range(d + 1)]

    def rec(pool: int, chosen: list[tuple[int, bool]]):
        t = len(chosen) // 2
        spare = pool.bit_count() - need[t]
        if spare < 0:
            return
        if t == d:
            yield [(pool, False)] + chosen
            return
        # the next hole takes the spare elements and what its block needs there
        hole_cap = spare + extra
        for j_mask in _ksubsets(pool, sizes[t]):
            rest = pool & ~j_mask
            for i_mask in _submasks(rest):
                if i_mask.bit_count() <= hole_cap and (
                        not basic or is_basic_block(j_mask, i_mask)):
                    yield from rec(rest & ~i_mask,
                                   chosen + [(j_mask, True), (i_mask, False)])

    yield from rec((1 << n) - 1, [])


def count_admissible(k: int, n: int, d: int) -> int:
    """Number of admissible preorders with d blocks (no enumeration)."""
    free = n - d * (k - 1)
    if free < 0:
        return 0
    count = 1
    remaining = n
    for _ in range(d):
        count *= comb(remaining, k - 1)
        remaining -= k - 1
    return count * (d + 1) ** free


def _x_masks(m: int, k: int, n: int, primed: bool = False) -> tuple[int, int, int]:
    """Masks (I, J, K) of the generator x_m, or x'_m when primed, in closed
    form: I = 1..m-1, J = m..m+k-2 and K = m+k-1..n, and for x'_m the
    elements m-1 and m trade places between I and J. Checks the ring
    (ParameterOutOfRange) and the index (IndexOutOfRange), not m's type."""
    check_ring(k, n)
    if m < 1 or m + k > n + 2:
        raise IndexOutOfRange(f"need 1 <= m and m+k <= n+2, got m={m}, k={k}, n={n}")
    if primed and m < 2:
        raise IndexOutOfRange("x'_m requires m >= 2")
    below = (1 << (m - 1)) - 1
    bracket = ((1 << (k - 1)) - 1) << (m - 1)
    above = ((1 << n) - 1) ^ below ^ bracket
    if primed:
        swap = 3 << (m - 2)
        below ^= swap
        bracket ^= swap
    return below, bracket, above


def make_x(m: int, k: int, n: int, primed: bool = False) -> StringPreorder:
    """The generators x_m (primed=False) and x'_m (primed=True), a new
    preorder on each call, built from the masks of _x_masks.

    x_m  = (1..m-1)[m..m+k-2](m+k-1..n)
    x'_m = (1..m-2,m)[m-1,m+1..m+k-2](m+k-1..n), defined for m >= 2.
    Empty () regions are suppressed.
    """
    if type(m) is not int or type(k) is not int or type(n) is not int:
        check_ints(m=m, k=k, n=n)
    below, bracket, above = _x_masks(m, k, n, primed)
    return _assemble(n, [(below, False), (bracket, True), (above, False)])
