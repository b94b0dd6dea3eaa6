"""Closed-form invariants and cross-verification reports.

Closed forms come from the structure theory; the computational modules
supply lower bounds with certificates (nonzero witness products). Reports
record both and never pretend a computation established an upper bound.

reports_to_json writes the fixed indent=2 layout of to_dict() itself and
imports no json; csv and io are imported inside reports_to_csv, the only
function that uses them: every CLI call imports this module, and at module
top json and csv took about a third of `import nokequal`.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Optional

from .cohomology import betti, cup_length
from .errors import CertificateFailure, ParameterOutOfRange, RangeViolation
from .preorder import Record, check_domain, check_ints, check_s
from .tensor import zcl_lower

SPHERE_NOTE = "upper bound from sphere S^{{k-2}}; zcl certificate = {v} only"


def cat_formula(k: int, n: int) -> int:
    """LS-category: the integral part of n/k."""
    check_domain(k, n)
    return n // k


def tc_formula(k: int, n: int) -> int:
    """Topological complexity, by the four-case closed form: TC_2."""
    return tcs_formula(k, n, 2)


def tcs_formula(k: int, n: int, s: int) -> int:
    """Higher (sequential) topological complexity TC_s."""
    check_s(s)
    check_domain(k, n)
    if n < k:
        return 0
    if n == k:
        return s - 1 if k % 2 else s
    return s * (n // k)


def hdim_formula(k: int, n: int) -> int:
    """Homotopy dimension (k-2) * floor(n/k); zero in the contractible range."""
    check_domain(k, n)
    return (k - 2) * (n // k)


def betti_closed_form(k: int, n: int) -> int:
    """Rank of the top (degree-one) cohomology for k < n < 2k:
    sum_{i=k}^n C(n,i) C(i-1,k-1)."""
    if type(k) is not int or type(n) is not int:
        check_ints(k=k, n=n)
    if not 3 <= k:
        raise ParameterOutOfRange("k must be >= 3")
    if not k < n < 2 * k:
        raise RangeViolation(f"closed form needs k < n < 2k, got k={k}, n={n}")
    return sum(comb(n, i) * comb(i - 1, k - 1) for i in range(k, n + 1))


class Certificate(Record, frozen=False):
    __slots__ = ("name", "value", "status", "note")

    def __init__(self, name: str, value: Optional[int], status: str, note: str = ""):
        self.name = name
        self.value = value
        self.status = status  # pass | fail | skipped
        self.note = note

    def to_dict(self) -> dict:
        out = {"name": self.name, "value": self.value, "status": self.status}
        if self.note:
            out["note"] = self.note
        return out


class InvariantReport(Record, frozen=False):
    __slots__ = ("k", "n", "s", "cat", "hdim", "tc", "tcs", "betti_list", "certificates")

    def __init__(self, k: int, n: int, s: int, cat: int, hdim: int, tc: int, tcs: int,
                 betti_list: list[int], certificates: Optional[list[Certificate]] = None):
        self.k, self.n, self.s = k, n, s
        self.cat, self.hdim, self.tc, self.tcs = cat, hdim, tc, tcs
        self.betti_list = betti_list
        self.certificates = [] if certificates is None else certificates

    @property
    def all_agree(self) -> bool:
        return all(c.status != "fail" for c in self.certificates)

    def to_dict(self) -> dict:
        return {
            "k": self.k, "n": self.n, "s": self.s,
            "cat": self.cat, "hdim": self.hdim, "tc": self.tc, "tcs": self.tcs,
            "betti": self.betti_list,
            "certificates": [c.to_dict() for c in self.certificates],
        }


def invariant_report(k: int, n: int, s: int = 2) -> InvariantReport:
    """Compute one grid cell: closed forms plus lower bounds with certificates.

    Failed certificate checks are recorded as fail, never raised. A
    certificate is skipped only where it certifies nothing: zcl_lower on
    an even sphere (n = k, k even), whose TC comes from the sphere's
    upper-bound argument, and betti_rank outside k < n < 2k, where the
    closed form does not hold. Upper bounds are always quoted from the
    closed forms.
    """
    cat = cat_formula(k, n)
    hdim = hdim_formula(k, n)
    tc = tc_formula(k, n)
    tcs = tcs_formula(k, n, s)
    betti_list = [betti(k, n, d) for d in range(0, cat + 1)] if n >= k else [1]
    certs: list[Certificate] = []

    try:
        cl = cup_length(k, n)
        certs.append(Certificate("cat_lower", cl,
                                 "pass" if cl == cat else "fail"))
    except CertificateFailure as exc:
        certs.append(Certificate("cat_lower", None, "fail", str(exc)))

    try:
        zcl = zcl_lower(k, n, s)
        if n == k:
            # the zcl witness cannot see the sphere's upper-bound argument
            note = SPHERE_NOTE.format(v=zcl)
            status = "pass" if zcl == tcs else "skipped"
            certs.append(Certificate("zcl_lower", zcl, status, note))
        else:
            certs.append(Certificate("zcl_lower", zcl,
                                     "pass" if zcl == tcs else "fail"))
    except CertificateFailure as exc:
        certs.append(Certificate("zcl_lower", None, "fail", str(exc)))

    if k < n < 2 * k:
        rank = betti_list[1]  # cat = 1 here, so the list ends at degree 1
        closed = betti_closed_form(k, n)
        certs.append(Certificate("betti_rank", rank,
                                 "pass" if rank == closed else "fail"))
    else:
        certs.append(Certificate("betti_rank", None, "skipped",
                                 "closed form valid only for k < n < 2k"))

    return InvariantReport(k, n, s, cat, hdim, tc, tcs, betti_list, certs)


def verify_range(k_range: Iterable[int], n_range: Iterable[int],
                 s_range: Iterable[int] = (2,)) -> list[InvariantReport]:
    """Reports for every feasible cell of the (k, n, s) grid."""
    out = []
    for k in k_range:
        for n in n_range:
            if type(k) is not int or type(n) is not int:
                check_ints(k=k, n=n)
            if n < k:
                continue
            for s in s_range:
                out.append(invariant_report(k, n, s))
    return out


def _json_string(text: str) -> str:
    """text as a JSON string literal, escaped as json.dumps escapes it
    (ensure_ascii): '"', backslash and the five short controls get their
    short escapes, every other character outside printable ASCII (DEL
    included) a lowercase \\uXXXX per UTF-16 code unit, so a character
    beyond the BMP becomes a surrogate pair and a lone surrogate stays one
    escape. Plain printable ASCII, the common case, is returned as it
    is."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import re

    short = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
             "\b": "\\b", "\f": "\\f"}

    def escape(match: "re.Match[str]") -> str:
        run = match.group()
        if run[0] > "\x7f":
            # a run of non-ASCII characters, as hex UTF-16 code units
            units = run.encode("utf-16-be", "surrogatepass").hex("u", 2)
            return "\\u" + units.replace("u", "\\u")
        return short.get(run) or f"\\u{ord(run):04x}"

    return '"' + re.sub('[^\\x00-\\x7f]+|[^ -~]|["\\\\]', escape, text) + '"'


def _json_list(items: list[str], indent: str) -> str:
    """The indent=2 layout of a list whose items are already written, for a
    list that sits at depth len(indent) / 2."""
    if not items:
        return "[]"
    inner = ",\n" + indent + "  "
    return "[\n" + indent + "  " + inner.join(items) + "\n" + indent + "]"


def reports_to_json(reports: list[InvariantReport]) -> str:
    """json.dumps([r.to_dict() for r in reports], indent=2), byte for byte,
    written directly: the layout of to_dict() is fixed, and json's indented
    encoder runs in pure Python, which made it the slowest step of a table
    pass after the cells themselves."""
    def cert(c: Certificate) -> str:
        value = "null" if c.value is None else c.value
        note = f',\n        "note": {_json_string(c.note)}' if c.note else ""
        return (f'{{\n        "name": {_json_string(c.name)},\n        "value": {value},\n'
                f'        "status": {_json_string(c.status)}{note}\n      }}')

    return _json_list([
        f'{{\n    "k": {r.k},\n    "n": {r.n},\n    "s": {r.s},\n    "cat": {r.cat},\n'
        f'    "hdim": {r.hdim},\n    "tc": {r.tc},\n    "tcs": {r.tcs},\n'
        f'    "betti": {_json_list([str(b) for b in r.betti_list], "    ")},\n'
        f'    "certificates": {_json_list([cert(c) for c in r.certificates], "    ")}\n  }}'
        for r in reports], "")


CSV_FIELDS = ["k", "n", "s", "cat", "hdim", "tc", "tcs", "betti",
              "certificate", "value", "status", "note"]


def reports_to_csv(reports: list[InvariantReport]) -> str:
    """Flatten to one row per certificate."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        for c in r.certificates:
            writer.writerow({
                "k": r.k, "n": r.n, "s": r.s,
                "cat": r.cat, "hdim": r.hdim, "tc": r.tc, "tcs": r.tcs,
                "betti": " ".join(str(b) for b in r.betti_list),
                "certificate": c.name, "value": c.value,
                "status": c.status, "note": c.note,
            })
    return buf.getvalue()
