"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 invalid input data, 3 infeasible
computation. The oracle feasibility cap can be raised or lowered through
the NOKEQUAL_MAX_ORACLE_DIM environment variable.

json is imported only by the two functions that parse or print JSON,
_load_json and _cmd_plan, so that the other commands (betti, normalize,
cup, witness, zcl, oracle and a text table) load neither json nor
fractions.
"""

from __future__ import annotations

import argparse
import sys

from .cohomology import CohClass, betti, cup, normalize, oracle_normal_form
from .errors import DimensionMismatch, MalformedSyntax, NoKEqualError, NotInSpace, TooLarge
from .invariants import reports_to_csv, reports_to_json, verify_range
from .planner import (
    SimplicialComplex,
    in_conf_complex,
    in_conf_k,
    plan_conf3_3,
    validate_path,
)
from .preorder import parse_preorder
from .tensor import TENSOR_SIGN, expected_witness_term, witness_product, zcl_lower


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; we reserve 2 for data errors
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            out = list(range(int(lo), int(hi) + 1))
        else:
            out = [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")
    if not out:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return out


def _load_json(text: str, what: str):
    import json

    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise MalformedSyntax(f"bad {what} JSON: {exc}")


def _sum_of_preorders(text: str, k: int, n: int) -> CohClass:
    out = CohClass.zero(k, n)
    for chunk in text.split("+"):
        out = out + normalize(parse_preorder(chunk.strip(), n), k)
    return out


def _cmd_betti(args) -> int:
    print(betti(args.k, args.n, args.d))
    return 0


def _cmd_normalize(args) -> int:
    print(_sum_of_preorders(args.preorder, args.k, args.n))
    return 0


def _cmd_cup(args) -> int:
    a = _sum_of_preorders(args.left, args.k, args.n)
    b = _sum_of_preorders(args.right, args.k, args.n)
    print(cup(a, b))
    return 0


def _cmd_witness(args) -> int:
    w = witness_product(args.k, args.n, args.i, args.s)
    print(w)
    if args.n > args.k:  # at n = k the product vanishes and has no designated term
        term = expected_witness_term(args.k, args.n, args.i, args.s)
        coeff = 1 if term in w.terms else 0
        print(f"coefficient of {TENSOR_SIGN.join(map(str, term))}: {coeff}")
    print(f"nonzero: {'yes' if w else 'no'}")
    return 0


def _cmd_zcl(args) -> int:
    print(zcl_lower(args.k, args.n, args.s))
    return 0


def _cmd_table(args) -> int:
    reports = verify_range(args.k_range, args.n_range, args.s_range)
    if args.json:
        print(reports_to_json(reports))
    elif args.csv:
        print(reports_to_csv(reports), end="")
    else:
        header = f"{'k':>3} {'n':>3} {'s':>3} {'cat':>4} {'hdim':>5} {'tc':>4} {'tcs':>4}  certificates"
        print(header)
        for r in reports:
            certs = "; ".join(f"{c.name}={c.value} {c.status}" for c in r.certificates)
            print(f"{r.k:>3} {r.n:>3} {r.s:>3} {r.cat:>4} {r.hdim:>5} {r.tc:>4} {r.tcs:>4}  {certs}")
    return 0


def _num(v):
    # a detour waypoint of int coordinates is a Fraction; JSON has no such type
    return v if isinstance(v, (int, float)) else float(v)


def _coordinates(values: list) -> tuple:
    """The configuration as a tuple of finite numbers within float range."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise MalformedSyntax(f"coordinate {v!r} is not a number")
        # false for NaN; exact for integers of any size
        if not -sys.float_info.max <= v <= sys.float_info.max:
            raise NotInSpace(f"coordinate {v!r:.24} is not a finite real in float range")
    return tuple(values)


def _cmd_plan(args) -> int:
    import json

    pair = _load_json(args.pair, "pair")
    if (not isinstance(pair, list) or len(pair) != 2
            or not all(isinstance(p, list) for p in pair)):
        raise MalformedSyntax("pair must be a JSON array of two configurations")
    x, y = _coordinates(pair[0]), _coordinates(pair[1])
    domain, path = plan_conf3_3(x, y)
    valid = validate_path(path, 3)
    print(json.dumps({
        "domain": domain,
        "path": [[_num(c) for c in pt] for pt in path.points],
        "valid": valid,
    }))
    return 0


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _complex_data(data, dim: int) -> tuple[int, list]:
    """n and the facets of a --complex value, checked before anything is
    built: n an integer equal to the configuration's length dim, facets a
    list of lists of integers."""
    if not isinstance(data, dict) or "n" not in data or "facets" not in data:
        raise MalformedSyntax('complex must be JSON {"n": ..., "facets": [[...]]}')
    n, facets = data["n"], data["facets"]
    if not _is_int(n):
        raise MalformedSyntax(f"complex n {n!r:.24} is not an integer")
    if n != dim:
        raise DimensionMismatch(f"{dim} coordinates for {n} vertices")
    if not (isinstance(facets, list)
            and all(isinstance(f, list) and all(map(_is_int, f)) for f in facets)):
        raise MalformedSyntax("complex facets must be a list of lists of integers")
    return n, facets


def _cmd_check(args) -> int:
    coords = _load_json(args.config, "configuration")
    if not isinstance(coords, list):
        raise MalformedSyntax("configuration must be a JSON array of numbers")
    coords = _coordinates(coords)
    if args.complex is not None:
        n, facets = _complex_data(_load_json(args.complex, "complex"), len(coords))
        ok = in_conf_complex(coords, SimplicialComplex.from_facets(n, facets))
    else:
        ok = in_conf_k(coords, args.k)
    print("true" if ok else "false")
    return 0


def _cmd_oracle(args) -> int:
    o = oracle_normal_form(args.k, args.n, args.d)
    print(f"admissible: {len(o.normal_form)}")
    print(f"rank: {o.rank}")
    print(f"basis: {len(o.basis)}")
    print(f"consistent: {'yes' if o.consistent else 'no'}")
    for issue in o.issues:
        print(f"issue: {issue}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="nokequal")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="basis rank in one degree")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("normalize", help="express a sum of admissibles in the basis")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("preorder")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("cup", help="cup product of two classes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_cup)

    p = sub.add_parser("witness", help="zero-divisor witness product")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--s", type=int, default=2)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("zcl", help="certified zero-divisor cup-length lower bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=2)
    p.set_defaults(func=_cmd_zcl)

    p = sub.add_parser("table", help="invariant report over a parameter grid")
    p.add_argument("--k-range", type=_parse_range, required=True)
    p.add_argument("--n-range", type=_parse_range, required=True)
    p.add_argument("--s-range", type=_parse_range, default=[2])
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("plan", help="plan a motion between two 3-point configurations")
    p.add_argument("--pair", required=True, help="JSON [[x1,x2,x3],[y1,y2,y3]]")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("check", help="configuration membership test")
    p.add_argument("--config", required=True, help="JSON array of coordinates")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--k", type=int)
    grp.add_argument("--complex", help='JSON {"n": ..., "facets": [[...]]}')
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="audit the elimination quotient in one degree")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoKEqualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
