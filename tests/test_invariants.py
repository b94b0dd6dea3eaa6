import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from nokequal import make_x, parse_preorder, tensor
from nokequal.cohomology import betti, cup_length, oracle_normal_form
from nokequal.errors import ParameterOutOfRange, RangeViolation
from nokequal.invariants import (
    Certificate,
    InvariantReport,
    betti_closed_form,
    cat_formula,
    hdim_formula,
    invariant_report,
    reports_to_csv,
    reports_to_json,
    tc_formula,
    tcs_formula,
    verify_range,
)


@pytest.mark.parametrize("k,n,expected", [(3, 7, 2), (3, 2, 0), (5, 5, 1)])
def test_cat_formula(k, n, expected):
    assert cat_formula(k, n) == expected


@pytest.mark.parametrize("k,n,expected", [(3, 3, 1), (4, 4, 2), (3, 8, 4), (3, 2, 0)])
def test_tc_formula(k, n, expected):
    assert tc_formula(k, n) == expected


@pytest.mark.parametrize("k,n,s,expected", [
    (3, 3, 3, 2), (4, 4, 5, 5), (3, 6, 3, 6), (3, 2, 4, 0),
])
def test_tcs_formula(k, n, s, expected):
    assert tcs_formula(k, n, s) == expected


def test_tcs_delegates_to_tc_at_s2():
    for k, n in [(3, 3), (4, 4), (3, 7), (3, 2)]:
        assert tcs_formula(k, n, 2) == tc_formula(k, n)


@pytest.mark.parametrize("k,n,expected", [(3, 6, 2), (4, 4, 2), (3, 2, 0)])
def test_hdim_formula(k, n, expected):
    assert hdim_formula(k, n) == expected


def test_betti_closed_form_values():
    assert betti_closed_form(3, 4) == 7
    assert betti_closed_form(3, 5) == 31
    assert betti_closed_form(4, 5) == 9


def test_betti_closed_form_range_guard():
    with pytest.raises(RangeViolation):
        betti_closed_form(3, 6)
    with pytest.raises(RangeViolation):
        betti_closed_form(3, 3)


def test_formula_parameter_guards():
    with pytest.raises(ParameterOutOfRange):
        cat_formula(2, 5)
    with pytest.raises(ParameterOutOfRange):
        tcs_formula(3, 5, 1)


NON_INTEGER_CALLS = [
    (cat_formula, (3, 7.5)),
    (cat_formula, (3.0, 7)),
    (hdim_formula, (3, True)),
    (tc_formula, (3.0, 6)),
    (tcs_formula, (3, 6, 2.5)),
    (tcs_formula, (3, 6, True)),
    (tcs_formula, (True, 6, 2)),
    (betti_closed_form, (3, 4.0)),
    (betti, (3.0, 6, 1)),
    (betti, (3, 6, 1.0)),
    (betti, (3, 6, False)),
    (betti, ("3", 6, 1)),
    (cup_length, (3, 6.0)),
    (oracle_normal_form, (3, 6, 1.0)),
    (tensor.zcl_lower, (3, 6.0, 2)),
    (tensor.zcl_lower, (3, 6, 2.0)),
    (tensor.witness_product, (3, 6, 1.0)),
    (tensor.witness_product, (3, 6, 1, 2.0)),
    (tensor.expected_witness_term, (3, 7.0, 2)),
    (make_x, (1.0, 3, 9)),
    (make_x, (True, 3, 9)),
    (make_x, (1, 3, 9.0)),
    (tensor.zero_divisor, (3, 6, 1.0)),
    (tensor.zero_divisor, (3, 6, True)),
    (tensor.zero_divisor, (3, 6, 1, 1, 2.0)),
    (tensor.p_witness, (2.0, 1, 3, 6)),
    (tensor.p_witness, (2, True, 3, 6)),
    (tensor.p_witness, (2, 1, 3, 6.0)),
    (invariant_report, (3, 6, 2.0)),
    (invariant_report, (3.0, 6)),
    (verify_range, ([3], [6.0])),
    # compared with n before anything checked them
    (verify_range, ("3", [5], [2])),
    (parse_preorder, ("(1)", "3")),
]


@pytest.mark.parametrize("func,args", NON_INTEGER_CALLS,
                         ids=[f"{f.__name__}{args}" for f, args in NON_INTEGER_CALLS])
def test_non_integer_parameters_are_out_of_range(func, args):
    # a float or a bool is refused at the boundary, before any arithmetic
    # could accept it (cat_formula(3, 7.5) was 2.0) or fail on it
    with pytest.raises(ParameterOutOfRange, match="must be an integer"):
        func(*args)


@given(st.integers(3, 6), st.integers(1, 14))
def test_tc_bounded_by_twice_cat(k, n):
    assert tc_formula(k, n) <= 2 * cat_formula(k, n)


@given(st.integers(3, 6), st.integers(1, 14), st.integers(3, 5))
def test_tcs_monotone_in_s(k, n, s):
    assert tcs_formula(k, n, s) <= tcs_formula(k, n, s + 1)


def test_closed_form_matches_enumeration():
    for k in (3, 4):
        for n in range(k + 1, min(2 * k, 10)):
            assert betti(k, n, 1) == betti_closed_form(k, n)


def test_report_all_agree_small_grid():
    for r in verify_range([3], range(4, 8), [2]):
        assert r.all_agree, (r.k, r.n, r.s)


def test_report_sphere_case_note():
    r = invariant_report(4, 4, 2)
    assert r.tc == 2
    zcl = next(c for c in r.certificates if c.name == "zcl_lower")
    assert zcl.status == "skipped"
    assert "sphere" in zcl.note
    assert r.all_agree  # the below-target witness is excluded, not failed


def test_report_odd_sphere_case_passes():
    r = invariant_report(3, 3, 2)
    zcl = next(c for c in r.certificates if c.name == "zcl_lower")
    assert (zcl.value, zcl.status) == (1, "pass")


def test_report_records_a_vanished_witness_as_fail(monkeypatch):
    monkeypatch.setattr(tensor, "_witness_coefficient", lambda k, n, i, s, term: 0)
    r = invariant_report(3, 7, 2)
    zcl = next(c for c in r.certificates if c.name == "zcl_lower")
    assert (zcl.value, zcl.status) == (None, "fail")
    assert "vanished" in zcl.note
    assert not r.all_agree


def test_json_schema():
    reports = verify_range([3], [4, 5], [2])
    data = json.loads(reports_to_json(reports))
    assert {d["n"] for d in data} == {4, 5}
    for d in data:
        assert set(d) == {"k", "n", "s", "cat", "hdim", "tc", "tcs",
                          "betti", "certificates"}
        for c in d["certificates"]:
            assert c["status"] in ("pass", "fail", "skipped")


def _dumps(reports):
    return json.dumps([r.to_dict() for r in reports], indent=2)


@pytest.mark.parametrize("k_range,n_range,s_range", [
    (range(3, 5), range(3, 11), (2, 3)),
    (range(3, 7), range(3, 25), (2, 3, 4)),
    ((), (), ()),
])
def test_json_writer_matches_json_dumps(k_range, n_range, s_range):
    reports = verify_range(k_range, n_range, s_range)
    assert reports_to_json(reports) == _dumps(reports)


# one of each escape class of json.dumps: quote, backslash, the five short
# controls, the other controls and DEL, non-ASCII in the BMP, a character
# beyond it (a surrogate pair) and lone surrogates
ESCAPES = 'q"b\\ \n\r\t\b\f \x00\x1f\x7f ~ é ⊗ \U0001d11e \ud800 \udfff'


def test_json_writer_matches_json_dumps_on_hand_built_reports():
    reports = [
        InvariantReport(3, 4, 2, 1, 1, 2, 2, [], []),
        InvariantReport(3, 5, 2, 1, 1, 2, 2, [1, 12], [
            Certificate("zcl_lower", None, "fail", ESCAPES),
            Certificate(ESCAPES, 2, ESCAPES),
            Certificate("betti_rank", None, "skipped"),
            # ASCII whose one escape is DEL, which str.isascii passes
            Certificate("cat_lower", 1, "pass", "DEL \x7f alone"),
        ]),
    ]
    assert reports_to_json(reports) == _dumps(reports)
    assert reports_to_json(reports[:1]) == _dumps(reports[:1])


def test_json_writer_escapes_every_code_point_as_json_does():
    # four notes that together hold U+0000..U+10FFFF, lone surrogates included
    step = 0x110000 // 4
    certs = [Certificate("c", j, "pass", "".join(map(chr, range(lo, lo + step))))
             for j, lo in enumerate(range(0, 0x110000, step))]
    reports = [InvariantReport(3, 3, 2, 1, 1, 1, 1, [1, 1], certs)]
    assert reports_to_json(reports) == _dumps(reports)


def test_csv_flattening():
    text = reports_to_csv(verify_range([3], [4], [2]))
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3  # one row per certificate
    assert rows[0]["k"] == "3" and rows[0]["betti"] == "1 7"
