"""The value records: the repr, equality, hashing, freezing, pickling and
copying that the dataclasses they replace gave."""

import copy
import pickle

import pytest

from nokequal import (
    CohClass,
    InvariantReport,
    Path,
    SimplicialComplex,
    TensorClass,
    invariant_report,
    make_x,
)
from nokequal.cohomology import OracleNormalForm
from nokequal.invariants import Certificate
from nokequal.preorder import classify, to_matrix


def _oracle_form():
    p = make_x(1, 3, 3)
    return OracleNormalForm(3, 3, 1, [p], {p: frozenset([p])}, 2, True)


X135 = "StringPreorder(n=5, levels=(LevelSet(mask=3, full=True), LevelSet(mask=28, full=False)))"
UNIT3 = "StringPreorder(n=3, levels=(LevelSet(mask=7, full=False),))"
X133 = "StringPreorder(n=3, levels=(LevelSet(mask=3, full=True), LevelSet(mask=4, full=False)))"
CAT = "Certificate(name='cat_lower', value=1, status='pass', note='')"

# (factory, fields in constructor order, frozen, pinned repr)
RECORDS = {
    "StringPreorder": (lambda: make_x(1, 3, 5), ("n", "levels"), True, X135),
    "RelationMatrix": (lambda: to_matrix(make_x(1, 3, 4)), ("n", "rows"), True,
                       "RelationMatrix(n=4, rows=(15, 15, 4, 8))"),
    "PreorderClass": (lambda: classify(make_x(1, 3, 5), 3), ("kind", "d", "k"), True,
                      "PreorderClass(kind='basic', d=1, k=3)"),
    "CohClass": (lambda: CohClass.unit(3, 3), ("k", "n", "terms"), True,
                 f"CohClass(k=3, n=3, terms=frozenset({{{UNIT3}}}))"),
    "OracleNormalForm": (
        _oracle_form,
        ("k", "n", "d", "basis", "normal_form", "rank", "consistent", "issues"), False,
        f"OracleNormalForm(k=3, n=3, d=1, basis=[{X133}], "
        f"normal_form={{{X133}: frozenset({{{X133}}})}}, rank=2, consistent=True, issues=[])"),
    "TensorClass": (lambda: TensorClass.unit(3, 3, 2), ("k", "n", "s", "terms"), True,
                    f"TensorClass(k=3, n=3, s=2, terms=frozenset({{({UNIT3}, {UNIT3})}}))"),
    "Certificate": (lambda: Certificate("cat_lower", 1, "pass"),
                    ("name", "value", "status", "note"), False, CAT),
    "InvariantReport": (
        lambda: invariant_report(3, 3, 2),
        ("k", "n", "s", "cat", "hdim", "tc", "tcs", "betti_list", "certificates"), False,
        f"InvariantReport(k=3, n=3, s=2, cat=1, hdim=1, tc=1, tcs=1, betti_list=[1, 1], "
        f"certificates=[{CAT}, Certificate(name='zcl_lower', value=1, status='pass', "
        "note='upper bound from sphere S^{k-2}; zcl certificate = 1 only'), "
        "Certificate(name='betti_rank', value=None, status='skipped', "
        "note='closed form valid only for k < n < 2k')])"),
    "SimplicialComplex": (lambda: SimplicialComplex.skeleton(3, 1), ("n", "facets"), True,
                          "SimplicialComplex(n=3, facets=(3, 5, 6))"),
    "Path": (lambda: Path.through((0, 1, 2), (2, 1, 0)), ("points",), True,
             "Path(points=((0, 1, 2), (2, 1, 0)))"),
}
NAMES = sorted(RECORDS)
FROZEN = [name for name in NAMES if RECORDS[name][2]]
MUTABLE = [name for name in NAMES if not RECORDS[name][2]]


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    make, _, _, expected = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == expected


@pytest.mark.parametrize("name", NAMES)
def test_constructor_takes_the_fields_by_keyword(name):
    make, fields, _, _ = RECORDS[name]
    record = make()
    values = [getattr(record, f) for f in fields]
    assert type(record)(*values) == record
    assert type(record)(**dict(zip(fields, values))) == record


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_by_fields_and_class(name):
    make, fields, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != tuple(getattr(a, f) for f in fields)
    assert a != object()


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_as_their_field_tuple(name):
    make, fields, _, _ = RECORDS[name]
    a, b = make(), make()
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_refuse_assignment(name):
    make, fields, _, _ = RECORDS[name]
    record = make()
    for f in fields:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, f, 1)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, f)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable_and_assignable(name):
    make, fields, _, _ = RECORDS[name]
    record = make()
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    setattr(record, fields[0], 99)
    assert getattr(record, fields[0]) == 99
    assert record != make()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("round_trip", [
    lambda r: pickle.loads(pickle.dumps(r)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_round_trips_keep_the_record(name, round_trip):
    make, _, frozen, expected = RECORDS[name]
    record = make()
    back = round_trip(record)
    assert type(back) is type(record)
    assert back == record and repr(back) == expected
    if frozen:
        assert hash(back) == hash(record)


def test_deepcopy_copies_a_mutable_record_deeply():
    report = invariant_report(3, 4, 2)
    twin = copy.deepcopy(report)
    twin.certificates[0].status = "fail"
    assert report.certificates[0].status == "pass"


def test_omitted_defaults_are_fresh():
    assert Certificate("c", None, "skipped").note == ""
    for make in (lambda: OracleNormalForm(3, 3, 1, [], {}, 0, True).issues,
                 lambda: InvariantReport(3, 3, 2, 1, 1, 1, 1, [1, 1]).certificates):
        a, b = make(), make()
        assert a == [] and a is not b
