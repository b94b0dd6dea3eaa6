import hashlib
import json
import math

import pytest

from nokequal.cli import main
from nokequal.planner import SimplicialComplex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti(capsys):
    code, out, _ = run(capsys, "betti", "--k", "3", "--n", "5", "--d", "1")
    assert (code, out.strip()) == (0, "31")


def test_betti_default_degree(capsys):
    code, out, _ = run(capsys, "betti", "--k", "3", "--n", "4")
    assert (code, out.strip()) == (0, "7")


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--k", "3", "--n", "4", "(1,2)[3,4]")
    assert (code, out.strip()) == (0, "(1)[2,3](4)+(2)[1,3](4)")


def test_cup(capsys):
    code, out, _ = run(capsys, "cup", "--k", "3", "--n", "6",
                       "[1,2](3,4,5,6)", "(1,2,3)[4,5](6)")
    assert (code, out.strip()) == (0, "[1,2](3)[4,5](6)")


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "--k", "3", "--n", "7", "--i", "2")
    assert code == 0
    assert "coefficient of [1,2](3)[4,5](6,7)⊗(1)[2,3](4)[5,6](7): 1" in out
    assert out.strip().endswith("nonzero: yes")


def test_witness_prints_the_designated_coefficient_for_every_s(capsys):
    code, out, _ = run(capsys, "witness", "--k", "3", "--n", "7", "--i", "2", "--s", "3")
    assert code == 0
    assert ("coefficient of [1,2](3)[4,5](6,7)⊗[1,2](3)[4,5](6,7)⊗(1)[2,3](4)[5,6](7): 1"
            in out)


@pytest.mark.parametrize("s", ["2", "3"])
def test_witness_at_n_equals_k_has_no_designated_term(capsys, s):
    code, out, err = run(capsys, "witness", "--k", "3", "--n", "3", "--i", "1", "--s", s)
    assert (code, out, err) == (0, "0\nnonzero: no\n", "")


def test_zcl(capsys):
    code, out, _ = run(capsys, "zcl", "--k", "3", "--n", "7")
    assert (code, out.strip()) == (0, "4")


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--k-range", "3", "--n-range", "4..5",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert [d["n"] for d in data] == [4, 5]
    assert all(c["status"] != "fail"
               for d in data for c in d["certificates"])


def test_table_csv_header(capsys):
    code, out, _ = run(capsys, "table", "--k-range", "3", "--n-range", "4",
                       "--csv")
    assert code == 0
    assert out.splitlines()[0] == "k,n,s,cat,hdim,tc,tcs,betti,certificate,value,status,note"


@pytest.mark.parametrize("fmt, digest", [
    ("--json", "a57d8d8c72249f904e17fad7dfa6a387"),
    ("--csv", "f9653fe409c342251e21649851aba276"),
])
def test_table_grid_output_is_pinned(capsys, fmt, digest):
    code, out, _ = run(capsys, "table", "--k-range", "3..4", "--n-range", "3..10",
                       "--s-range", "2..3", fmt)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_table_deterministic(capsys):
    args = ["table", "--k-range", "3..4", "--n-range", "3..5", "--s-range", "2..3"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_plan(capsys):
    code, out, _ = run(capsys, "plan", "--pair", "[[0,1,2],[2,1,0]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["domain"] == 1
    assert payload["valid"] is True
    assert payload["path"][0] == [0, 1, 2]


def test_plan_domain_does_not_depend_on_scale(capsys):
    # the pair (1,2,3), (3,1,2) goes straight at scale 1, and so at 2^-40
    tiny = 2.0 ** -40
    pair = json.dumps([[v * tiny for v in (1, 2, 3)], [v * tiny for v in (3, 1, 2)]])
    code, out, _ = run(capsys, "plan", "--pair", pair)
    assert code == 0
    payload = json.loads(out)
    assert (payload["domain"], payload["valid"]) == (0, True)


@pytest.mark.parametrize("pair", [
    # y - x overflows the float range; the waypoint must not
    "[[1e308,-1e308,0],[-1e308,1e308,0]]",
    # the crossing is 2^-2096 from y, whose coordinates are subnormal
    "[[0,-4.49423283715579e307,-8.98846567431158e307],[0,5e-324,1e-323]]",
])
def test_plan_detour_near_the_top_of_the_float_range(capsys, pair):
    code, out, _ = run(capsys, "plan", "--pair", pair)
    assert code == 0
    payload = json.loads(out)
    assert (payload["domain"], payload["valid"]) == (1, True)
    assert all(math.isfinite(c) for c in payload["path"][1])


def test_check_k(capsys):
    code, out, _ = run(capsys, "check", "--config", "[5,5,7]", "--k", "3")
    assert (code, out.strip()) == (0, "true")


def test_check_complex(capsys):
    code, out, _ = run(capsys, "check", "--config", "[5,5,5]", "--complex",
                       '{"n": 3, "facets": [[1,2],[1,3],[2,3]]}')
    assert (code, out.strip()) == (0, "false")


def test_check_complex_on_24_points(capsys):
    edges = [[i, j] for i in range(1, 25) for j in range(i + 1, 25)]
    K = json.dumps({"n": 24, "facets": edges})
    for config, want in (([0, 0] + list(range(1, 23)), "true"),
                         ([0, 0, 0] + list(range(1, 22)), "false")):
        code, out, _ = run(capsys, "check", "--config", json.dumps(config),
                           "--complex", K)
        assert (code, out.strip()) == (0, want)


@pytest.mark.parametrize("top,want", [(64, "true"), (63, "false")])
def test_check_complex_with_a_facet_on_64_vertices(capsys, top, want):
    K = json.dumps({"n": 64, "facets": [list(range(1, top + 1))]})
    code, out, _ = run(capsys, "check", "--config", json.dumps([0] * 64), "--complex", K)
    assert (code, out.strip()) == (0, want)


@pytest.mark.parametrize("complex_json", [
    '{"n": "3", "facets": []}',
    '{"n": 3.0, "facets": [[1,2]]}',
    '{"n": true, "facets": []}',
    '{"n": 3, "facets": [1]}',
    '{"n": 3, "facets": [[1,"2"]]}',
    '{"n": 3, "facets": {}}',
])
def test_check_malformed_complex_is_exit_2(capsys, complex_json):
    code, out, err = run(capsys, "check", "--config", "[5,5,7]", "--complex", complex_json)
    assert (code, out) == (2, "")
    assert err.startswith("error: complex ")


def test_check_complex_of_the_wrong_size_fails_before_building(capsys, monkeypatch):
    # a huge n is refused by its size alone: no face is ever built
    def build(*_):
        raise AssertionError("the complex was built")
    monkeypatch.setattr(SimplicialComplex, "from_facets", build)
    code, out, err = run(capsys, "check", "--config", "[5,5,7]", "--complex",
                         '{"n": 1000000000000, "facets": []}')
    assert (code, out) == (2, "")
    assert "3 coordinates for 1000000000000 vertices" in err


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "--k", "3", "--n", "4", "--d", "1")
    assert code == 0
    assert "basis: 7" in out
    assert "consistent: yes" in out


def test_usage_error_is_exit_1(capsys):
    code, _, err = run(capsys, "betti", "--k", "3")
    assert code == 1
    assert "required" in err


def test_plan_has_no_samples_option(capsys):
    # validation is exact, so a sample count would change nothing
    code, out, err = run(capsys, "plan", "--samples", "8", "--pair", "[[0,1,2],[2,1,0]]")
    assert (code, out) == (1, "")
    assert "--samples" in err


def test_table_has_no_jobs_option(capsys):
    code, _, err = run(capsys, "table", "--k-range", "3..4", "--n-range", "3..5",
                       "--jobs", "2")
    assert code == 1
    assert "--jobs" in err


def test_unknown_command_is_exit_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_bad_preorder_is_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "--k", "3", "--n", "4", "(1,2)[3,4")
    assert code == 2
    assert "error" in err


def test_normalize_in_a_ring_with_k_above_n_is_exit_2(capsys):
    code, out, err = run(capsys, "normalize", "--k", "4", "--n", "3", "[1,2,3]")
    assert (code, out) == (2, "")
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["zcl", "--k", "0", "--n", "0"],
    ["witness", "--k", "0", "--n", "0", "--i", "1"],
    ["zcl", "--k", "2", "--n", "5"],
])
def test_zcl_and_witness_out_of_range_are_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: need ") and "k=" in err


def test_betti_out_of_range_is_exit_2(capsys):
    for argv in (["--k", "2", "--n", "5"], ["--k", "4", "--n", "3"],
                 ["--k", "3", "--n", "5", "--d", "-1"]):
        code, _, err = run(capsys, "betti", *argv)
        assert code == 2
        assert "error" in err


def test_bad_json_is_exit_2(capsys):
    code, _, _ = run(capsys, "plan", "--pair", "[[0,1,2],")
    assert code == 2


def test_collided_endpoint_is_exit_2(capsys):
    code, _, _ = run(capsys, "plan", "--pair", "[[1,1,1],[0,1,2]]")
    assert code == 2


def test_non_finite_coordinate_is_exit_2(capsys):
    for pair in ("[[0,1,Infinity],[2,1,0]]", "[[0,1,2],[NaN,1,0]]"):
        code, _, err = run(capsys, "plan", "--pair", pair)
        assert code == 2
        assert "finite" in err


@pytest.mark.parametrize("coordinate", ['"a"', "null", "true", "[1]"])
def test_non_numeric_coordinate_is_exit_2(capsys, coordinate):
    code, out, err = run(capsys, "plan", "--pair", f"[[{coordinate},0,2],[2,1,0]]")
    assert (code, out) == (2, "")
    assert "not a number" in err


def test_coordinate_beyond_float_range_is_exit_2(capsys):
    pair = f"[[0,1{'0' * 400},1],[2,1,0]]"
    code, out, err = run(capsys, "plan", "--pair", pair)
    assert (code, out) == (2, "")
    assert "float range" in err


def test_integer_too_long_to_read_is_exit_2(capsys):
    code, out, err = run(capsys, "plan", "--pair", f"[[0,{'1' * 5000},1],[2,1,0]]")
    assert (code, out) == (2, "")
    assert "bad pair JSON" in err


def test_check_rejects_a_non_numeric_coordinate(capsys):
    code, out, err = run(capsys, "check", "--config", "[[0],1,2]", "--k", "3")
    assert (code, out) == (2, "")
    assert "not a number" in err


def test_too_large_is_exit_3(capsys):
    code, _, _ = run(capsys, "oracle", "--k", "3", "--n", "9", "--d", "3")
    assert code == 3


def test_oracle_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("NOKEQUAL_MAX_ORACLE_DIM", "5")
    code, _, _ = run(capsys, "oracle", "--k", "3", "--n", "5", "--d", "1")
    assert code == 3


def test_oracle_in_degree_3(capsys):
    code, out, _ = run(capsys, "oracle", "--k", "3", "--n", "7", "--d", "3")
    assert code == 0
    assert "consistent: yes" in out


@pytest.mark.parametrize("k, n", [(2, 64), (3, 70)])
def test_oracle_out_of_range_is_exit_2(capsys, k, n):
    code, out, err = run(capsys, "oracle", "--k", str(k), "--n", str(n), "--d", "1")
    assert (code, out) == (2, "")
    assert "error" in err


def test_malformed_oracle_cap_is_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("NOKEQUAL_MAX_ORACLE_DIM", "abc")
    code, out, err = run(capsys, "oracle", "--k", "3", "--n", "5", "--d", "1")
    assert (code, out) == (2, "")
    assert "NOKEQUAL_MAX_ORACLE_DIM" in err
