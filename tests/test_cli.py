import json
import re
import time

import pytest

from conftest import fixture_path
from rees import cli, generators, oracle, tower
from rees.field import PrimeField

QUADRIC = fixture_path("quadric_cubic.json")
TABLE1 = fixture_path("table1.json")
TABLE2 = fixture_path("table2.json")
TABLE3 = fixture_path("table3.json")
ORACLE_LINE = "oracle normal forms of all records"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


def test_info_human(capsys):
    code, out, _ = run(capsys, "info", QUADRIC)
    assert code == 0
    assert "column degrees = [2, 3]" in out
    assert "height check: ok" in out


def test_info_json(capsys):
    code, payload, _ = run_json(capsys, "info", QUADRIC)
    assert code == 0
    assert payload["n"] == 3
    assert payload["col_degrees"] == [2, 3]
    assert payload["height_two"] is True
    assert len(payload["minors"]) == 3


def test_sigmas(capsys):
    code, payload, _ = run_json(capsys, "sigmas", QUADRIC, "-m", "1")
    assert code == 0
    assert payload == {"m": 1, "sigma": [1, 1], "r": 2, "s": 2}


@pytest.mark.parametrize("name", ["almost_linear", "final_example",
                                  "final_variant", "quadric_cubic", "table1",
                                  "table2", "table3"])
def test_sigmas_at_the_top_level_is_the_minors_degree(capsys, name):
    path = fixture_path(f"{name}.json")
    inp = cli.load_instance(path)
    m = inp.n - 1
    code, payload, _ = run_json(capsys, "sigmas", path, "-m", str(m))
    assert code == 0
    assert payload == {"m": m, "sigma": [sum(inp.col_degrees)], "r": 1, "s": 1}


def test_sigmas_requires_level(capsys):
    code, _, err = run(capsys, "sigmas", QUADRIC)
    assert code == 1
    assert "error" in err


def test_bidegrees_grid(capsys):
    code, payload, _ = run_json(capsys, "bidegrees", TABLE1)
    assert code == 0
    assert payload["sigma"] == [3, 0]
    assert payload["x_separator"] == 2
    assert payload["marks"] == [[3, 1, 1], [4, 5, 1], [7, 4, 1],
                                [10, 3, 1], [13, 2, 1], [16, 1, 1]]
    code, out, _ = run(capsys, "bidegrees", TABLE1)
    assert code == 0
    assert "x: " in out and "|" in out


def test_generators_all_levels(capsys):
    code, payload, _ = run_json(capsys, "generators", QUADRIC)
    assert code == 0
    assert [lvl["m"] for lvl in payload["levels"]] == [1]
    records = payload["levels"][0]["records"]
    assert len(records) == 4
    assert all(rec["certificate_ok"] for rec in records)
    assert records[0]["provenance"] == "sym-equation"


def test_generators_single_level_text(capsys):
    code, out, _ = run(capsys, "generators", QUADRIC, "-m", "1")
    assert code == 0
    assert "level m = 1: 4 records" in out
    assert "certificate=ok" in out
    assert "FAILED" not in out


def test_slice_and_trim(capsys):
    code, payload, _ = run_json(capsys, "slice", QUADRIC, "--xdeg", "1")
    assert code == 0
    assert len(payload["records"]) == 6
    assert payload["trimmed"] is False
    code, trimmed, _ = run_json(capsys, "slice", QUADRIC, "--xdeg", "1",
                                "--trim")
    assert code == 0
    assert trimmed["trimmed"] is True
    assert len(trimmed["records"]) <= 6


def test_scroll(capsys):
    code, payload, _ = run_json(capsys, "scroll", QUADRIC, "-m", "1")
    assert code == 0
    assert payload["sigma"] == [1, 1]
    assert payload["coordinates"] == ["v10", "v11", "v20", "v21"]
    assert len(payload["gamma"][0]) == 3
    assert len(payload["minors"]) == 3


def test_oracle_hilbert(capsys):
    code, payload, _ = run_json(capsys, "oracle", QUADRIC,
                                "--max-x", "3", "--max-t", "2",
                                "--what", "hilbert")
    assert code == 0
    dims = {(i, j): d for i, j, d in payload["dims"]}
    assert dims[(2, 1)] == 1   # just the quadric equation
    assert dims[(3, 1)] == 3   # its two x-multiples plus the cubic equation
    assert dims[(0, 0)] == 0


def test_oracle_mingens_matches_the_table(capsys):
    code, payload, _ = run_json(capsys, "oracle", QUADRIC,
                                "--max-x", "7", "--max-t", "5")
    assert code == 0
    assert payload["what"] == "mingens"
    # beyond the high-x-degree table ((2,1), (3,1), (2,2) twice) the full
    # window also sees the implicit quintic curve equation at (0,5) and the
    # three boundary-column generators at x-degree d1 - 1
    assert payload["marks"] == [[0, 5, 1], [1, 3, 3],
                                [2, 1, 1], [2, 2, 2], [3, 1, 1]]


def test_oracle_membership(capsys):
    code, payload, _ = run_json(capsys, "oracle", QUADRIC,
                                "--max-x", "3", "--max-t", "2",
                                "--what", "membership")
    assert code == 0
    assert payload["records"]
    assert all(rec["normal_form_zero"] for rec in payload["records"])


def test_oracle_membership_needs_no_window(capsys):
    # membership lists every record at the records' own cap, so the window
    # flags change nothing and may be left out
    code, out, _ = run(capsys, "--json", "oracle", QUADRIC,
                       "--what", "membership")
    assert code == 0
    assert run(capsys, "--json", "oracle", QUADRIC, "--max-x", "0",
               "--max-t", "0", "--what", "membership") == (0, out, "")


@pytest.mark.parametrize("what", ["hilbert", "mingens"])
@pytest.mark.parametrize("given, missing", [
    ((), "--max-x and --max-t"),
    (("--max-t", "2"), "--max-x"),
    (("--max-x", "3"), "--max-t"),
])
def test_oracle_window_is_required_for_counts(capsys, what, given, missing):
    code, out, err = run(capsys, "oracle", QUADRIC, "--what", what, *given)
    assert code == 1
    assert out == ""
    assert f"error: --what {what} needs {missing}" in err


@pytest.mark.parametrize("what, cap", [
    ("hilbert", 4), ("mingens", 4),
    # the records of quadric_cubic reach T-degree 2
    ("membership", 2),
])
def test_oracle_caps_the_saturation(capsys, monkeypatch, what, cap):
    caps = []
    real = oracle.saturated_ideal

    def spy(inp, **kwargs):
        caps.append(kwargs.get("t_max"))
        return real(inp, **kwargs)

    monkeypatch.setattr(oracle, "saturated_ideal", spy)
    code, _, _ = run(capsys, "oracle", QUADRIC, "--max-x", "3",
                     "--max-t", "4", "--what", what)
    assert code == 0
    assert caps == [cap]


def test_oracle_rejects_negative_window(capsys):
    code, _, err = run(capsys, "oracle", QUADRIC,
                       "--max-x=-1", "--max-t", "2")
    assert code == 1
    assert "error" in err


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", QUADRIC)
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL " not in out


def test_check_passes_on_table3(capsys):
    # every table3 record against the oracle's saturation
    code, payload, _ = run_json(capsys, "check", TABLE3)
    assert code == 0
    assert payload["ok"] is True


def test_check_passes_on_table2(capsys):
    # every table2 record against the saturation capped at their highest
    # T-degree; the full saturation takes about a minute
    start = time.monotonic()
    code, payload, _ = run_json(capsys, "check", TABLE2)
    elapsed = time.monotonic() - start
    assert code == 0
    assert payload["ok"] is True
    (line,) = [c for c in payload["reports"][0]["checks"]
               if c["label"] == ORACLE_LINE]
    assert line["note"] == "T-degree cap 6, 26 basis elements"
    assert elapsed < 5.0


def test_check_names_the_first_failing_record(capsys, monkeypatch):
    inp = cli.load_instance(QUADRIC)
    planted = generators.tower_generators(inp, 1)[-1]
    real = oracle.normal_form

    def faulty(p, G):
        return p if p == planted.poly else real(p, G)

    monkeypatch.setattr(oracle, "normal_form", faulty)
    code, payload, _ = run_json(capsys, "check", QUADRIC)
    assert code == 2 and payload["ok"] is False
    (line,) = [c for c in payload["reports"][0]["checks"]
               if c["label"] == ORACLE_LINE]
    assert line["ok"] is False
    a, b = planted.bidegree
    named = f"m=1 alpha={tuple(planted.alpha)} bidegree ({a},{b})"
    assert named in line["note"]
    assert f"residue {planted.poly}" in line["note"]


def test_check_seeds_on_a_rational_instance_fails_before_any_work(
        capsys, monkeypatch, tmp_path):
    # random twins exist only over a prime field, so the instance check must
    # not run first and then end without a report
    with open(QUADRIC, encoding="utf-8") as fh:
        inst = json.load(fh)
    inst["field"] = {"type": "rational"}
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(inst))
    calls = []
    monkeypatch.setattr(cli, "_check_one", calls.append)
    code, out, err = run(capsys, "check", str(path), "--seeds", "1")
    assert code == 1
    assert err == "error: random instances are generated over a prime field\n"
    assert out == "" and calls == []


def test_check_rejects_a_negative_seed_count(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "load_instance", calls.append)
    monkeypatch.setattr(cli, "_check_one", calls.append)
    code, out, err = run(capsys, "check", QUADRIC, "--seeds", "-1")
    assert code == 1
    assert err == "error: --seeds must be nonnegative\n"
    assert out == "" and calls == []


def test_random_is_deterministic(capsys, tmp_path):
    code, first, _ = run(capsys, "random", "--n", "3",
                         "--degrees", "2,3", "--seed", "5")
    assert code == 0
    code, second, _ = run(capsys, "random", "--n", "3",
                          "--degrees", "2,3", "--seed", "5")
    assert first == second
    inst = json.loads(first)
    assert inst["col_degrees"] == [2, 3]
    out_file = tmp_path / "inst.json"
    code, msg, _ = run(capsys, "random", "--n", "3", "--degrees", "2,3",
                       "--seed", "5", "--out", str(out_file))
    assert code == 0 and "wrote" in msg
    loaded = cli.load_instance(str(out_file))
    assert loaded.col_degrees == (2, 3)


def test_random_rejects_bad_degrees(capsys):
    code, _, err = run(capsys, "random", "--n", "3",
                       "--degrees", "3,2", "--seed", "0")
    assert code == 1
    assert "nondecreasing" in err


def test_field_override(capsys, monkeypatch):
    monkeypatch.setenv("REES_FIELD_P", "101")
    code, payload, _ = run_json(capsys, "info", QUADRIC)
    assert code == 0
    assert payload["field"] == {"type": "prime", "p": 101}


def test_field_override_can_break_the_height_check(capsys, monkeypatch):
    # over F_2 the minors of almost_linear share the factor x1^4
    monkeypatch.setenv("REES_FIELD_P", "2")
    code, _, err = run(capsys, "check", fixture_path("almost_linear.json"))
    assert code == 1
    assert err == ("error: height < 2: maximal minors share a common factor "
                   "of degree 4\n")


def test_field_override_rejects_prime_above_2_31(capsys, monkeypatch):
    monkeypatch.setenv("REES_FIELD_P", "2147483659")
    code, _, err = run(capsys, "check", TABLE1)
    assert code == 1
    assert err.startswith("error:") and "2**31" in err


def test_denominator_divisible_by_p_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 3, "col_degrees": [1, 2], "field": {"type": "prime", "p": 32003},
        "phi_rows": [["x0", "x1^2"], ["x1", "x0^2"], ["x0 + 1/32003*x1", "0"]]}))
    code, _, err = run(capsys, "info", str(bad))
    assert code == 1
    assert err.startswith("error:") and "internal error" not in err
    assert "position 5" in err


def test_field_override_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("REES_FIELD_P", "abc")
    code, _, err = run(capsys, "info", QUADRIC)
    assert code == 1
    assert err.startswith("error:") and "REES_FIELD_P" in err


@pytest.mark.parametrize("n, degrees", [
    (2, (1,)), (3, (1, 2, 3)), (3, (0, 2)), (3, (3, 2))])
def test_random_instance_checks_degrees_as_loading_does(n, degrees):
    field = PrimeField(32003)
    with pytest.raises(ValueError) as loading:
        tower.check_col_degrees(n, degrees)
    with pytest.raises(ValueError, match=re.escape(str(loading.value))):
        cli.random_instance(n, degrees, 0, field)


def test_missing_file(capsys):
    code, _, err = run(capsys, "info", fixture_path("nope.json"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("payload, named", [
    pytest.param({"n": 3, "col_degrees": [1, 1],
                  "phi_rows": [["x0", "x1"], ["x1", "x0"]]},
                 "phi_rows", id="row-count"),
    pytest.param({"n": 3, "col_degrees": [1, 2],
                  "phi_rows": [[1, "x1^2"], ["x1", "x0^2"], ["x0", "x0*x1"]]},
                 "phi_rows", id="number-entry"),
    pytest.param({"n": 3, "col_degrees": ["1", 2],
                  "phi_rows": [["x0", "x1^2"], ["x1", "x0^2"], ["x0", "x0*x1"]]},
                 "col_degrees", id="string-degree"),
    pytest.param({"n": 3, "col_degrees": [1, 2], "phi_rows": [[], [], []]},
                 "ragged", id="empty-rows"),
    *[pytest.param({"n": n, "col_degrees": [1, 2],
                    "phi_rows": [["x0", "x1^2"], ["x1", "x0^2"],
                                 ["x0", "x0*x1"]]},
                   "n must be an integer", id=f"n-{name}")
      for n, name in (("3", "string"), (None, "null"), (3.5, "float"))],
])
def test_invalid_instance_shape(capsys, tmp_path, payload, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "info", str(bad))
    assert code == 1
    assert "error:" in err and "internal error" not in err
    assert named in err


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "--help")[0] == 0


def test_random_instance_function_rejects_rationals():
    from rees.field import RationalField
    with pytest.raises(ValueError, match="prime"):
        cli.random_instance(3, (1, 2), 0, RationalField())


def test_random_instances_are_loadable_across_seeds():
    field = PrimeField(32003)
    degrees = set()
    for seed in range(5):
        inp = cli.random_instance(3, (2, 4), seed, field)
        assert inp.n == 3
        degrees.add(str(inp.phi.rows[0][0]))
    assert len(degrees) > 1
