"""Command-line surface: JSON outputs, exit codes, round trips."""

import json
import subprocess
import sys

import pytest

from partible import congruence
from partible.cli import main
from partible.congruence import CongruenceReport
from partible.operators import operator_to_dict, profile
from partible.poly import parse_polynomial
from partible.sequences import apery_operator, apery_terms, delannoy_operator

APERY_JSON = {
    "order": 2,
    "coeffs": ["(k+1)^3", "-(2*k+3)*(17*k^2+51*k+39)", "(k+2)^3"],
    "field": "Q",
}


@pytest.fixture
def apery_file(tmp_path):
    path = tmp_path / "apery.json"
    path.write_text(json.dumps(APERY_JSON))
    return str(path)


def test_profile_command_and_roundtrip(apery_file, capsys):
    assert main(["profile", "--operator", apery_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d"] == 3
    assert data["nondegenerate"] is True
    assert data["roots"] == []
    prof = profile(apery_operator())
    assert tuple(parse_polynomial(t) for t in data["b_polys"]) == prof.b_polys
    assert parse_polynomial(data["indicator"].replace("s", "k")) == prof.indicator


def test_profile_delannoy_and_degenerate(tmp_path, capsys):
    dfile = tmp_path / "delannoy.json"
    dfile.write_text(json.dumps(operator_to_dict(delannoy_operator())))
    assert main(["profile", "--operator", str(dfile)]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 1

    sfile = tmp_path / "sigma1.json"
    sfile.write_text(json.dumps({"order": 1, "coeffs": ["-1", "1"], "field": "Q"}))
    assert main(["profile", "--operator", str(sfile)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["roots"] == [0] and data["nondegenerate"] is False


def test_profile_roundtrip_over_qz(tmp_path, capsys):
    dfile = tmp_path / "delannoy.json"
    dfile.write_text(json.dumps(operator_to_dict(delannoy_operator())))
    assert main(["profile", "--operator", str(dfile)]) == 0
    data = json.loads(capsys.readouterr().out)
    prof = profile(delannoy_operator())
    got = tuple(parse_polynomial(t, "Q(z)") for t in data["b_polys"])
    assert got == prof.b_polys
    assert parse_polynomial(data["indicator"], "Q(z)") == prof.indicator


def test_reduce_command_over_qz(tmp_path, capsys):
    dfile = tmp_path / "delannoy.json"
    dfile.write_text(json.dumps(operator_to_dict(delannoy_operator())))
    assert main(["reduce", "--operator", str(dfile), "--poly", "(2*k+1)^2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["remainder"] == "(1)/(z)"


def test_gamma_command(apery_file, capsys):
    assert main(["gamma", "--operator", apery_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"gamma": "-1/2", "candidates": ["-1/2"], "partible": True,
                    "order": 2, "d": 3}


@pytest.mark.parametrize("operator, expected", [
    # a center depending on z, on an operator with indicator root 0
    ({"order": 1, "coeffs": ["k + z", "-(k+1) - z"], "field": "Q(z)"},
     {"gamma": "-z", "candidates": ["-z"], "partible": False, "order": 1}),
    # constant coefficients: the conventional center 0
    ({"order": 2, "coeffs": ["1", "3", "1"], "field": "Q"},
     {"gamma": "0", "candidates": ["0"], "partible": True, "order": 2, "d": 0}),
    # leading coefficients 1/z and 1: no sign makes the pair mirror
    ({"order": 1, "coeffs": ["1/z*k + 1", "k"], "field": "Q(z)"},
     {"gamma": None, "candidates": [], "partible": False, "order": 1}),
], ids=["z-dependent-center", "constant", "no-center"])
def test_gamma_command_centers(operator, expected, tmp_path, capsys):
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(operator))
    assert main(["gamma", "--operator", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == expected


def test_reduce_command(apery_file, capsys):
    assert main(["reduce", "--operator", apery_file,
                 "--poly=-8*(2*k+1)^3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"x": "2", "exceptional": {}, "remainder": "0"}


def test_constants_command(apery_file, capsys):
    assert main(["constants", "--family", "apery", "--r-max", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [(e["r"], e["c"]) for e in data["entries"]] == [(0, "1"), (1, "0"), (2, "1")]
    assert main(["constants", "--family", "delannoy_number", "--r-max", "1",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [(e["r"], e["c"]) for e in data["entries"]] == [(0, "1"), (1, "13")]
    assert main(["constants", "--family", "delannoy_poly", "--r-max", "0",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"] == [{"r": 0, "c": "(1)/(z)"}]
    assert data["z_in_denominator"] is True


def test_verify_command_passes(capsys):
    assert main(["verify", "--family", "apery", "--r-max", "1",
                 "--p-max", "20", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 2 * 6  # r in {0,1} x primes {5,7,11,13,17,19}
    assert sorted({row["p"] for row in rows}) == [5, 7, 11, 13, 17, 19]
    assert all(row["passed"] for row in rows)


def test_verify_parity_flag_checks_symbolic_delannoy_constants(capsys):
    assert main(["verify", "--family", "delannoy_poly", "--parity", "even", "--r-max", "2",
                 "--p-max", "40", "--z", "2", "3", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 3 * (11 + 10)  # r <= 2; the odd primes <= 40 prime to z = 2 and 3
    assert all(row["passed"] and row["power"] == 2 * row["r"] + 2 for row in rows)
    assert main(["verify", "--family", "delannoy_number", "--parity", "odd", "--r-max", "1",
                 "--p-max", "20", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows and all(row["passed"] and row["power"] == 2 * row["r"] + 1 for row in rows)


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = CongruenceReport(
        family="apery", r=0, p=5, e=3, power=1, z=None,
        lhs=1, rhs=2, passed=False, elapsed=0.0,
    )
    monkeypatch.setattr("partible.cli.sweep", lambda *a, **kw: [failing])
    assert main(["verify", "--family", "apery", "--r-max", "0",
                 "--p-max", "10"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_raising_cell_reports_its_cell_and_error(monkeypatch, capsys):
    real = congruence.rational_to_residue

    def fails_at_7(q, m):
        if m == 7 ** 3:
            raise ZeroDivisionError("boom")
        return real(q, m)

    monkeypatch.setattr(congruence, "rational_to_residue", fails_at_7)
    failed = [rep for rep in congruence.sweep("apery", 1, 20) if not rep.passed]
    assert [(rep.r, rep.p, rep.e, rep.power, rep.lhs, rep.rhs) for rep in failed] == [
        (0, 7, 3, 1, None, None), (1, 7, 3, 3, None, None)]
    assert all(rep.error == "ZeroDivisionError: boom" for rep in failed)

    assert main(["verify", "--family", "apery", "--r-max", "1", "--p-max", "20"]) == 1
    out = capsys.readouterr().out.splitlines()
    rows = [json.loads(line) for line in out if line.startswith("{")]
    assert [row for row in rows if not row["passed"]] == [
        dict(rep.to_dict(), elapsed=0.0) for rep in failed]
    assert [line for line in out if line.startswith("# FAIL")] == [
        "# FAIL r=0 p=7: lhs=None rhs=None ZeroDivisionError: boom",
        "# FAIL r=1 p=7: lhs=None rhs=None ZeroDivisionError: boom",
    ]


def test_guess_command(tmp_path, capsys):
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps([str(t) for t in apery_terms(30)]))
    assert main(["guess", "--terms", str(terms), "--order", "2", "--deg", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == operator_to_dict(apery_operator())

    powers = tmp_path / "pow2.json"
    powers.write_text(json.dumps(["1", "2", "4", "8", "16"]))
    assert main(["guess", "--terms", str(powers), "--order", "1", "--deg", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coeffs"] == ["-2", "1"]

    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps([str((n * n + 7) ** n % 10 ** 9 + 1) for n in range(30)]))
    assert main(["guess", "--terms", str(noise), "--order", "1", "--deg", "1"]) == 0
    assert capsys.readouterr().out.strip() == "none"


@pytest.mark.parametrize("items,index", [
    ([1.5, 2.5, 3.5], 0), ([1, True, 3], 1), ([[1], 2, 3], 0), ([None, 2], 0),
    ([1, 2, {}], 2), (["1", "2", "x"], 2), (["1", "2.0"], 1),
])
def test_guess_term_items_are_checked(tmp_path, capsys, items, index):
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps(items))
    assert main(["guess", "--terms", str(terms), "--order", "0", "--deg", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: term {index}")


def test_guess_accepts_integers_and_integer_strings(tmp_path, capsys):
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps([1, "2", 4, " 8 ", "-0", 32 * 10 ** 30]))
    assert main(["guess", "--terms", str(terms), "--order", "0", "--deg", "0"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "coeffs": ["(k"], "field": "Q"}))
    assert main(["profile", "--operator", str(bad)]) == 2
    assert main(["profile", "--operator", str(tmp_path / "missing.json")]) == 2
    assert main(["constants", "--family", "nope", "--r-max", "1"]) == 2
    few = tmp_path / "few.json"
    few.write_text(json.dumps(["1", "2"]))
    assert main(["guess", "--terms", str(few), "--order", "2", "--deg", "3"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("data", [
    {"order": "2", "coeffs": ["k + 1", "k", "k + 2"]},
    {"order": True, "coeffs": ["k + 1", "k + 2"]},
    {"order": -1, "coeffs": []},
    {"order": 1, "coeffs": ["k + 1", 3]},
], ids=["string-order", "bool-order", "negative-order", "non-string-coefficient"])
def test_malformed_operator_json_exits_2(data, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(data))
    assert main(["profile", "--operator", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "apery", "--r-max", "-1", "--p-max", "50"],
    ["verify", "--family", "apery", "--r-max", "1", "--p-max", "3"],
    ["verify", "--family", "delannoy_poly", "--r-max", "1", "--p-max", "50", "--z", "0"],
    ["constants", "--family", "apery", "--r-max", "-3"],
    ["constants", "--family", "apery", "--r-max", "2", "--z", "7"],
    ["verify", "--family", "apery", "--parity", "even", "--r-max", "2", "--p-max", "40"],
    ["guess", "--terms", "TERMS", "--order", "-1", "--deg", "2"],
    ["guess", "--terms", "TERMS", "--order", "1", "--deg", "-1"],
], ids=["negative-r-max", "no-admissible-prime", "z-zero", "empty-table", "ignored-z",
        "apery-even-parity", "guess-negative-order", "guess-negative-deg"])
def test_empty_runs_and_ignored_parameters_exit_2(argv, tmp_path, capsys):
    terms = tmp_path / "terms.json"  # a valid term file, so only the bound is wrong
    terms.write_text(json.dumps([str(t) for t in apery_terms(30)]))
    assert main([str(terms) if arg == "TERMS" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_console_entry_point():
    argv = [sys.executable, "-m", "partible.cli", "verify", "--family",
            "delannoy_number", "--r-max", "1", "--p-max", "12"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "passed=" in proc.stdout
    proc = subprocess.run(argv + ["--jobs", "2"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "unrecognized arguments: --jobs" in proc.stderr


def _run_cli(args, timeout=10):
    """python -m partible.cli under a timeout, so a hang fails the test."""
    return subprocess.run([sys.executable, "-m", "partible.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def test_profile_and_gamma_with_30_digit_indicator_constant(tmp_path):
    n = 10 ** 29 + 12345
    op = tmp_path / "big.json"
    op.write_text(json.dumps({"order": 1, "coeffs": [f"-(k - {n})", "k"], "field": "Q"}))
    proc = _run_cli(["profile", "--operator", str(op)])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["indicator"] == f"-s + {n - 1}"
    assert data["roots"] == [n - 1] and data["nondegenerate"] is False
    proc = _run_cli(["gamma", "--operator", str(op)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"gamma": f"{(n + 1) // 2}", "candidates": [f"{(n + 1) // 2}"],
                                       "partible": False, "order": 1}


def test_constants_with_large_prime_z_reports_unfactored_cofactor():
    z = 100000000000000000039
    proc = _run_cli(["constants", "--family", "delannoy_poly", "--z", str(z),
                     "--r-max", "2", "--json"])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["entries"][0] == {"r": 0, "c": f"1/{z}"}
    assert data["denominator_support"] == [z]  # reported once, not factored


def test_huge_exponent_is_rejected_quickly(apery_file):
    # ((9^999)^999)^999 would hold about 3e9 bits: refused at the second exponent;
    # (2^900*k+1)^999 passes the degree and per-number bounds, but holds about 9e8 bits
    for poly, column in (("k^100000000", 3), ("((9^999)^999)^999", 10),
                         ("(2^900*k+1)^999", 13)):
        proc = _run_cli(["reduce", "--operator", apery_file, "--poly", poly])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and f"column {column}" in proc.stderr


def test_deep_nesting_exits_2_and_sign_runs_parse(apery_file, capsys):
    # the 101st "(" is refused, at its column
    for poly, column in (("(" * 400 + "k" + ")" * 400, 101), ("-(" * 400 + "k" + ")" * 400, 202)):
        assert main(["reduce", "--operator", apery_file, f"--poly={poly}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"(column {column})" in captured.err
    assert main(["reduce", "--operator", apery_file, "--poly=" + "-" * 1200 + "k"]) == 0
    assert json.loads(capsys.readouterr().out)["remainder"] == "k"
