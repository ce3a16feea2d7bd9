"""Command-line surface: JSON outputs, exit codes, round trips."""

import json
import math
import subprocess
import sys

import pytest

from partible import congruence, reduction
from partible.cli import main
from partible.congruence import CongruenceReport
from partible.exact import primes_in_range
from partible.operators import operator_from_dict, operator_to_dict, profile
from partible.poly import PolynomialSyntaxError, parse_polynomial
from partible.reduction import ReductionResult
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


def test_reduce_command_parses_with_the_declared_field(tmp_path, capsys):
    # declared Q(z), but no coefficient holds z: --poly may still use z
    data = {"order": 2, "coeffs": ["k+1", "-(2*k+3)*3", "k+2"], "field": "Q(z)"}
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(data))
    assert main(["reduce", "--operator", str(path), "--poly", "z*k^3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exceptional"] == {}
    result = ReductionResult(parse_polynomial(out["x"], "Q(z)"), {},
                             parse_polynomial(out["remainder"], "Q(z)"))
    assert result.reassemble(operator_from_dict(data)) == parse_polynomial("z*k^3", "Q(z)")


def test_reduce_prints_numbers_past_the_int_digit_limit(apery_file, capsys, int_digit_limit):
    # 10^4995 passes every parser bound; printing it needs more than 4,300 digits
    assert main(["reduce", "--operator", apery_file, "--poly=(10^999)^5"]) == 0
    out = json.loads(capsys.readouterr().out)
    sys.set_int_max_str_digits(0)  # main restored the cap; reading x back needs it lifted
    result = ReductionResult(parse_polynomial(out["x"]), {}, parse_polynomial(out["remainder"]))
    assert result.reassemble(apery_operator()) == parse_polynomial("(10^999)^5")


def test_main_restores_the_int_digit_cap(apery_file, capsys, int_digit_limit):
    assert main(["reduce", "--operator", apery_file, "--poly=(10^999)^5"]) == 0
    assert sys.get_int_max_str_digits() == 4300
    with pytest.raises(PolynomialSyntaxError, match="4300") as info:
        parse_polynomial("1" * 4301)
    assert info.value.column == 1


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


@pytest.mark.parametrize("coeffs, index", [(["k + $", "k"], 0), (["k+1", "k + $"], 1)],
                         ids=["a_0", "a_1"])
def test_operator_parse_error_names_its_coefficient(coeffs, index, tmp_path, capsys):
    spec = {"order": 1, "coeffs": coeffs}
    with pytest.raises(PolynomialSyntaxError) as info:
        operator_from_dict(spec)
    assert (str(info.value), info.value.column) == (f"coefficient {index}: unexpected '$' (column 5)", 5)
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(spec))
    assert main(["profile", "--operator", str(path)]) == 2
    assert capsys.readouterr().err == f"error: coefficient {index}: unexpected '$' (column 5)\n"
    # a field the parser does not know is not a parse error of one coefficient
    with pytest.raises(ValueError, match=r"^unknown field 'R'$"):
        operator_from_dict({**spec, "field": "R"})


@pytest.mark.parametrize("coeffs, partible", [
    (APERY_JSON["coeffs"], True),
    (["2*k+1", "k+3"], False),  # nondegenerate, and its one candidate center fails the mirror check
    (["k+1", "-(k+3)"], False),  # a center, but indicator root 0
], ids=["partible", "no-center", "degenerate"])
def test_gamma_command_checks_the_mirror_once(coeffs, partible, tmp_path, capsys, monkeypatch):
    calls = []
    mirrored = reduction._mirrored
    monkeypatch.setattr(reduction, "_mirrored", lambda *args: calls.append(args) or mirrored(*args))
    path = tmp_path / "operator.json"
    path.write_text(json.dumps({"order": len(coeffs) - 1, "coeffs": coeffs, "field": "Q"}))
    assert main(["gamma", "--operator", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["partible"] is partible
    assert len(calls) == 1


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


def test_guess_reads_terms_past_the_int_digit_limit(tmp_path, capsys, int_digit_limit):
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps([str(2 ** n) + "0" * 4999 for n in range(6)]))  # 2^n 10^4999
    assert main(["guess", "--terms", str(terms), "--order", "1", "--deg", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == ["-2", "1"]


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
    ["verify", "--family", "delannoy_poly", "--r-max", "0", "--p-max", "7", "--z", "1", "1"],
    ["constants", "--family", "delannoy_poly", "--r-max", "1", "--z", "0"],
    ["constants", "--family", "apery", "--r-max", "-3"],
    ["constants", "--family", "apery", "--r-max", "2", "--z", "7"],
    ["verify", "--family", "apery", "--parity", "even", "--r-max", "2", "--p-max", "40"],
    ["guess", "--terms", "TERMS", "--order", "-1", "--deg", "2"],
    ["guess", "--terms", "TERMS", "--order", "1", "--deg", "-1"],
], ids=["negative-r-max", "no-admissible-prime", "z-zero", "repeated-z", "constants-z-zero",
        "empty-table", "ignored-z", "apery-even-parity", "guess-negative-order", "guess-negative-deg"])
def test_empty_runs_and_ignored_parameters_exit_2(argv, tmp_path, capsys):
    terms = tmp_path / "terms.json"  # a valid term file, so only the bound is wrong
    terms.write_text(json.dumps([str(t) for t in apery_terms(30)]))
    assert main([str(terms) if arg == "TERMS" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if "--z" in argv and argv[argv.index("--z") + 1] == "0":
        assert captured.err == "error: delannoy_poly needs a nonzero integer z\n"
    if argv[-2:] == ["1", "1"]:
        assert captured.err == "error: delannoy_poly got z=1 more than once\n"


def test_console_entry_point():
    argv = [sys.executable, "-m", "partible.cli", "verify", "--family",
            "delannoy_number", "--r-max", "1", "--p-max", "12"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "passed=" in proc.stdout
    proc = subprocess.run(argv + ["--jobs", "2"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "unrecognized arguments: --jobs" in proc.stderr


def test_cli_imports_neither_dataclasses_nor_inspect():
    # a CLI call pays for its imports first; dataclasses pulls in inspect, ast and dis
    code = "import sys, partible.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def test_profile_with_a_root_search_past_every_prime_below_10000(tmp_path):
    # the indicator (s - 5)(s - a) with a - 5 the product of the primes below 10^4:
    # every smaller prime sees a double root, so h mod p is squarefree at no smaller prime
    b, a = 5, math.prod(primes_in_range(2, 10 ** 4)) + 5
    c1, c0 = 1 - a - b, a * b
    op = tmp_path / "primes.json"
    op.write_text(json.dumps({"order": 2, "coeffs": [
        "k^2", f"-2*(k+1)^2 + ({c1})*(k+1)", f"(k+2)^2 - ({c1})*(k+2) + {c0}"], "field": "Q"}))
    proc = _run_cli(["profile", "--operator", str(op)], timeout=15)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["roots"] == [b, a]


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


def test_deeply_nested_json_is_an_input_error(tmp_path):
    # json.load raises RecursionError here; exit 1 is kept for a failed cell
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for args in (["profile", "--operator", str(deep)],
                 ["guess", "--terms", str(deep), "--order", "1", "--deg", "1"]):
        proc = _run_cli(args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "" and proc.stderr.startswith("error: ") and "nested" in proc.stderr


def test_symbolic_delannoy_reduce_of_k40_is_quick(tmp_path):
    # each step of the fraction-free loop multiplies by a polynomial in z instead
    # of normalising a rational function; in the field this took about 30 s
    op = tmp_path / "delannoy.json"
    op.write_text(json.dumps({"order": 2, "coeffs": ["k+1", "-(2*k+3)*(2*z+1)", "k+2"],
                              "field": "Q(z)"}))
    proc = _run_cli(["reduce", "--operator", str(op), "--poly", "k^40"], timeout=15)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["remainder"] != "0"


def test_apery_reduce_of_k1000_is_quick(apery_file):
    # the monomial images and the loop run on int coefficients; on Fraction
    # coefficients this took about 19 s
    proc = _run_cli(["reduce", "--operator", apery_file, "--poly", "k^1000"], timeout=15)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["exceptional"] == {}
    assert 0 <= parse_polynomial(data["remainder"]).degree < 3


@pytest.mark.parametrize("command", [["constants"], ["verify", "--p-max", "7"]],
                         ids=["constants", "verify"])
def test_r_max_is_bounded_by_the_exponent_limit(command, capsys):
    # 2r+2 = 1002 passes poly.MAX_EXPONENT = 1000
    argv = [command[0], "--family", "apery", "--r-max", "500", *command[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "above 1000" in captured.err


class _SieveReached(Exception):
    pass


def test_p_max_is_bounded_before_the_sieve(capsys, monkeypatch):
    # the sieve allocates p_max + 1 bytes; a refused p_max must not reach it
    def sieve(lo, hi):
        raise _SieveReached(hi)

    monkeypatch.setattr(congruence, "primes_in_range", sieve)
    assert main(["verify", "--family", "apery", "--r-max", "0", "--p-max", "5001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p = 5001 is above 5000\n"
    with pytest.raises(_SieveReached):
        main(["verify", "--family", "apery", "--r-max", "0", "--p-max", "5000"])


class _TermsReached(Exception):
    pass


def test_z_size_is_bounded_before_any_term(capsys, monkeypatch):
    # a 200-digit z took 21.9 s to generate 600 terms; the bound refuses it before any term is built
    def term_lists(*args, **kwargs):
        raise _TermsReached

    monkeypatch.setattr(congruence, "term_lists", term_lists)
    argv = ["verify", "--family", "delannoy_poly", "--r-max", "0", "--p-max", "1000", "--z", "2"]
    assert main(argv + [str(2 ** 32 + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: a z of 33 bits is above 32 bits\n"
    for z in (2 ** 32 - 1, -(2 ** 32 - 1)):
        with pytest.raises(_TermsReached):
            main(argv + [str(z)])
    proc = _run_cli(argv[:-1] + [str(10 ** 199 + 7), "--json"], timeout=1)
    assert proc.returncode == 2 and proc.stdout == "" and "above 32 bits" in proc.stderr


def test_z_list_is_bounded_before_the_sweep(capsys, monkeypatch):
    # a sweep holds every z's terms at once: five 32-bit z at --p-max 2000 peaked at 68.9 MB, against
    # 40.2 MB with one z's terms alive at a time; the list may hold the terms of one 32-bit z at 5000
    def sieve(lo, hi):
        raise _SieveReached(hi)

    monkeypatch.setattr(congruence, "primes_in_range", sieve)
    zs = [str(2 ** 32 - d) for d in (1, 5, 17, 65, 99)]
    admitted = [(2500, zs[:4]), (5000, [str(2 ** 15), str(-(2 ** 12))]), (5000, zs[:1]), (2000, zs)]
    refused = [(2500, zs), (5000, [str(2 ** 15), str(-(2 ** 13))]), (5000, zs[:2])]
    argv = ["verify", "--family", "delannoy_poly", "--r-max", "0", "--p-max"]
    for p_max, z in admitted:  # the second list is at the budget
        with pytest.raises(_SieveReached):
            main(argv + [str(p_max), "--z", *z])
    for p_max, z in refused:
        assert main(argv + [str(p_max), "--z", *z]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: the terms of {len(z)} z values at p = {p_max} are above those of one "
            f"32-bit z at p = 5000\n")


class _ReductionReached(Exception):
    pass


def test_symbolic_r_max_is_bounded_before_any_reduction(capsys, monkeypatch):
    # symbolic delannoy_poly took 3.3-5.3 s at r <= 180 and 3.8-5.0 s at r <= 190 on a 2-vCPU host;
    # tables over Q, at a given z, and at the parity whose sum vanishes keep the exponent bound
    def normal_forms(*args, **kwargs):
        raise _ReductionReached

    monkeypatch.setattr(congruence, "normal_forms", normal_forms)
    for argv in (["constants", "--family", "delannoy_poly", "--r-max", "181"],
                 ["verify", "--family", "delannoy_poly", "--parity", "even", "--r-max", "181", "--p-max", "7"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "r = 181 is above 180" in captured.err
        proc = _run_cli(argv + ["--json"], timeout=5)
        assert proc.returncode == 2 and proc.stdout == "" and "above 180" in proc.stderr
    for call in (lambda: congruence.derive_constant("delannoy_poly", 181),
                 lambda: congruence.constant_table("delannoy_poly", 181),
                 lambda: congruence.verify("delannoy_poly", 181, 7, z=2, power_parity="even"),
                 lambda: congruence.sweep("delannoy_poly", 181, 7, power_parity="even")):
        with pytest.raises(ValueError, match="r = 181 is above 180"):
            call()
    # the odd parity of delannoy_poly vanishes and runs no reduction
    assert main(["verify", "--family", "delannoy_poly", "--r-max", "499", "--p-max", "7", "--json"]) == 0
    capsys.readouterr()
    for argv in (["delannoy_poly", "--r-max", "180"], ["delannoy_poly", "--r-max", "181", "--z", "7"],
                 ["apery", "--r-max", "181"]):
        with pytest.raises(_ReductionReached):
            main(["constants", "--family", *argv])


def test_concrete_z_table_is_bounded_before_any_reduction(monkeypatch):
    # a table at a 662-bit z took 17.6 s at r <= 160, where bits(z) (r+1)^2 is 17.2 million
    big, readme_z = 10 ** 199 + 7, 100000000000000000039  # 662 and 67 bits
    proc = _run_cli(["constants", "--family", "delannoy_poly", "--z", str(big), "--r-max", "160", "--json"],
                    timeout=1)
    assert proc.returncode == 2 and proc.stdout == "" and "above the bound" in proc.stderr

    def normal_forms(*args, **kwargs):
        raise _ReductionReached

    monkeypatch.setattr(congruence, "normal_forms", normal_forms)
    for call in (lambda: congruence.constant_table("delannoy_poly", 160, z=big),
                 lambda: congruence.derive_constant("delannoy_poly", 160, z=big),
                 lambda: congruence.constant_table("delannoy_poly", 172, z=readme_z),
                 lambda: congruence.constant_table("delannoy_poly", 499, z=-256)):
        with pytest.raises(ValueError, match="above the bound"):
            call()
    # admitted: the README's z up to r = 171, an 8-bit z (about 3 s at r <= 499) and a 662-bit z
    # at r <= 53; the odd parity vanishes and runs no reduction
    for r, z in ((171, readme_z), (499, -255), (53, big)):
        assert z.bit_length() * (r + 1) ** 2 <= congruence.MAX_Z_TABLE_COST
        with pytest.raises(_ReductionReached):
            congruence.constant_table("delannoy_poly", r, z=z)
    assert congruence.derive_constant("delannoy_poly", 160, z=big, power_parity="odd") == 0


def test_reduce_on_z_denominators_is_quick(tmp_path):
    # over Q(z) held as Fraction tuples, each gcd ran Euclid over Fractions: about 535 s
    spec = {"order": 2, "coeffs": ["k^2/(z+1) + 3", "-(2*k+3)*(z-2)/(z^2+1)", "k/(2*z-1) + 1/2"],
            "field": "Q(z)"}
    op = tmp_path / "zden.json"
    op.write_text(json.dumps(spec))
    proc = _run_cli(["reduce", "--operator", str(op), "--poly", "(3/7*k+5/11)^20"], timeout=30)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["exceptional"] == {}
    assert 0 <= parse_polynomial(data["remainder"], "Q(z)").degree < profile(operator_from_dict(spec)).d


def test_symbolic_delannoy_constants_to_r28_are_quick():
    proc = _run_cli(["constants", "--family", "delannoy_poly", "--r-max", "28", "--json"], timeout=30)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert [e["r"] for e in data["entries"]] == list(range(29))
    assert data["entries"][2]["c"] == "(16*z^2 + 180*z + 225)/(z^3)"
