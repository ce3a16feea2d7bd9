"""Constant derivation and exact congruence verification."""

import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest

from partible import congruence, reduction, sequences
from partible.cli import main
from partible.congruence import (
    _RULES,
    HypothesisViolation,
    _add_coprime,
    _denominator_content,
    _power,
    constant_table,
    derive_constant,
    odd_power_sum_zero,
    odd_power_symbolic_zero,
    sweep,
    verify,
)
from partible.exact import (NonInvertibleDenominator, is_prime, legendre_symbol, primes_in_range,
                            rational_to_residue)
from partible.ratfunc import RationalFunction, Z, cancel_common
from partible.reduction import is_partible, normal_forms, partible_reduce
from partible.sequences import (_FAMILIES, UnknownFamily, builtin, delannoy_poly_terms, guess_annihilator,
                                term_lists)


def test_derive_constant_worked_values():
    assert derive_constant("apery", 0) == 1
    assert derive_constant("apery", 1) == 0
    assert derive_constant("apery", 2) == 1
    assert derive_constant("delannoy_number", 0) == 1
    assert derive_constant("delannoy_number", 1) == 13
    assert derive_constant("delannoy_poly", 0) == 1 / Z
    assert derive_constant("apery_signed", 0) == 1


def test_derive_constant_odd_delannoy_is_zero():
    for r in range(5):
        assert derive_constant("delannoy_poly", r, power_parity="odd") == 0
        assert derive_constant("delannoy_number", r, power_parity="odd") == 0


def test_derive_constant_specialization_consistency():
    for r in range(4):
        symbolic = derive_constant("delannoy_poly", r)
        for z0 in (1, 2, 5):
            assert symbolic.evaluate(z0) == derive_constant("delannoy_poly", r, z=z0)
    assert derive_constant("delannoy_poly", 1).evaluate(1) == 13


def test_derive_constant_rejections():
    with pytest.raises(ValueError):
        derive_constant("apery", 1, power_parity="even")
    with pytest.raises(ValueError):
        derive_constant("apery", -1)
    with pytest.raises(ValueError):
        derive_constant("delannoy_number", 0, z=2)
    with pytest.raises(ValueError):
        derive_constant("apery", 1, z=7)
    with pytest.raises(ValueError):
        constant_table("apery", 2, z=7)
    with pytest.raises(ValueError):
        constant_table("apery", -3)


def test_constant_table_denominator_structure():
    apery = constant_table("apery", 10)
    assert apery.denominator_support <= {2}
    signed = constant_table("apery_signed", 10)
    assert signed.denominator_support <= {3}
    sym = constant_table("delannoy_poly", 10)
    assert sym.z_in_denominator
    for c in sym.entries.values():
        # c lies in Z[1/(4z)]: a pure power of z in the monic denominator, a power of 2 in the numbers
        assert not isinstance(c, RationalFunction) or not any(c.den[:-1])
        n = _denominator_content(c)
        assert n & (n - 1) == 0


def test_constant_tables_share_no_mutable_state():
    # a table is a named tuple, so a mutable field default would be shared by every table
    first = constant_table("apery_signed", 4)
    assert first.denominator_support == {3}
    second = constant_table("delannoy_poly", 4, z=6)
    assert first.entries is not second.entries
    assert first.denominator_support is not second.denominator_support
    assert (first.denominator_support, second.denominator_support) == ({3}, {2, 3})


def test_denominator_support_is_pairwise_coprime():
    big = 100000000000000000039
    tables = [constant_table("apery", 10), constant_table("apery_signed", 10),
              constant_table("delannoy_poly", 6)]
    tables += [constant_table("delannoy_poly", 4, z=z) for z in (6, -12, 30, big, 3 * big)]
    for table in tables:
        support = sorted(table.denominator_support)
        assert all(n > 1 for n in support)
        assert all(math.gcd(a, b) == 1 for i, a in enumerate(support) for b in support[i + 1:])
    assert tables[-2].denominator_support == {big}
    assert tables[-1].denominator_support == {3, big}


def test_denominator_content_reads_the_monic_numerator():
    # the lcm of the denominators of num / den[-1]: 2/(2z+1) = 1/(z + 1/2) has none,
    # (z + 3)/(4z^2 + 2) = (1/4 z + 3/4)/(z^2 + 1/2) has 4
    assert _denominator_content(RationalFunction((2,), (1, 2))) == 1
    assert _denominator_content(RationalFunction((3, 1), (2, 0, 4))) == 4
    assert _denominator_content(RationalFunction((), (1,))) == 1
    assert _denominator_content(Fraction(5, 6)) == 6


def test_add_coprime_splits_shared_factors():
    p, q, r = 10 ** 9 + 7, 10 ** 9 + 9, 998244353
    support = set()
    for n in (p * q, q * r, p ** 3, r):
        _add_coprime(support, n)
    assert support == {p, q, r}


def _trial_factors(n: int) -> set[int]:
    """The primes below _TRIAL_LIMIT dividing n, by trial division, plus what is left of n."""
    out, f = set(), 2
    while f * f <= n and f < congruence._TRIAL_LIMIT:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1 if f == 2 else 2
    return out | {n} - {1}


def _per_entry_support(dens) -> set:
    """Each denominator trial-divided on its own, then added prime by prime."""
    support = set()
    for n in dens:
        for q in _trial_factors(n):
            _add_coprime(support, q)
    return support


def test_denominator_support_matches_the_per_entry_search(monkeypatch):
    rng = random.Random(28)
    small = [2, 3, 5, 7, 97, 9973]
    large = [10007, 10009, 99991, 1000003, 998244353, 10 ** 9 + 7, 100000000000000000039]
    for _ in range(60):
        dens = []
        for _ in range(rng.randint(1, 6)):
            n = math.prod(rng.choices(small, k=rng.randint(0, 4)))
            kind = rng.randrange(3)  # small primes only, a large prime power, two large primes
            if kind == 1:
                n *= rng.choice(large) ** rng.randint(1, 3)
            elif kind == 2:
                n *= math.prod(rng.sample(large, 2))
            dens.append(n)
        entries = {r: Fraction(1, n) for r, n in enumerate(dens)}
        monkeypatch.setattr(congruence, "_constants", lambda *args: entries)
        assert constant_table("apery", len(dens) - 1).denominator_support == _per_entry_support(dens)


def _integral_at(table, p):
    """v_p(c_r) >= 0 for every table entry (numeric part for symbolic z)."""
    return all(_denominator_content(c) % p for c in table.entries.values())


def test_integrality_check():
    apery = constant_table("apery", 10)
    assert _integral_at(apery, 5)
    assert _integral_at(apery, 97)
    signed = constant_table("apery_signed", 10)
    assert _integral_at(signed, 7)
    assert not _integral_at(signed, 3)  # c_1 = -1/3
    assert not _integral_at(constant_table("delannoy_poly", 2, z=6), 3)
    assert not is_prime(4)  # v_p is read only at primes
    # 2 may legitimately divide apery denominators (e.g. 1/8-type entries)
    bad2 = all(Fraction(c).denominator % 2 for c in apery.entries.values())
    assert _integral_at(apery, 2) == bad2


def test_verify_worked_cells():
    rep = verify("apery", 0, 7)
    assert rep.passed and rep.lhs == 7 and rep.rhs == 7 and rep.e == 3
    rep = verify("apery", 1, 5)
    assert rep.passed and rep.lhs == 0 and rep.rhs == 0
    rep = verify("delannoy_poly", 3, 11, z=2)
    assert rep.passed and rep.lhs == 0
    rep = verify("apery_signed", 0, 5)
    assert rep.passed and rep.rhs == (-5) % 125 == 120
    assert legendre_symbol(5, 3) == -1


def test_delannoy_number_base_congruence():
    # sum D_k == (-1/p) mod p, the anchor for the even-power family
    for p in primes_in_range(5, 60):
        total = sum(delannoy_poly_terms(p, 1)) % p
        assert total == legendre_symbol(-1, p) % p


def test_verify_even_parity_delannoy_poly():
    rep = verify("delannoy_poly", 1, 13, z=3, power_parity="even")
    assert rep.passed and rep.power == 4


def test_verify_rejects_negative_r():
    # a vanishing parity derives no constant, so r < 0 must not reach the weights
    for kwargs in (dict(family="delannoy_poly", z=1),
                   dict(family="delannoy_number", power_parity="odd"),
                   dict(family="apery")):
        with pytest.raises(ValueError, match="^r must be nonnegative$"):
            verify(r=-1, p=5, **kwargs)


def test_verify_reports_a_raising_right_side(monkeypatch):
    def raises(q, m):
        raise NonInvertibleDenominator("boom")

    monkeypatch.setattr(congruence, "rational_to_residue", raises)
    rep = verify("apery", 2, 7)
    assert (rep.r, rep.p, rep.e, rep.power, rep.lhs, rep.rhs, rep.passed) == (
        2, 7, 3, 5, None, None, False)
    assert rep.error == "NonInvertibleDenominator: boom"
    with pytest.raises(HypothesisViolation):  # a violated hypothesis still raises
        verify("apery", 2, 9)


def _fields_dict(rep):
    """to_dict's reference: the fields in order, elapsed rounded, z and error dropped when None."""
    out = {}
    for name in rep._fields:
        value = getattr(rep, name)
        if value is not None or name not in rep._field_defaults or rep._field_defaults[name] is not None:
            out[name] = round(value, 6) if name == "elapsed" else value
    return out


def test_report_to_dict_matches_its_fields(monkeypatch):
    reports = [verify("apery", 1, 7), verify("delannoy_poly", 1, 7, z=-3, power_parity="even")]
    monkeypatch.setattr(congruence, "rational_to_residue", lambda q, m: 1 // 0)
    reports += [verify("apery", 1, 7), verify("delannoy_poly", 1, 7, z=-3, power_parity="even")]
    assert [(rep.passed, rep.z, rep.error is None) for rep in reports] == [
        (True, None, True), (True, -3, True), (False, None, False), (False, -3, False)]
    for rep in reports + [reports[0]._replace(elapsed=0.123456789)]:
        out = rep.to_dict()
        assert json.dumps(out) == json.dumps(_fields_dict(rep))
        assert out is not rep.to_dict() and out["elapsed"] == round(rep.elapsed, 6)


@pytest.mark.parametrize("k0", [18, 22])
@pytest.mark.parametrize("family, parity", [("apery", None), ("delannoy_poly", "odd")])
def test_every_prefix_sum_stops_at_its_prime(monkeypatch, family, parity, k0):
    # F(k0) + 1 moves the lhs of every cell whose sum reaches k0, those with p > k0, by
    # (2k0+1)^power; the right sides do not read F (apery's unit is p, and c_r = 0 at odd powers
    # of delannoy_poly), so those cells fail unless p^e divides (2k0+1)^power, as at 2*18+1 = 37
    def shifted(name, n, zs):
        return [[t + (k == k0) for k, t in enumerate(terms)] for terms in term_lists(name, n, zs)]

    monkeypatch.setattr(congruence, "term_lists", shifted)
    reports = sweep(family, 3, 60, power_parity=parity)
    failed = {(rep.r, rep.p) for rep in reports if not rep.passed}
    assert failed == {(rep.r, rep.p) for rep in reports
                      if rep.p > k0 and pow(2 * k0 + 1, rep.power, rep.p ** rep.e)}
    assert (k0 == 18) == any(rep.p == 37 and rep.passed for rep in reports)


def test_sweep_reports_a_raising_right_side_at_one_prime(monkeypatch):
    def raises_at_7(q, m):
        if m % 7 == 0:
            raise NonInvertibleDenominator("boom")
        return rational_to_residue(q, m)

    monkeypatch.setattr(congruence, "rational_to_residue", raises_at_7)
    for family, zs, parity in [("apery", None, None), ("delannoy_poly", [-3, 2], "even")]:
        reports = sweep(family, 3, 60, z_values=zs, power_parity=parity)
        at_7 = [rep for rep in reports if rep.p == 7]
        assert len(at_7) == 4 * len(zs or [None])
        assert all((rep.lhs, rep.rhs, rep.passed, rep.elapsed, rep.error) == (
            None, None, False, 0.0, "NonInvertibleDenominator: boom") for rep in at_7)
        assert all(rep.passed and rep.error is None for rep in reports if rep.p != 7)


def test_verify_hypothesis_violations():
    with pytest.raises(HypothesisViolation):
        verify("apery", 0, 3)
    with pytest.raises(HypothesisViolation):
        verify("apery", 0, 8)
    with pytest.raises(HypothesisViolation):
        verify("delannoy_poly", 0, 5, z=10)
    with pytest.raises(HypothesisViolation):
        verify("delannoy_poly", 0, 5)
    with pytest.raises(HypothesisViolation):
        verify("delannoy_number", 0, 2)


# family -> (e, smallest prime, parities with the default first, takes z)
RULES = {
    "apery": (3, 5, ("odd",), False),
    "apery_signed": (3, 5, ("odd",), False),
    "delannoy_number": (1, 3, ("even", "odd"), False),
    "delannoy_poly": (1, 3, ("odd", "even"), True),
}


@pytest.mark.parametrize("family", sorted(RULES))
def test_family_rules(family, capsys):
    e, low, parities, takes_z = RULES[family]
    assert tuple(_FAMILIES) == tuple(_RULES) == tuple(RULES)
    z, zs = (2, [2]) if takes_z else (None, None)
    below = primes_in_range(2, low - 1)[-1]
    cli = ["verify", "--family", family, "--r-max", "1"] + (["--z", "2"] if takes_z else [])

    rep = verify(family, 1, low, z=z)
    assert rep.passed and rep.e == e and rep.power == (3 if parities[0] == "odd" else 4)
    with pytest.raises(HypothesisViolation):
        verify(family, 1, below, z=z)
    assert {rep.p for rep in sweep(family, 1, low, z_values=zs)} == {low}
    with pytest.raises(HypothesisViolation):
        sweep(family, 1, below, z_values=zs)
    assert main(cli + ["--p-max", str(low), "--json"]) == 0
    assert main(cli + ["--p-max", str(below)]) == 2

    other = "even" if parities[0] == "odd" else "odd"
    if other in parities:
        assert verify(family, 1, 7, z=z, power_parity=other).passed
        # the default constant is that of the parity with a surviving power
        constant = 0 if other == "odd" else derive_constant(family, 1)
        assert derive_constant(family, 1, power_parity=other) == constant
        assert main(cli + ["--p-max", "7", "--parity", other, "--json"]) == 0
    else:
        with pytest.raises(HypothesisViolation):
            verify(family, 1, 7, z=z, power_parity=other)
        with pytest.raises(HypothesisViolation):
            derive_constant(family, 1, power_parity=other)
        assert main(cli + ["--p-max", "7", "--parity", other]) == 2

    with pytest.raises(HypothesisViolation):
        verify(family, 1, 7, z=None if takes_z else 2)
    if not takes_z:
        with pytest.raises(HypothesisViolation):
            derive_constant(family, 1, z=2)
        with pytest.raises(HypothesisViolation):
            sweep(family, 1, 7, z_values=[2])
        assert main(cli + ["--p-max", "7", "--z", "2"]) == 2
    capsys.readouterr()


def test_unknown_family():
    for call in (lambda: verify("nope", 0, 7), lambda: sweep("nope", 0, 7),
                 lambda: derive_constant("nope", 0), lambda: constant_table("nope", 0)):
        with pytest.raises(UnknownFamily):
            call()


def test_sweep_small_grids():
    reports = sweep("apery", 3, 50)
    assert {rep.p for rep in reports} == set(primes_in_range(5, 50))
    assert all(rep.passed for rep in reports)
    assert len(reports) == 4 * len(primes_in_range(5, 50))

    reports = sweep("delannoy_poly", 2, 30, z_values=[1, 2, 5])
    assert all(rep.passed for rep in reports)
    # gcd filter drops p | z cells
    assert not any(rep.p == 5 and rep.z == 5 for rep in reports)
    assert not any(rep.p == 2 for rep in reports)


def test_sweep_excludes_small_primes_for_apery():
    reports = sweep("apery", 1, 10)
    assert {rep.p for rep in reports} == {5, 7}


def test_sweep_rejects_empty_grids():
    with pytest.raises(ValueError):
        sweep("apery", -1, 50)
    with pytest.raises(HypothesisViolation):
        sweep("apery", 1, 3)
    with pytest.raises(HypothesisViolation):
        sweep("delannoy_poly", 1, 50, z_values=[0])
    with pytest.raises(HypothesisViolation):
        sweep("delannoy_poly", 1, 7, z_values=[1, 105])  # 3, 5, 7 all divide 105
    with pytest.raises(HypothesisViolation):
        sweep("delannoy_poly", 1, 50, z_values=[])
    with pytest.raises(HypothesisViolation):
        sweep("apery", 1, 50, z_values=[])
    with pytest.raises(ValueError):
        sweep("apery", 1, 50, power_parity="even")


def test_sweep_requires_integer_z():
    # verify's hypothesis on z, applied to every z of a sweep: nothing is truncated
    for zs in ([2.5], [1, 2.0], ["3"], [Fraction(2)], [True]):
        with pytest.raises(HypothesisViolation, match="needs a nonzero integer z"):
            sweep("delannoy_poly", 0, 7, z_values=zs)
    assert {rep.z for rep in sweep("delannoy_poly", 0, 7, z_values=[2, -3])} == {2, -3}


def test_float_z_and_terms_raise_and_bool_z_is_refused():
    # a float is not read as its binary value, and True is not the integer z = 1
    for call in (lambda: delannoy_poly_terms(3, 0.5),
                 lambda: builtin("delannoy_poly", 0.5),
                 lambda: guess_annihilator([1, 2, 4, 8, 0.1], 1, 0)):
        with pytest.raises(TypeError, match="unsupported coefficient type float"):
            call()
    # the constants refuse such a z as verify and sweep do; Fraction(2) is not the int 2 either
    for z in (0.1, True, Fraction(1, 2), Fraction(2)):
        for constants in (derive_constant, constant_table):
            with pytest.raises(HypothesisViolation, match="needs a nonzero integer z"):
                constants("delannoy_poly", 1, z=z)
    with pytest.raises(HypothesisViolation, match="needs a nonzero integer z"):
        verify("delannoy_poly", 1, 7, z=True)


def test_sweep_refuses_a_repeated_z():
    # each cell is checked and counted once; the message names the first repeat
    with pytest.raises(HypothesisViolation, match="z=1 more than once"):
        sweep("delannoy_poly", 0, 7, z_values=[1, 3, 1])
    with pytest.raises(HypothesisViolation, match="z=3 more than once"):
        sweep("delannoy_poly", 0, 7, z_values=[1, 3, 3, 1])


class _Reached(Exception):
    pass


_ENTRY_POINTS = {
    "sweep": lambda r, p, zs: sweep("delannoy_poly", r, p, z_values=zs),
    "verify": lambda r, p, zs: verify("delannoy_poly", r, p, z=zs[0]),
    "constant_table": lambda r, p, zs: constant_table("delannoy_poly", r, z=zs[0]),
    "derive_constant": lambda r, p, zs: derive_constant("delannoy_poly", r, z=zs[0]),
}
_Z32 = [2 ** 32 - d for d in (1, 5, 17, 65, 99)]
_BOUNDS = [  # (r, p, zs, the refusal or None when admitted, the entry points it holds at)
    (-1, 7, [2], "^r must be nonnegative$", _ENTRY_POINTS),
    (500, 7, [2], "^r = 500 needs the power 1002, above 1000$", _ENTRY_POINTS),
    (499, 4999, _Z32[:1], None, _ENTRY_POINTS),
    (0, 5003, [2], "^p = 5003 is above 5000$", ("sweep", "verify")),
    (0, 7, [2 ** 32 + 1], "^a z of 33 bits is above 32 bits$", ("sweep", "verify")),
    (0, 5003, [2 ** 32 + 1], None, ("constant_table", "derive_constant")),  # no terms, no p
    (0, 2500, _Z32, "^the terms of 5 z values at p = 2500 are above those of one 32-bit z at "
                    "p = 5000$", ("sweep",)),
    (0, 5000, [2 ** 15, -(2 ** 12)], None, ("sweep",)),  # at the budget
]


@pytest.mark.parametrize("name", _ENTRY_POINTS)
def test_every_bound_raises_before_any_sieve_term_or_reduction(monkeypatch, name):
    # _rule decides every size bound of the four entry points, before the work it bounds starts
    def reached(*args, **kwargs):
        raise _Reached

    for target in ("primes_in_range", "term_lists", "builtin", "normal_forms"):
        monkeypatch.setattr(congruence, target, reached)
    for r, p, zs, refusal, names in _BOUNDS:
        if name not in names:
            continue
        with pytest.raises(_Reached if refusal is None else ValueError, match=refusal):
            _ENTRY_POINTS[name](r, p, zs)


def _python(code: str, timeout: float):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=timeout)


def test_large_requests_end_in_time():
    # each call runs for a minute or more if p is not bounded before the terms, or if the
    # repeated-z check is quadratic in the number of z
    proc = _python("from partible import verify; verify('apery', 0, 5003)", timeout=1)
    assert proc.returncode == 1 and "ValueError: p = 5003 is above 5000" in proc.stderr
    proc = _python("from partible.congruence import _rule; "
                   "_rule('delannoy_poly', None, 0, list(range(1, 100_001)), 7)", timeout=1)
    assert proc.returncode == 0, proc.stderr


def test_sweep_matches_direct_verify():
    # sweep reduces terms once per prime and shares constants; a direct
    # verify call generates its own terms and derives its own constant
    def cell(rep):
        out = rep.to_dict()
        del out["elapsed"]
        return out

    cases = [
        ("apery", None, None),
        ("apery_signed", None, None),
        ("delannoy_number", None, "even"),
        ("delannoy_number", None, "odd"),
        ("delannoy_poly", [-7, 1, 4], "odd"),
        ("delannoy_poly", [-7, 1, 4], "even"),
    ]
    r_max, p_max = 1, 30  # each direct even delannoy_poly cell derives c_r(z)
    for family, zs, parity in cases:
        swept = sweep(family, r_max, p_max, z_values=zs, power_parity=parity)
        low = 5 if family.startswith("apery") else 3
        direct = [
            verify(family, r, p, z=z, power_parity=parity)
            for r in range(r_max + 1)
            for p in primes_in_range(low, p_max)
            for z in (zs or [None])
            if z is None or z % p
        ]
        assert all(rep.passed for rep in direct)
        assert [cell(rep) for rep in swept] == [cell(rep) for rep in direct]


def test_constants_do_not_depend_on_p():
    # one normal-form pass per sweep, up to (2k+1)^7 for r <= 3, reused at every prime
    with mock.patch.object(congruence, "normal_forms", wraps=normal_forms) as forms:
        for p_max in (20, 80):
            forms.reset_mock()
            reports = sweep("apery", 3, p_max)
            assert forms.call_count == 1 and forms.call_args.args[0] == 7
            assert {rep.p for rep in reports} == set(primes_in_range(5, p_max))
            assert all(rep.passed for rep in reports)


@pytest.mark.parametrize("family, r_max, z", [
    ("apery", 40, None), ("apery_signed", 40, None), ("delannoy_number", 40, None),
    ("delannoy_poly", 10, None), ("delannoy_poly", 20, 3), ("delannoy_poly", 20, -7)])
def test_constant_table_matches_derive_constant_at_every_r(family, r_max, z):
    # the table's one pass, which derive_constant reads, against its oracle: partible_reduce per r
    parity, survivor = ("odd", 1) if family.startswith("apery") else ("even", 0)
    L = builtin(family, z).annihilator
    cert = is_partible(L)
    reduced = {r: partible_reduce(_power(r, parity), L, cert).u_coeffs for r in range(r_max + 1)}
    assert constant_table(family, r_max, z=z).entries == {r: u.get(survivor, 0) for r, u in reduced.items()}
    assert derive_constant(family, r_max, z=z) == reduced[r_max].get(survivor, 0)
    if family.startswith("delannoy"):  # the odd powers lie in the difference space
        for r in range(11):
            assert partible_reduce(_power(r, "odd"), L, cert).u_coeffs == {}
            assert derive_constant(family, r, z=z, power_parity="odd") == 0


def test_vanishing_parity_is_checked_against_the_certificate(monkeypatch):
    # apery has d = 3, so its odd powers keep the coefficient of w^1: declaring that sum
    # vanishing must fail, not return zeros
    monkeypatch.setitem(_RULES, "apery", _RULES["apery"]._replace(parities={"odd": None}))
    for call in (lambda: constant_table("apery", 2), lambda: sweep("apery", 2, 7),
                 lambda: derive_constant("apery", 2)):
        with pytest.raises(AssertionError, match="keeps odd powers below d = 3"):
            call()


def test_sweep_evaluates_each_symbolic_constant_once_per_z():
    with mock.patch.object(RationalFunction, "evaluate", autospec=True,
                           side_effect=RationalFunction.evaluate) as evaluate:
        reports = sweep("delannoy_poly", 3, 60, z_values=[-3, 2, 7], power_parity="even")
    assert evaluate.call_count == 3 * 4
    assert all(rep.passed for rep in reports)


def test_sweep_steps_the_definition_rows_once():
    # the rows C(m,i) C(m+i,i) do not depend on z: one pass is evaluated at every z
    cases = [("delannoy_poly", [-3, 2, 7], parity) for parity in ("odd", "even")] + [("apery", None, None)]
    for family, zs, parity in cases:
        with mock.patch.object(sequences, "binomial_rows", side_effect=sequences.binomial_rows) as rows:
            reports = sweep(family, 3, 60, z_values=zs, power_parity=parity)
        assert rows.call_count == 1, (family, parity)
        assert all(rep.passed for rep in reports)


def _tamper_step(monkeypatch, family, step, change):
    """family, after the pass's cancel_common call number step is made to return change(a, b)."""
    calls = itertools.count()

    def cancel(x, y):
        a, b = cancel_common(x, y)
        return change(a, b) if next(calls) == step else (a, b)

    monkeypatch.setattr(reduction, "cancel_common", cancel)
    return family


def _tamper_image(monkeypatch, family, j, change):
    """family, after image j of the basis the pass reads is made change(I)."""
    basis = reduction.adjoint_basis

    def tampered(L, cert):
        image = basis(L, cert)
        return lambda i: (tuple(change(list(image(i)[0]))), image(i)[1]) if i == j else image(i)

    monkeypatch.setattr(reduction, "adjoint_basis", tampered)
    return family


def _plus_one_at(i):
    return lambda I: I[:i] + [I[i] + 1] + I[i + 1:]


# each in-pass tamper names its family and must fail the residual audit; the others read apery
@pytest.mark.parametrize("patch, match", [
    # apery's first step has b = 0, so the sign of the second one's (power 5) is flipped
    pytest.param(lambda monkeypatch: _tamper_step(monkeypatch, "apery", 1, lambda a, b: (a, -b)),
                 "power 5 failed the residual audit", id="flipped b"),
    # delannoy_poly's first step has a = z; apery's steps up to r = 8 all have a = 1
    pytest.param(lambda monkeypatch: _tamper_step(monkeypatch, "delannoy_poly", 0, lambda a, b: (1, b)),
                 "power 2 failed the residual audit", id="dropped rescale"),
    # the pass reads only the entries of the parity s: the odd powers for apery, the even for
    # delannoy_poly, at the images j = m - d of an even j for apery and an odd j for delannoy_poly
    pytest.param(lambda monkeypatch: _tamper_image(monkeypatch, "apery", 2, _plus_one_at(0)),
                 "power 5 failed the residual audit", id="other parity apery"),
    pytest.param(lambda monkeypatch: _tamper_image(monkeypatch, "delannoy_poly", 3, _plus_one_at(1)),
                 "power 4 failed the residual audit", id="other parity delannoy_poly"),
    pytest.param(lambda monkeypatch: _tamper_image(monkeypatch, "apery", 4, lambda I: I + [1]),
                 "power 7 failed the residual audit", id="one degree too long"),
    # a certificate of d = 5 keeps w^1 and w^3 below d at the odd powers, against the one survivor 1
    (lambda monkeypatch: monkeypatch.setattr(
        congruence, "is_partible", lambda L: is_partible(L)._replace(d=5)), r"unexpected surviving powers \[3\]"),
    # apery's odd powers keep w^1 below d = 3, so a survivor w^3 is refused before any pass
    (lambda monkeypatch: monkeypatch.setitem(
        _RULES, "apery", _RULES["apery"]._replace(parities={"odd": 3})), r"below d = 3: \[1\]")])
def test_constant_table_audits_its_pass(monkeypatch, patch, match):
    family = patch(monkeypatch) or "apery"
    with pytest.raises(AssertionError, match=match):
        constant_table(family, 5)


def _definition_terms(family, n, z=None):
    """F(0) .. F(n-1) summed here from math.comb, sharing no code with the library."""
    out = []
    for k in range(n):
        if family.startswith("apery"):
            a = sum(math.comb(k, j) ** 2 * math.comb(k + j, j) ** 2 for j in range(k + 1))
            out.append(-a if family == "apery_signed" and k % 2 else a)
        else:
            out.append(sum(math.comb(k, j) * math.comb(k + j, j) * (z or 1) ** j
                           for j in range(k + 1)))
    return out


def test_sweep_left_sides_match_a_math_comb_oracle():
    # every lhs of a sweep is the definition sum, whatever way its weights are formed; with
    # several z, z = 59 drops the prime 59, so the z differ in their largest admissible prime
    cases = [(family, parity, [None]) for family, (_, _, parities, takes_z) in RULES.items()
             if not takes_z for parity in parities]
    cases += [("delannoy_poly", parity, zs) for parity in ("odd", "even")
              for zs in ([2], [-3], [2, -3, 59])]
    assert len(cases) == 10
    r_max, p_max = 6, 60
    for family, parity, zs in cases:
        e = RULES[family][0]
        terms = {z: _definition_terms(family, p_max, z) for z in zs}
        reports = sweep(family, r_max, p_max, z_values=None if zs == [None] else zs,
                        power_parity=parity)
        primes = {z: [p for p in primes_in_range(RULES[family][1], p_max) if z is None or z % p]
                  for z in zs}
        assert sorted((rep.z or 0, rep.p, rep.r) for rep in reports) == sorted(
            (z or 0, p, r) for z in zs for p in primes[z] for r in range(r_max + 1))
        for rep in reports:
            m = rep.p ** e
            power = 2 * rep.r + (1 if parity == "odd" else 2)
            lhs = sum(pow(2 * k + 1, power, m) * terms[rep.z][k] for k in range(rep.p)) % m
            assert (rep.power, rep.lhs, rep.passed) == (power, lhs, True), (family, parity, rep.z)


def test_odd_power_sum_zero():
    assert odd_power_sum_zero(5, 0)
    assert sum(range(1, 10, 2)) == 25
    assert odd_power_sum_zero(7, 2)
    assert odd_power_sum_zero(11, 5)
    with pytest.raises(ValueError):
        odd_power_sum_zero(2, 1)


def test_odd_power_symbolic_zero():
    for p in (3, 5, 11, 17):
        for r in (0, 1, 3):
            assert odd_power_symbolic_zero(p, r)
    for p, r in ((3, 0), (7, 2), (13, 1), (29, 4)):  # against the coefficients from math.comb
        coefficients = [
            sum((2 * k + 1) ** (2 * r + 1) * math.comb(k, i) * math.comb(k + i, i)
                for k in range(p))
            for i in range(p)
        ]
        assert odd_power_symbolic_zero(p, r) == all(c % p == 0 for c in coefficients)
