"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them); a FAIL assertion carries the offending cell.
"""

import random
import time
from fractions import Fraction

from partible.congruence import constant_table, derive_constant, sweep
from partible.operators import ShiftOperator, adjoint_apply, profile, telescope_sum_check
from partible.poly import Polynomial, parity_support
from partible.ratfunc import Z
from partible.reduction import center_scale, find_gamma, is_partible, partible_reduce, reduce
from partible.sequences import (
    apery_operator,
    apery_signed_operator,
    apery_signed_terms,
    apery_terms,
    builtin,
    delannoy_operator,
    delannoy_poly_terms,
    guess_annihilator,
)

K = Polynomial.variable()


def _report(name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f" ({extra})" if extra else ""))
    assert ok, name


def test_criterion_1_profiles_and_centers():
    started = time.perf_counter()
    ap = profile(apery_operator())
    de = profile(delannoy_operator())
    ok = (
        ap.d == 3 and ap.nondegenerate
        and de.d == 1 and de.nondegenerate
        and find_gamma(apery_operator()) == Fraction(-1, 2)
        and find_gamma(delannoy_operator()) == Fraction(-1, 2)
    )
    elapsed = time.perf_counter() - started
    _report("criterion 1: profiles d=3/d=1, both centers -1/2", ok and elapsed < 1.0,
            f"{elapsed:.3f}s")


def test_criterion_2_worked_identities():
    L = apery_operator()
    x0 = Polynomial.constant(2)
    x2 = 2 * (2 * K + 3) ** 2
    ell = 2 * K + 1
    ok = ell ** 3 == Fraction(-1, 8) * adjoint_apply(L, x0)
    ok = ok and ell ** 5 == ell - Fraction(1, 8) * adjoint_apply(L, x0) \
        - Fraction(1, 8) * adjoint_apply(L, x2)
    D = delannoy_operator(1)
    x1 = 2 * (2 * K + 3)
    x3 = 2 * (2 * K + 3) ** 3
    ok = ok and ell ** 2 == 1 - Fraction(1, 4) * adjoint_apply(D, x1)
    ok = ok and ell ** 4 == 13 - Fraction(9, 4) * adjoint_apply(D, x1) \
        - Fraction(1, 4) * adjoint_apply(D, x3)
    _report("criterion 2: worked adjoint identities (powers 3,5 and 2,4)", ok)


def test_criterion_3_constant_tables():
    started = time.perf_counter()
    ok = [derive_constant("apery", r) for r in range(3)] == [1, 0, 1]
    ok = ok and [derive_constant("delannoy_number", r) for r in range(2)] == [1, 13]
    apery = constant_table("apery", 10)
    signed = constant_table("apery_signed", 10)
    ok = ok and apery.denominator_support <= {2}
    ok = ok and signed.denominator_support <= {3}
    elapsed = time.perf_counter() - started
    _report("criterion 3: constant tables and denominator structure",
            ok and elapsed < 5.0, f"{elapsed:.3f}s")


def test_criterion_4_congruence_sweeps():
    started = time.perf_counter()
    failures = []
    for family, p_max in (("apery", 200), ("apery_signed", 200),
                          ("delannoy_number", 200)):
        for rep in sweep(family, 5, p_max):
            if not rep.passed:
                failures.append(rep)
    for rep in sweep("delannoy_poly", 5, 100, z_values=[1, 2, 3, 5]):
        if not rep.passed:
            failures.append(rep)
    elapsed = time.perf_counter() - started
    _report("criterion 4: sweeps mod p^3 / mod p across all families",
            not failures and elapsed < 300.0,
            f"{elapsed:.1f}s, failures={failures[:3]}" if failures else f"{elapsed:.1f}s")


def test_criterion_5_telescoping_oracle():
    cases = [
        ("apery", apery_operator(), apery_terms(40), 3),
        ("apery_signed", apery_signed_operator(), apery_signed_terms(40), 3),
        ("delannoy_number", delannoy_operator(1), delannoy_poly_terms(40, 1), 1),
        ("delannoy_poly", delannoy_operator(), delannoy_poly_terms(40, Z), 1),
    ]
    rng = random.Random(5)
    ok = True
    for name, L, terms, weight_deg in cases:
        # monomials up to degree 6 cover every x of degree <= 6 by linearity
        xs = [Polynomial.monomial(s) for s in range(7)]
        xs.append(Polynomial([rng.randint(-4, 4) for _ in range(6)] + [3]))
        for x in xs:
            for n in (1, 2, 7, 19, 30):
                ok = ok and telescope_sum_check(L, x, terms, n)
            lx = adjoint_apply(L, x)
            acc = 0
            for n in range(1, 31):
                acc = acc + lx.eval(n - 1) * terms[n - 1]
                boundary = x.eval(n - 1) * terms[n - 1] - x.eval(n - 2) * terms[n]
                if weight_deg == 3:
                    ok = ok and acc == n ** 3 * boundary
                    ok = ok and acc % n ** 3 == 0  # integer x: divisibility
                else:
                    ok = ok and acc == n * boundary
        if not ok:
            break
    _report("criterion 5: telescoped sums equal boundary closed forms", ok)


def _random_operator(rng, max_order=3, max_deg=4):
    order = rng.randint(1, max_order)
    coeffs = []
    for _ in range(order + 1):
        deg = rng.randint(0, max_deg)
        coeffs.append(Polynomial([Fraction(rng.randint(-6, 6)) for _ in range(deg + 1)]))
    if coeffs[-1].is_zero:
        coeffs[-1] = Polynomial.monomial(rng.randint(0, max_deg), rng.randint(1, 6))
    return ShiftOperator(coeffs)


def test_criterion_6_property_suites():
    rng = random.Random(60_61)
    ok = True

    # reduction exactness: 200 random (Q, L), deg Q <= 20, order <= 3
    for _ in range(200):
        L = _random_operator(rng)
        prof = profile(L)
        Q = Polynomial([Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                        for _ in range(rng.randint(1, 21))])
        res = reduce(Q, L)
        ok = ok and res.reassemble(L, prof) == Q
        ok = ok and (res.remainder.is_zero or res.remainder.degree < prof.d)
    _report("criterion 6a: reduction exactness on 200 random instances", ok)

    # parity of remainders for m <= 15 on all partible built-ins
    ok = True
    for L in (apery_operator(), apery_signed_operator(),
              delannoy_operator(), delannoy_operator(1)):
        cert = is_partible(L)
        for m in range(16):
            red = partible_reduce(m, L, cert)
            support = parity_support([red.u_coeffs.get(i, Fraction(0))
                                      for i in range(cert.d)])
            ok = ok and support in ("zero", "odd" if m % 2 else "even")
    _report("criterion 6b: remainder parity for m <= 15", ok)

    # degree law on built-ins plus 50 random operators
    ok = True
    operators = [apery_operator(), apery_signed_operator(), delannoy_operator(1)]
    while len(operators) < 53:
        operators.append(_random_operator(rng))
    for L in operators:
        prof = profile(L)
        for _ in range(4):
            s = rng.randint(0, 7)
            x = Polynomial([Fraction(rng.randint(-5, 5)) for _ in range(s)]
                           + [Fraction(rng.randint(1, 5))])
            img = adjoint_apply(L, x)
            if s in prof.roots:
                ok = ok and img.degree < prof.d + s
            else:
                ok = ok and img.degree == prof.d + s
    _report("criterion 6c: degree law on built-ins + 50 random operators", ok)

    # scaling irrelevance of the u-coefficients: with each x_j rescaled to 5/3 (k - gamma + J/2)^j
    # and v_j inversely, the same u rebuild w^m through adjoint_apply
    ok = True
    for L in (apery_operator(), delannoy_operator()):
        cert = is_partible(L)
        w = center_scale(cert.gamma) * (K - cert.gamma)
        for m in (4, 7, 11):
            red = partible_reduce(m, L, cert)
            rebuilt = sum((u * w ** i for i, u in red.u_coeffs.items()), 0 * K)
            for j, v in red.v_coeffs.items():
                x = Fraction(5, 3) * (K - cert.gamma + Fraction(cert.order, 2)) ** j
                rebuilt += v * red.alphas[j] / Fraction(5, 3) * adjoint_apply(L, x)
            ok = ok and rebuilt == w ** m
    _report("criterion 6d: u-coefficients invariant under basis rescaling", ok)


def test_criterion_7_guesser_recovery():
    guessed = guess_annihilator(apery_terms(30), 2, 3)
    ok = guessed == apery_operator()
    guessed_d = guess_annihilator(delannoy_poly_terms(30, 1), 2, 1)
    ok = ok and guessed_d == delannoy_operator(1)
    _report("criterion 7: guesser recovers both built-in operators", ok)
