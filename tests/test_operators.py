"""Shift operators: adjoints, profiles, certificates, telescoping."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partible import operators
from partible.exact import primes_in_range
from partible.operators import (
    InsufficientTerms,
    ShiftOperator,
    adjoint_apply,
    annihilates,
    certificate,
    integer_roots,
    operator_from_dict,
    operator_to_dict,
    profile,
    telescope_sum_check,
)
from partible.poly import Polynomial
from partible.ratfunc import Z
from partible.sequences import (
    apery_operator,
    apery_signed_operator,
    apery_terms,
    delannoy_operator,
    delannoy_poly_terms,
)

K = Polynomial.variable()
SIGMA_MINUS_1 = ShiftOperator([-1, 1])


def test_operator_construction():
    L = apery_operator()
    assert L.order == 2
    assert L.field == "Q"
    assert delannoy_operator().field == "Q(z)"
    assert delannoy_operator(1).field == "Q"
    with pytest.raises(ValueError):
        ShiftOperator([Polynomial()])
    # trailing zero coefficients drop the order
    assert ShiftOperator([1, 0]).order == 0


def test_adjoint_examples():
    L = apery_operator()
    assert adjoint_apply(L, 2) == -8 * (2 * K + 1) ** 3
    assert adjoint_apply(L, 0).is_zero
    D = delannoy_operator()
    # (k+1)*2 - (2k+1)(2z+1)*2 + k*2 expanded by hand
    assert adjoint_apply(D, 2) == -4 * Polynomial.constant(Z) * (2 * K + 1)


def test_adjoint_linearity():
    rng = random.Random(12)
    L = apery_operator()
    for _ in range(20):
        x = Polynomial([rng.randint(-9, 9) for _ in range(5)])
        y = Polynomial([rng.randint(-9, 9) for _ in range(4)])
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        lhs = adjoint_apply(L, a * x + b * y)
        rhs = a * adjoint_apply(L, x) + b * adjoint_apply(L, y)
        assert lhs == rhs


def test_profile_apery():
    prof = profile(apery_operator())
    assert prof.d == 3
    assert prof.nondegenerate
    assert prof.roots == frozenset()
    assert prof.indicator == Polynomial.constant(-32)
    assert prof.b_polys[0] == -32 * K ** 3 - 48 * K ** 2 - 24 * K - 4
    assert prof.b_polys[1].coefficient(3) == -32
    assert prof.b_polys[2] == (K + 1) ** 3


def test_profile_shifts_each_coefficient_once(monkeypatch):
    calls = []
    subst_linear = Polynomial.subst_linear

    def counted(self, a, b):
        calls.append((a, b))
        return subst_linear(self, a, b)

    monkeypatch.setattr(Polynomial, "subst_linear", counted)
    for L in (apery_operator(), ShiftOperator([K + 1, K ** 2, -K, 2 * K + 3])):
        calls.clear()
        prof = profile.__wrapped__(L)  # past the cache
        assert len(calls) == L.order + 1
        assert prof == profile(L)


def test_profile_delannoy():
    prof = profile(delannoy_operator())
    assert prof.d == 1
    assert prof.nondegenerate


def test_profile_sigma_minus_one():
    prof = profile(SIGMA_MINUS_1)
    assert prof.b_polys[0].is_zero
    assert prof.b_polys[1] == Polynomial.constant(-1)
    assert prof.d == -1
    assert prof.indicator == -K  # -s as a polynomial
    assert prof.roots == frozenset({0})
    assert not prof.nondegenerate


def test_integer_roots():
    assert integer_roots(Polynomial.constant(-32)) == set()
    assert integer_roots(Polynomial((0, -1))) == {0}
    s = Polynomial.variable()
    assert integer_roots((s - 2) * (s + 1)) == {2}
    assert integer_roots((s - 1) * (s - 6) * (3 * s + 2)) == {1, 6}
    # lifted mod 2^4: 16 passes max|h_i| = 10 but not 2*10, and 10 is -6 in symmetric residues
    assert integer_roots((s - 10) * (s + 1)) == {10}
    # a linear h takes the same path: the root 0, a 30-digit root, a negative and a non-integral root
    assert integer_roots(7 * s) == {0}
    assert integer_roots(3 * s - 3 * (10 ** 29 + 7)) == {10 ** 29 + 7}
    assert integer_roots(s + 5) == set()
    assert integer_roots(2 * s - 5) == set()
    with pytest.raises(ValueError):
        integer_roots(Polynomial())


def test_integer_roots_over_qz():
    s = Polynomial.variable()
    zc = Polynomial.constant(Z)
    # (s - 2) * (z s + 1): s=2 kills it identically, nothing else does
    f = (s - 2) * (zc * s + 1)
    assert integer_roots(f) == {2}
    # z-dependent root only: z*s - 1 has no root independent of z
    assert integer_roots(zc * s - 1) == set()
    # every specialisation z0 has the second root z0, which is not a root in Q(z)
    assert integer_roots((s - 1) * (s - zc)) == {1}
    # a pole at z = 2
    assert integer_roots((s - 3) * (s + Polynomial.constant(1 / (Z - 2)))) == {3}
    # constant in s: the symbolic Delannoy indicator
    assert integer_roots(Polynomial.constant(-4 * Z)) == set()
    # coefficients in three powers of z
    assert integer_roots((s - 5) * (zc ** 2 * s + zc - 1) * (s - 7 * zc)) == {5}
    f = (s - 2) * (s - 4) * (s - zc - 2) * Polynomial.constant((Z + 1) / (Z - 3))
    assert integer_roots(f) == {2, 4}


_BIG = 10 ** 29  # 30-digit roots
_ROOTS = st.lists(st.tuples(
    st.one_of(st.integers(-60, 60), st.integers(_BIG, 10 * _BIG - 1), st.integers(-10 * _BIG + 1, -_BIG)),
    st.integers(1, 12),  # denominator
    st.integers(1, 3),  # multiplicity
), max_size=5)
# k*s^2 - n with k*n not a square (or n negative): no rational root
_QUADRATICS = st.lists(st.tuples(st.integers(1, 9), st.integers(-10 ** 6, 10 ** 6)).filter(
    lambda kn: kn[1] < 0 or math.isqrt(kn[0] * kn[1]) ** 2 != kn[0] * kn[1]), max_size=2)


@settings(deadline=2000, max_examples=80, derandomize=True)
@given(_ROOTS, _QUADRATICS, st.integers(-30, 30).filter(bool), st.integers(1, 30), st.booleans())
@example([(0, 1, 2), (-3, 1, 1), (5, 1, 3)], [], 1, 1, False)  # zero, negative, repeated
@example([(2, 3, 1), (-7, 4, 2), (1, 2, 1)], [], 6, 5, False)  # non-monic rational roots
@example([(_BIG + 7, 1, 1), (-(10 * _BIG - 1), 3, 2)], [(1, 2)], -5, 7, False)  # 30 digits
@example([(4, 1, 1)], [(1, -1), (3, 2), (1, 5)], 1, 1, True)  # quadratic factors, over Q(z)
# a triple root under the leading coefficient 2*3*5*7*11*13, which every small prime divides
@example([(6, 1, 3), (17, 30030, 1)], [], 30030, 1, False)
@example([(0, 3, 3)], [(1, 2)], 2, 1, False)  # 0 as a repeated root
def test_integer_roots_finds_planted_roots(roots, quadratics, lead, den, over_qz):
    s = Polynomial.variable()
    f = Polynomial.constant(Fraction(lead, den))
    for num, q, mult in roots:
        f = f * (q * s - num) ** mult
    for k, n in quadratics:
        f = f * (k * s ** 2 - n)
    planted = {Fraction(num, q) for num, q, _ in roots}
    if over_qz:  # the root 1/z is not in Q and must not be reported
        f = f * (Polynomial.constant(Z) * s - 1)
    assert integer_roots(f) == {int(r) for r in planted if r.denominator == 1 and r >= 0}


def test_integer_roots_skips_primes_without_a_residue_scan(monkeypatch):
    # a - 5 is divisible by every prime below 2000, so 5 and a are one double root mod each of
    # them; scanning every residue of every such prime took 279,392 Horner calls
    a = 5 + math.prod(primes_in_range(2, 2000))
    calls, horner = [], operators._horner
    monkeypatch.setattr(operators, "_horner", lambda coeffs, x: calls.append(x) or horner(coeffs, x))
    s = Polynomial.variable()
    assert integer_roots((s - 5) * (s - a)) == {5, a}
    assert len(calls) < 10_000


def test_certificate_matches_closed_forms():
    L = apery_operator()
    # generic x: compare against the stated closed forms on several x
    for x in (Polynomial.constant(2), (K + 1) ** 2, 3 * K ** 3 - K):
        us = certificate(L, x)
        u0 = K ** 3 * x.shift(-2) - (2 * K + 1) * (17 * K ** 2 + 17 * K + 5) * x.shift(-1)
        u1 = (K + 1) ** 3 * x.shift(-1)
        assert us == (u0, u1)
    assert certificate(L, 0) == (Polynomial(), Polynomial())
    # J = 1 case
    L1 = ShiftOperator([K + 5, (K - 1) ** 2])
    x = 2 * K + 1
    assert certificate(L1, x) == (((K - 1) ** 2 * x).shift(-1),)


def test_annihilates():
    L = apery_operator()
    assert annihilates(L, apery_terms(5))
    assert annihilates(L, apery_terms(30))
    geometric = ShiftOperator([-2, 1])
    assert annihilates(geometric, [1, 2, 4, 8])
    assert not annihilates(geometric, [1, 2, 5])
    with pytest.raises(InsufficientTerms):
        annihilates(L, [1, 5])


def test_annihilates_symbolic_delannoy():
    D = delannoy_operator()
    assert annihilates(D, delannoy_poly_terms(20, Z))


def test_telescope_sum_check_examples():
    L = apery_operator()
    A = apery_terms(40)
    assert telescope_sum_check(L, 2 * (2 * K + 3) ** 2, A, 5)
    assert telescope_sum_check(L, Polynomial(), A, 9)
    D3 = delannoy_operator(3)
    terms = delannoy_poly_terms(12, 3)
    assert telescope_sum_check(D3, 2, terms, 7)
    with pytest.raises(InsufficientTerms):
        telescope_sum_check(L, 2, A[:6], 5)


def test_telescope_all_builtins_monomials():
    cases = [
        (apery_operator(), apery_terms(36)),
        (apery_signed_operator(),
         [a if i % 2 == 0 else -a for i, a in enumerate(apery_terms(36))]),
        (delannoy_operator(1), delannoy_poly_terms(36, 1)),
        (delannoy_operator(), delannoy_poly_terms(36, Z)),
    ]
    for L, terms in cases:
        for s in range(7):
            assert telescope_sum_check(L, Polynomial.monomial(s), terms, 30)


def test_apery_partial_sums_collapse_to_boundary():
    L = apery_operator()
    A = apery_terms(33)
    for s in range(7):
        x = Polynomial.monomial(s)
        lx = adjoint_apply(L, x)
        acc = 0
        for n in range(1, 31):
            acc += lx.eval(n - 1) * A[n - 1]
            rhs = n ** 3 * (x.eval(n - 1) * A[n - 1] - x.eval(n - 2) * A[n])
            assert acc == rhs
            assert acc % n ** 3 == 0


def test_delannoy_partial_sums_collapse_to_boundary_symbolic():
    D = delannoy_operator()
    terms = delannoy_poly_terms(33, Z)
    for s in range(7):
        x = Polynomial.monomial(s)
        lx = adjoint_apply(D, x)
        acc = 0
        for n in range(1, 31):
            acc = acc + lx.eval(n - 1) * terms[n - 1]
            rhs = n * (x.eval(n - 1) * terms[n - 1] - x.eval(n - 2) * terms[n])
            assert acc == rhs


def _random_operator(rng, max_order=3, max_deg=4):
    order = rng.randint(1, max_order)
    coeffs = []
    for i in range(order + 1):
        deg = rng.randint(0, max_deg)
        c = [Fraction(rng.randint(-6, 6)) for _ in range(deg + 1)]
        coeffs.append(Polynomial(c))
    if coeffs[-1].is_zero:
        coeffs[-1] = Polynomial.monomial(rng.randint(0, max_deg), rng.randint(1, 6))
    return ShiftOperator(coeffs)


def test_degree_law_on_builtins_and_random_operators():
    rng = random.Random(777)
    operators = [apery_operator(), apery_signed_operator(), delannoy_operator(1)]
    while len(operators) < 53:
        operators.append(_random_operator(rng))
    for L in operators:
        prof = profile(L)
        for _ in range(6):
            s = rng.randint(0, 8)
            x = Polynomial([Fraction(rng.randint(-5, 5)) for _ in range(s)] + [Fraction(rng.randint(1, 5))])
            img = adjoint_apply(L, x)
            if s in prof.roots:
                assert img.degree < prof.d + s
            else:
                assert img.degree == prof.d + s


def test_operator_json_roundtrip():
    for L in (apery_operator(), delannoy_operator(), SIGMA_MINUS_1):
        data = operator_to_dict(L)
        assert operator_from_dict(data) == L
    with pytest.raises(ValueError):
        operator_from_dict({"order": 1, "coeffs": ["1"], "field": "Q"})
    with pytest.raises(ValueError):
        operator_from_dict({"order": 1, "coeffs": ["1", "0"], "field": "Q"})
    with pytest.raises(ValueError):
        operator_from_dict({"order": 0, "coeffs": ["z"], "field": "Q"})
    with pytest.raises(ValueError, match="^unknown field 'R'$"):
        operator_from_dict({"order": 1, "coeffs": ["k", "1"], "field": "R"})
    # declared Q(z), but z cancels from every coefficient: stored, and reported, over Q
    L = operator_from_dict({"order": 1, "coeffs": ["z/z*k + (z+1)/(z+1)", "(z^2 - 1)/(z - 1) - z"],
                            "field": "Q(z)"})
    assert L == ShiftOperator([K + 1, 1]) and operator_to_dict(L)["field"] == "Q"
