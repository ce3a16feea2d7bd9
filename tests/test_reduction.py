"""Reduction modulo S_L, symmetry centers, parity-preserving reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partible import reduction
from partible.congruence import constant_table
from partible.operators import ShiftOperator, adjoint_apply, profile, rational_roots
from partible.poly import Polynomial, parity_support, poly_gcd
from partible.ratfunc import RationalFunction, Z
from partible.reduction import (
    NotPartible,
    PartibleCertificate,
    center_scale,
    default_alpha,
    expand_adjoint_basis,
    find_gamma,
    gamma_candidates,
    is_partible,
    partible_reduce,
    reduce,
)
from partible.sequences import apery_operator, apery_signed_operator, delannoy_operator

K = Polynomial.variable()
HALF = Fraction(-1, 2)


# -- plain reduction ----------------------------------------------------------


def test_reduce_apery_cube():
    L = apery_operator()
    res = reduce(-8 * (2 * K + 1) ** 3, L)
    assert res.x == Polynomial.constant(2)
    assert res.exceptional == {}
    assert res.remainder.is_zero


def test_reduce_low_degree_is_identity():
    L = apery_operator()
    q = K ** 2 - 5
    res = reduce(q, L)
    assert res.x.is_zero and res.exceptional == {} and res.remainder == q


def test_reduce_constant_against_difference_operator():
    # sigma - 1: every polynomial is a difference of polynomials, so the
    # constant 1 lands entirely in the adjoint image (1 = L*(-k)).
    L = ShiftOperator([-1, 1])
    res = reduce(Polynomial.constant(1), L)
    assert res.remainder.is_zero
    assert res.exceptional == {}
    assert adjoint_apply(L, res.x) == Polynomial.constant(1)


def test_reduce_exceptional_bucket():
    # (k+1) sigma - k: the adjoint image is k*Q[k], constants survive as k^0
    L = ShiftOperator([Polynomial((0, -1)), K + 1])
    prof = profile(L)
    assert prof.d == 0 and prof.roots == frozenset({0})
    res = reduce(Polynomial.constant(1), L)
    assert res.x.is_zero
    assert res.exceptional == {0: 1}
    assert res.remainder.is_zero
    res2 = reduce(K ** 3 + 7, L)
    assert res2.reassemble(L, prof) == K ** 3 + 7
    assert set(res2.exceptional) <= {0}


def _random_operator(rng, max_order=3, max_deg=4):
    order = rng.randint(1, max_order)
    coeffs = []
    for _ in range(order + 1):
        deg = rng.randint(0, max_deg)
        coeffs.append(Polynomial([Fraction(rng.randint(-6, 6)) for _ in range(deg + 1)]))
    if coeffs[-1].is_zero:
        coeffs[-1] = Polynomial.monomial(rng.randint(0, max_deg), rng.randint(1, 6))
    return ShiftOperator(coeffs)


def test_reduce_over_symbolic_coefficients():
    D = delannoy_operator()
    prof = profile(D)
    Q = (2 * K + 1) ** 4 - 3 * K
    res = reduce(Q, D)
    assert res.reassemble(D, prof) == Q
    assert res.remainder.degree < prof.d
    # the certificate itself picks up z-dependent coefficients
    assert any(isinstance(c, RationalFunction) for c in res.x.coeffs)


def test_reduce_rejects_an_image_of_the_wrong_degree(monkeypatch):
    kernel = reduction._adjoint_images

    def one_short_image(L, center, offset):
        for j, image in enumerate(kernel(L, center, offset)):
            yield Polynomial(image.coeffs[:-1]) if j == 2 else image

    monkeypatch.setattr(reduction, "_adjoint_images", one_short_image)
    L = apery_operator()
    assert reduce(K ** 4, L).reassemble(L) == K ** 4  # images 0 and 1 are intact
    with pytest.raises(AssertionError, match="adjoint image 2 has degree 4, expected 5"):
        reduce(K ** 5, L)


def test_reduce_exactness_on_200_random_instances():
    rng = random.Random(424242)
    for _ in range(200):
        L = _random_operator(rng)
        prof = profile(L)
        deg = rng.randint(0, 20)
        Q = Polynomial([Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                        for _ in range(deg + 1)])
        res = reduce(Q, L)
        assert res.reassemble(L, prof) == Q
        if not res.remainder.is_zero:
            assert res.remainder.degree < prof.d
        assert set(res.exceptional) <= set(prof.roots)


# -- symmetry centers ----------------------------------------------------------


def test_find_gamma_builtins():
    assert find_gamma(apery_operator()) == HALF
    assert find_gamma(apery_signed_operator()) == HALF
    g = find_gamma(delannoy_operator())
    assert g == HALF
    assert find_gamma(delannoy_operator(4)) == HALF


def test_find_gamma_absent():
    L = ShiftOperator([Polynomial.constant(-1), K + 2])
    assert find_gamma(L) is None
    assert gamma_candidates(L) == []
    assert is_partible(L) is None


def test_find_gamma_hypergeometric_shape():
    # order-1 operator from a term ratio a(k)/b(k) with a(k) = -b(k+alpha)
    # and b odd around beta: the center is beta - (alpha-1)/2
    for alpha, beta in ((2, Fraction(0)), (3, Fraction(1)), (1, Fraction(5, 2)),
                       (4, Fraction(-3, 2))):
        b = (K - beta) ** 3
        L = ShiftOperator([-1 * b.shift(alpha), -1 * b])
        assert profile(L).d == 3
        assert find_gamma(L) == beta - Fraction(alpha - 1, 2)


def test_is_partible():
    cert = is_partible(apery_operator())
    assert cert == PartibleCertificate(HALF, 3, 2)
    cert = is_partible(apery_signed_operator())
    assert cert == PartibleCertificate(HALF, 3, 2)
    assert is_partible(ShiftOperator([-1, 1])) is None  # degenerate
    certd = is_partible(delannoy_operator())
    assert certd.d == 1 and certd.gamma == HALF


def _oracle_gamma_candidates(L):
    """The center search by constraint system: every coefficient of k^t of the
    condition, per pair (a_i, a_{J-i}), is a polynomial in gamma; the centers
    are the common roots, found from the gcd of all of them."""
    J, d = L.order, profile(L).d
    sign = -1 if d % 2 else 1
    constraints = []
    for i in range(J // 2 + 1):
        lo, hi = L.coeffs[i], L.coeffs[J - i]
        degrees = [int(p.degree) for p in (lo, hi) if not p.is_zero]
        for t in range(max(degrees, default=-1) + 1):
            tsign = -sign if t % 2 else sign
            e = lo.hasse_derivative(t) - tsign * hi.hasse_derivative(t).shift(-J)
            if not e.is_zero:
                constraints.append(e)
    if not constraints:
        return [Fraction(0)]
    g = constraints[0]
    for e in constraints[1:]:
        if g.degree == 0:
            break
        g = poly_gcd(g, e)
    if g.degree == 1:
        return [-g.coefficient(0) / g.coefficient(1)]
    return rational_roots(g) if g.degree > 0 else []


_SMALL = st.integers(-3, 3)


@st.composite
def _coefficient(draw, over_qz):
    c = Fraction(draw(_SMALL), draw(st.integers(1, 3)))
    return c + draw(_SMALL) * Z if over_qz and draw(st.booleans()) else c


@st.composite
def _poly(draw, over_qz, parity=None):
    """A polynomial of degree <= 3; with parity 0 or 1 only the powers of that parity."""
    return Polynomial([draw(_coefficient(over_qz)) if parity in (None, j % 2) else 0
                       for j in range(draw(st.integers(0, 4)))])


@st.composite
def _operators(draw):
    """Random, mirrored (at a center that may depend on z), perturbed and constant operators."""
    over_qz = draw(st.booleans())
    J = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["random", "mirror", "perturbed", "constant"]))
    if kind in ("random", "constant"):
        coeffs = [draw(_poly(over_qz)) for _ in range(J + 1)]
        if kind == "constant":
            coeffs = [Polynomial.constant(a.coefficient(0)) for a in coeffs]
            if draw(st.booleans()):  # a constant mirror, of either sign
                s = draw(st.sampled_from([1, -1]))
                coeffs = [coeffs[i] if 2 * i <= J else s * coeffs[J - i] for i in range(J + 1)]
        if coeffs[J].is_zero:
            coeffs[J] = Polynomial.constant(1)
        return ShiftOperator(coeffs)
    # a_i(gamma + k) = p_i(k) and a_{J-i}(gamma - k - J) = s p_i(k); the middle p is
    # even or odd in k + J/2
    gamma = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 2)))
    if over_qz:
        gamma = gamma + draw(_SMALL) * Z
    s = draw(st.sampled_from([1, -1]))
    coeffs = [None] * (J + 1)
    for i in range(J // 2 + 1):
        if 2 * i == J:
            p = draw(_poly(over_qz, parity=0 if s == 1 else 1)).shift(Fraction(J, 2))
        else:
            p = draw(_poly(over_qz))
            if p.is_zero and i == 0:
                p = Polynomial.constant(1)
        coeffs[i] = p.shift(-gamma)
        coeffs[J - i] = s * p.subst_linear(-1, gamma - J) if 2 * i != J else coeffs[i]
    if coeffs[J].is_zero:
        coeffs[J] = Polynomial.constant(1)
    if kind == "perturbed":
        i = draw(st.integers(0, J))
        coeffs[i] = coeffs[i] + draw(_coefficient(over_qz)) * K ** draw(st.integers(0, 4))
        if coeffs[J].is_zero:
            coeffs[J] = Polynomial.constant(1)
    return ShiftOperator(coeffs)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_operators())
def test_gamma_candidates_match_constraint_gcd_search(L):
    expected = _oracle_gamma_candidates(L)
    candidates = gamma_candidates(L)
    assert candidates == expected and len(candidates) <= 1
    prof = profile(L)
    assert is_partible(L) == (PartibleCertificate(expected[0], prof.d, L.order)
                              if expected and not prof.roots else None)


# -- parity-preserving reduction ------------------------------------------------


def test_partible_reduce_worked_cases():
    L = apery_operator()
    cert = is_partible(L)
    red = partible_reduce(3, L, cert)
    assert red.u_coeffs.get(1, Fraction(0)) == 0
    assert red.v_coeffs == {0: Fraction(-1, 8)}
    red = partible_reduce(1, L, cert)
    assert red.u_coeffs == {1: 1} and red.v_coeffs == {}
    red = partible_reduce(5, L, cert)
    assert red.u_coeffs == {1: 1}
    assert red.v_coeffs == {0: Fraction(-1, 8), 2: Fraction(-1, 8)}


def test_partible_reduce_rejects_bad_certificate():
    L = apery_operator()
    with pytest.raises(NotPartible):
        partible_reduce(3, L, PartibleCertificate(Fraction(1, 2), 3, 2))
    with pytest.raises(NotPartible):
        partible_reduce(3, ShiftOperator([-1, 1]),
                        PartibleCertificate(Fraction(0), -1, 1))


def test_expand_adjoint_basis_builtins():
    L = apery_operator()
    cert = is_partible(L)
    assert expand_adjoint_basis(L, cert, 0, 2) == [0, 0, 0, -8]
    Ls = apery_signed_operator()
    assert expand_adjoint_basis(Ls, is_partible(Ls), 0, 2)[3] == 9
    D = delannoy_operator()
    coeffs = expand_adjoint_basis(D, is_partible(D), 1, 4)
    assert coeffs[2] == -4 * Z and coeffs[0] == 4 and not coeffs[1]


def test_parity_of_remainders_up_to_15():
    for L in (apery_operator(), apery_signed_operator(),
              delannoy_operator(), delannoy_operator(1)):
        cert = is_partible(L)
        for m in range(16):
            red = partible_reduce(m, L, cert)
            support = parity_support(
                [red.u_coeffs.get(i, Fraction(0)) for i in range(cert.d)]
            )
            assert support in ("zero", "odd" if m % 2 else "even")


def test_plain_and_parity_preserving_reductions_agree():
    # the two use monomial images at 0 and centred images at gamma, so each checks the other
    for L, m_max in ((apery_operator(), 15), (apery_signed_operator(), 15),
                     (delannoy_operator(1), 15), (delannoy_operator(), 8)):
        cert = is_partible(L)
        w = center_scale(cert.gamma) * (K - cert.gamma)
        prof = profile(L)
        for m in range(m_max + 1):
            plain = reduce(w ** m, L)
            red = partible_reduce(m, L, cert)
            assert plain.exceptional == {}
            assert plain.remainder == sum((u * w ** i for i, u in red.u_coeffs.items()),
                                          Polynomial())


def test_basis_image_symmetry():
    # p_s(gamma + k) == (-1)^(d+s) p_s(gamma - k) as exact identities
    for L in (apery_operator(), delannoy_operator()):
        cert = is_partible(L)
        alpha = default_alpha(cert.gamma)
        for s in range(11):
            from partible.reduction import basis_element

            p = adjoint_apply(L, basis_element(cert, s, alpha(s)))
            left = p.shift(cert.gamma)
            right = p.subst_linear(-1, cert.gamma)
            sign = -1 if (cert.d + s) % 2 else 1
            assert left == sign * right


def test_scaling_rule_and_invariance():
    L = apery_operator()
    cert = is_partible(L)
    assert center_scale(cert.gamma) == 2
    base = partible_reduce(9, L, cert)
    other = partible_reduce(9, L, cert, alpha=lambda s: Fraction(3, 7))
    assert base.u_coeffs == other.u_coeffs
    for j, v in base.v_coeffs.items():
        # v_j rescales inversely with alpha_j
        assert other.v_coeffs[j] == v * base.alphas[j] / Fraction(3, 7)


def test_integrality_of_adjoint_basis_coefficients():
    L = apery_operator()
    cert = is_partible(L)
    for s in range(13):
        coeffs = expand_adjoint_basis(L, cert, s)
        assert all(Fraction(c).denominator == 1 for c in coeffs)
        assert coeffs[s + 3] == -8


def test_partible_reduce_over_symbolic_field():
    D = delannoy_operator()
    cert = is_partible(D)
    red = partible_reduce(2, D, cert)
    assert red.u_coeffs == {0: 1 / Z}
    red4 = partible_reduce(4, D, cert)
    assert red4.u_coeffs == {0: (4 * Z + 9) / Z ** 2}


@pytest.fixture
def fresh_bases():
    """Empty the shared basis cache before and after, so no patched basis leaks."""
    reduction.adjoint_basis.cache_clear()
    yield
    reduction.adjoint_basis.cache_clear()


def test_adjoint_basis_audit_is_live(monkeypatch, fresh_bases):
    kernel = reduction._adjoint_images

    def one_wrong_image(L, center, offset):
        for j, image in enumerate(kernel(L, center, offset)):
            yield image + K ** 2 if j == 2 else image

    monkeypatch.setattr(reduction, "_adjoint_images", one_wrong_image)
    L = apery_operator()
    assert partible_reduce(3, L, is_partible(L)).v_coeffs == {0: Fraction(-1, 8)}
    with pytest.raises(AssertionError, match="exactness audit"):
        partible_reduce(5, L, is_partible(L))


def test_constant_table_builds_each_adjoint_image_once(monkeypatch, fresh_bases):
    calls = []

    def counting(L, x):
        calls.append(x)
        return adjoint_apply(L, x)

    monkeypatch.setattr(reduction, "adjoint_apply", counting)
    table = constant_table("apery", 20)
    # (2k+1)^(2r+1), r <= 20, uses the images j = 0, 2, ..., 38 (d = 3), each audited once
    assert len(calls) == 20 and len(set(calls)) == 20
    assert table.entries[20] == constant_table("apery", 20).entries[20]
    assert len(calls) == 20  # the second table reuses the cached basis
