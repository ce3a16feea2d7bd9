"""Reduction modulo S_L, symmetry centers, parity-preserving reduction."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partible import reduction
from partible.congruence import constant_table
from partible.operators import ShiftOperator, adjoint_apply, profile
from partible.poly import Polynomial, parity_support
from partible.ratfunc import RationalFunction, Z, clear_denominators, quotient
from partible.reduction import (
    NotPartible,
    PartibleCertificate,
    PartibleReduction,
    ReductionResult,
    center_scale,
    find_gamma,
    gamma_candidates,
    is_partible,
    normal_forms,
    partible_reduce,
    reduce,
)
from partible.sequences import apery_operator, apery_signed_operator, builtin, delannoy_operator

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
    kernel = reduction._sums

    def one_short_image(products, factors):
        for j, image in enumerate(kernel(products, factors)):
            yield image[:-1] if j == 2 else image

    monkeypatch.setattr(reduction, "_sums", one_short_image)
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


def _hasse_derivative(p, t):
    """sum_j C(j, t) a_j k^(j-t), the t-th divided derivative."""
    return Polynomial(math.comb(j, t) * p.coeffs[j] for j in range(t, len(p.coeffs)))


def _poly_gcd(f, g):
    """Monic greatest common divisor over the coefficient field, by Euclid."""
    a, b = f.coeffs, g.coeffs
    while b:
        rem, inv = list(a), Fraction(1) / b[-1]
        for i in range(len(rem) - 1, len(b) - 2, -1):
            c = rem[i] * inv
            for j, bc in enumerate(b, i - len(b) + 1):
                rem[j] -= c * bc
        a, b = b, Polynomial(rem[:len(b) - 1]).coeffs
    return Polynomial(a) * (Fraction(1) / a[-1])


def _rational_roots(g):
    """The distinct roots in Q of g over Q, ascending, by the rational root theorem:
    with the denominators cleared, a nonzero root is +-a/b, a dividing the lowest
    nonzero coefficient and b the leading one."""
    h, _ = clear_denominators(g.coeffs)
    low, top = next(c for c in h if c), h[-1]
    candidates = {Fraction(a, b) for a in range(1, abs(low) + 1) if low % a == 0
                  for b in range(1, abs(top) + 1) if top % b == 0}
    return sorted(x for x in {0} | candidates | {-x for x in candidates} if not g.eval(x))


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
            e = _hasse_derivative(lo, t) - tsign * _hasse_derivative(hi, t).shift(-J)
            if not e.is_zero:
                constraints.append(e)
    if not constraints:
        return [Fraction(0)]
    g = constraints[0]
    for e in constraints[1:]:
        if g.degree == 0:
            break
        g = _poly_gcd(g, e)
    if g.degree == 1:
        # over Fraction: g's coefficients may be ints, and int / int is a float
        return [-g.coefficient(0) * (Fraction(1) / g.coefficient(1))]
    return _rational_roots(g) if g.degree > 0 else []


_SMALL = st.integers(-3, 3)


@st.composite
def _coefficient(draw, over_qz, zden=False):
    """A small rational; over Q(z) maybe plus a multiple of z, and with zden of 1/(z + b)."""
    c = Fraction(draw(_SMALL), draw(st.integers(1, 3)))
    if over_qz and zden and draw(st.booleans()):
        c = c + draw(st.integers(1, 3)) / (Z + draw(st.integers(1, 3)))
    return c + draw(_SMALL) * Z if over_qz and draw(st.booleans()) else c


@st.composite
def _poly(draw, over_qz, parity=None, zden=False):
    """A polynomial of degree <= 3; with parity 0 or 1 only the powers of that parity."""
    return Polynomial([draw(_coefficient(over_qz, zden)) if parity in (None, j % 2) else 0
                       for j in range(draw(st.integers(0, 4)))])


@st.composite
def _operators(draw, zden=False):
    """Random, mirrored (at a center that may depend on z), perturbed and constant operators.

    With zden the coefficients over Q(z) may also have z in denominators.
    """
    over_qz = draw(st.booleans())
    J = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["random", "mirror", "perturbed", "constant"]))
    if kind in ("random", "constant"):
        coeffs = [draw(_poly(over_qz, zden=zden)) for _ in range(J + 1)]
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
            p = draw(_poly(over_qz, parity=0 if s == 1 else 1, zden=zden)).shift(Fraction(J, 2))
        else:
            p = draw(_poly(over_qz, zden=zden))
            if p.is_zero and i == 0:
                p = Polynomial.constant(1)
        coeffs[i] = p.shift(-gamma)
        coeffs[J - i] = s * p.subst_linear(-1, gamma - J) if 2 * i != J else coeffs[i]
    if coeffs[J].is_zero:
        coeffs[J] = Polynomial.constant(1)
    if kind == "perturbed":
        i = draw(st.integers(0, J))
        coeffs[i] = coeffs[i] + draw(_coefficient(over_qz, zden)) * K ** draw(st.integers(0, 4))
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


def _basis_image(L, cert, s, alpha_s):
    """L*(alpha_s (k - gamma + J/2)^s) in powers of w = beta (k - gamma), from adjoint_basis."""
    I, E = reduction.adjoint_basis(L, cert)(s)
    return [quotient(alpha_s * c, E) for c in I]


def test_adjoint_basis_images_of_builtins():
    # half-integral centers: w = 2(k - gamma), the (2k+1)-power basis
    L = apery_operator()
    assert _basis_image(L, is_partible(L), 0, 2) == [0, 0, 0, -8]
    Ls = apery_signed_operator()
    assert _basis_image(Ls, is_partible(Ls), 0, 2)[3] == 9
    D = delannoy_operator()
    assert center_scale(is_partible(D).gamma) == 2
    coeffs = _basis_image(D, is_partible(D), 1, 4)
    assert coeffs[2] == -4 * Z and coeffs[0] == 4 and not coeffs[1]


def test_adjoint_basis_at_integer_centers_of_odd_order():
    # center 0 and odd J: beta = 1, and x_s = alpha_s (k + J/2)^s has a half-integral factor
    a, b = K ** 2 + 3 * K + 5, 2 * K ** 3 - K
    for coeffs in ([a, a.subst_linear(-1, -1)],
                   [a, b, -1 * b.subst_linear(-1, -3), -1 * a.subst_linear(-1, -3)]):
        L = ShiftOperator(coeffs)
        cert = is_partible(L)
        assert cert.gamma == 0 and cert.order % 2 and center_scale(cert.gamma) == 1
        for s in range(8):
            image = adjoint_apply(L, 3 * (K + Fraction(cert.order, 2)) ** s)
            # in powers of w = k - gamma = k
            assert _basis_image(L, cert, s, 3) == list(image.coeffs)


def _assert_centred_images(L, order):
    # I/E against L*((k - gamma + J/2)^j) in powers of w = beta (k - gamma), k = gamma + w/beta
    cert = is_partible(L)
    beta, image = center_scale(cert.gamma), reduction.adjoint_basis(L, cert)
    for j in order:
        I, E = image(j)
        expected = adjoint_apply(L, (K - cert.gamma + Fraction(cert.order, 2)) ** j)
        assert Polynomial([quotient(c, E) for c in I]) == expected.subst_linear(Fraction(1, beta),
                                                                                cert.gamma)


@pytest.mark.parametrize("family", ["apery", "apery_signed", "delannoy_number", "delannoy_poly"])
def test_centred_basis_matches_adjoint_apply(fresh_bases, family):
    _assert_centred_images(builtin(family).annihilator, range(13))


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
        beta = center_scale(cert.gamma)
        for s in range(11):
            p = adjoint_apply(L, beta ** (s + 1) * (K - cert.gamma + Fraction(cert.order, 2)) ** s)
            left = p.shift(cert.gamma)
            right = p.subst_linear(-1, cert.gamma)
            sign = -1 if (cert.d + s) % 2 else 1
            assert left == sign * right


def test_scaling_rule_and_invariance():
    L = apery_operator()
    cert = is_partible(L)
    assert center_scale(cert.gamma) == 2
    red = partible_reduce(9, L, cert)
    assert red.alphas == {j: 2 ** (j + 1) for j in red.v_coeffs}
    # the u do not depend on the scaling: with x_j = 3/7 (k + 3/2)^j, v_j rescaled inversely with
    # alpha_j and the same u rebuild (2k+1)^9 through adjoint_apply
    rebuilt = sum((u * (2 * K + 1) ** i for i, u in red.u_coeffs.items()), 0 * K)
    for j, v in red.v_coeffs.items():
        x = Fraction(3, 7) * (K + Fraction(3, 2)) ** j
        rebuilt += v * red.alphas[j] / Fraction(3, 7) * adjoint_apply(L, x)
    assert rebuilt == (2 * K + 1) ** 9


def test_integrality_of_adjoint_basis_coefficients():
    L = apery_operator()
    cert = is_partible(L)
    for s in range(13):
        # x_s = 2 (2k+3)^s, the scaling beta^(s+1) with beta = 2
        assert partible_reduce(s + 3, L, cert).alphas[s] == 2 ** (s + 1)
        coeffs = _basis_image(L, cert, s, 2 ** (s + 1))
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
    """Empty the shared basis cache before and after, so no patched basis leaks.

    It is the one cache that keeps adjoint images: reduce builds its own per call.
    """
    reduction.adjoint_basis.cache_clear()
    yield
    reduction.adjoint_basis.cache_clear()


def test_constant_table_builds_each_adjoint_image_once(monkeypatch, fresh_bases):
    kernel, advanced = reduction._sums, []

    def counting(products, factors):
        run = len(advanced)
        advanced.append(0)

        def images():
            for image in kernel(products, factors):
                advanced[run] += 1
                yield image
        return images()

    monkeypatch.setattr(reduction, "_sums", counting)
    table = constant_table("apery", 20)
    # (2k+1)^(2r+1), r <= 20, uses the images j = 0, 2, ..., 38 (d = 3): the even run is advanced
    # once per image and the odd run never
    assert advanced == [20, 0]
    assert table.entries[20] == constant_table("apery", 20).entries[20]
    assert advanced == [20, 0]  # the second table reuses the cached basis


def test_adjoint_basis_builds_images_out_of_order(fresh_bases):
    # each parity's run is advanced only as far as the largest image asked of it
    _assert_centred_images(apery_operator(), (11, 4, 12, 5, 0, 1))


def test_an_interrupted_basis_is_built_anew(monkeypatch, fresh_bases):
    # an exception out of a run ends it, so the cached basis holding it is dropped
    L = apery_operator()
    cert = is_partible(L)
    image = reduction.adjoint_basis(L, cert)
    image(3)

    def interrupted(a, b):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(reduction, "_mul", interrupted)
        with pytest.raises(KeyboardInterrupt):
            image(9)
    assert reduction.adjoint_basis(L, cert) is not image
    _assert_centred_images(L, (9, 3))


def test_normal_forms_refuse_a_parity_with_two_powers_below_d():
    L = apery_operator()  # d = 3: the even powers keep both w^0 and w^2
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        normal_forms(4, L, is_partible(L))


@pytest.mark.parametrize("family, M, divisions", [("apery", 41, 21), ("delannoy_poly", 22, 12)])
def test_normal_forms_cancel_without_clearing(monkeypatch, family, M, divisions):
    # each step is one cancel_common; each c_m is divided out once, at the end, and nothing is cleared
    L = builtin(family).annihilator
    cert = is_partible(L)
    expected = normal_forms(M, L, cert)  # builds and audits the images first
    divided, cleared = (mock.Mock(wraps=kernel) for kernel in (quotient, clear_denominators))
    monkeypatch.setattr(reduction, "quotient", divided)
    monkeypatch.setattr(reduction, "clear_denominators", cleared)
    assert normal_forms(M, L, cert) == expected
    assert (divided.call_count, cleared.call_count) == (divisions, 0)


def test_constant_table_builds_only_the_parity_it_reads(monkeypatch, fresh_bases):
    added = mock.Mock(wraps=reduction._add)
    monkeypatch.setattr(reduction, "_add", added)
    constant_table("apery", 20)
    # images j = 0, 2, ..., 38: 20 built, each a sum of J + 1 = 3 products;
    # a builder drawing every j up to 38 would build 39
    assert added.call_count == 20 * 2


@pytest.mark.parametrize("part", [0, 2], ids=["T", "f"])
def test_adjoint_basis_audits_its_parts_once(monkeypatch, fresh_bases, part):
    # every image is built from the parts, so only the parts audit can see this
    kernel = reduction._image_parts

    def one_wrong_part(L, center, offset, scale=1):
        parts = list(kernel(L, center, offset, scale))
        first = parts[part][0]
        parts[part] = [first[:-1] + (first[-1] + 1,)] + parts[part][1:]
        return tuple(parts)

    monkeypatch.setattr(reduction, "_image_parts", one_wrong_part)
    L = apery_operator()
    with pytest.raises(AssertionError, match="adjoint image part 0 failed exactness audit"):
        reduction.adjoint_basis(L, is_partible(L))


# -- the fraction-free loop against the Fraction loop ---------------------------


def _fraction_back_substitute(coeffs, d, image, skip=frozenset()):
    """The loop before it went fraction-free: each step divides in the field, in place."""
    steps, moved = {}, {}
    for deg in range(len(coeffs) - 1, max(d, 0) - 1, -1):
        c, j = coeffs[deg], deg - d
        if not c:
            continue
        if j in skip:
            moved[j] = c
            coeffs[deg] -= c
            continue
        target = image(j).coeffs
        assert len(target) - 1 == deg
        steps[j] = step = c / target[deg]
        for i, tc in enumerate(target):
            coeffs[i] -= step * tc
    return steps, moved


def _oracle_reduce(Q, L):
    prof = profile(L)
    # Fraction, as the coefficients were before int ones: the loop divides with /
    coeffs = [Fraction(c) if isinstance(c, int) else c for c in Q.coeffs]
    steps, moved = _fraction_back_substitute(coeffs, prof.d, lambda j: adjoint_apply(L, K ** j),
                                              skip=prof.roots)
    x = Polynomial([steps.get(s, 0) for s in range(len(coeffs) - prof.d)])
    return x, moved, Polynomial(coeffs)


def _oracle_partible_reduce(m, L, cert):
    beta = center_scale(cert.gamma)
    alpha = lambda s: beta ** (s + 1)  # partible_reduce's scaling
    coeffs = [Fraction(0)] * m + [Fraction(beta) ** m]
    lin = K - cert.gamma + Fraction(cert.order, 2)
    # image j: L*(lin^j) at k = gamma + t, in powers of t
    steps, _ = _fraction_back_substitute(coeffs, cert.d,
                                         lambda j: adjoint_apply(L, lin ** j).shift(cert.gamma))
    return ({i: c / Fraction(beta) ** i for i, c in enumerate(coeffs) if c},
            {j: step / alpha(j) for j, step in steps.items()},
            {j: alpha(j) for j in steps})


@st.composite
def _degenerate_operators(draw):
    """c (-(k + p) + (k + q) sigma): the indicator s + q - 1 - p has the root p + 1 - q >= 0."""
    q = draw(st.integers(-2, 2))
    p = q - 1 + draw(st.integers(0, 3))
    c = draw(_coefficient(draw(st.booleans()), zden=True)) or 1
    return ShiftOperator([-c * (K + p), c * (K + q)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_operators(zden=True), _degenerate_operators()), st.data())
def test_fraction_free_loop_matches_the_fraction_loop(L, data):
    # Q over either field, whatever L's: a step then mixes Z and Q[z] entries
    over_qz = data.draw(st.booleans())
    n = data.draw(st.sampled_from([0, 1, 4, 9]))  # zero, constant and longer Q
    Q = Polynomial(data.draw(st.lists(_coefficient(over_qz, zden=True), min_size=n, max_size=n)))
    res = reduce(Q, L)
    assert (res.x, res.exceptional, res.remainder) == _oracle_reduce(Q, L)
    cert = is_partible(L)
    if cert is not None:
        # m = 0 and m = d - 1 reduce to themselves when d > 1
        for m in sorted({0, max(cert.d - 1, 0), data.draw(st.integers(0, 9))}):
            red = partible_reduce(m, L, cert)
            assert (red.m, red.gamma, red.basis_scale) == (m, cert.gamma, center_scale(cert.gamma))
            assert (red.u_coeffs, red.v_coeffs, red.alphas) == _oracle_partible_reduce(m, L, cert)


def test_cleared_identity_audit_is_live(monkeypatch):
    loop = reduction._back_substitute

    def one_step_off(*args, **kwargs):
        steps, moved, remainder = loop(*args, **kwargs)
        steps[min(steps)] += 1
        return steps, moved, remainder

    monkeypatch.setattr(reduction, "_back_substitute", one_step_off)
    for L in (apery_operator(), delannoy_operator()):
        with pytest.raises(AssertionError, match="reduction identity failed exactness audit"):
            partible_reduce(7, L, is_partible(L))


# -- int coefficients against the all-Fraction kernel ---------------------------


def _partible_query(L, Q, m):
    cert = is_partible(L)
    return None if cert is None else partible_reduce(m, L, cert)


_QUERIES = {
    "profile": lambda L, Q, m: profile(L),
    "gamma_candidates": lambda L, Q, m: gamma_candidates(L),
    "reduce": lambda L, Q, m: reduce(Q, L),
    "partible_reduce": _partible_query,
}


@st.composite
def _queries(draw):
    """(L, Q, m): an operator over Q or Q(z), a polynomial over its field, a power."""
    L = draw(st.one_of(_operators(zden=True), _degenerate_operators()))
    n = draw(st.sampled_from([0, 1, 4, 9]))
    Q = Polynomial(draw(st.lists(_coefficient(L.field == "Q(z)", zden=True),
                                 min_size=n, max_size=n)))
    return L, Q, draw(st.integers(0, 9))


def _coefficients(value):
    """Every number held by a result: in its polynomials, dicts and sequences, the results'
    named tuples among them, so every field is visited in order."""
    if isinstance(value, Polynomial):
        yield from value.coeffs
    elif isinstance(value, dict):
        for v in value.values():
            yield from _coefficients(v)
    elif isinstance(value, (list, tuple, frozenset)):
        for v in value:
            yield from _coefficients(v)
    elif value is not None:
        yield value


def test_coefficients_walk_every_field_of_a_result():
    result = ReductionResult(Polynomial([1, 2]), {3: Fraction(1, 2)}, Polynomial([5]))
    assert list(_coefficients(result)) == [1, 2, Fraction(1, 2), 5]
    red = PartibleReduction(4, Fraction(-1, 2), 2, {0: 7}, {1: 3}, {1: 4})
    assert list(_coefficients(red)) == [4, Fraction(-1, 2), 2, 7, 3, 4]


def _exact_kind(c) -> bool:
    """int, non-integral Fraction or a RationalFunction depending on z: never a float, an
    integral Fraction or a constant RationalFunction."""
    return (type(c) is int or type(c) is Fraction and c.denominator != 1
            or type(c) is RationalFunction and max(len(c.num), len(c.den)) > 1)


@pytest.mark.parametrize("query", sorted(_QUERIES))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_queries())
def test_int_coefficients_match_the_all_fraction_kernel(query, case, all_fractions):
    L, Q, m = case
    want = _QUERIES[query](L, Q, m)
    with all_fractions():
        Lf = ShiftOperator([Polynomial(a.coeffs) for a in L.coeffs])
        Qf = Polynomial(Q.coeffs)
        assert not any(type(c) is int for p in (*Lf.coeffs, Qf) for c in p.coeffs)
        got = _QUERIES[query](Lf, Qf, m)
    assert got == want


@pytest.mark.parametrize("query", sorted(_QUERIES))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_queries())
# z cancels from the input, and from the center -2z / 2z and the exceptional term of reduce
@example(case=(ShiftOperator([Z / Z * K + 1, (Z + 1) / (Z + 1)]), K ** 2 * (Z / Z), 3))
@example(case=(ShiftOperator([Z * (K + 1), -Z * (K + 2)]), K ** 3 + 2, 3))
def test_results_hold_no_float_and_no_integral_fraction(query, case):
    L, Q, m = case
    values = list(_coefficients(_QUERIES[query](L, Q, m)))
    assert all(_exact_kind(c) for c in values), [c for c in values if not _exact_kind(c)]


def test_half_integral_center_is_a_fraction():
    # the center's numerator is divided by 2 D l over Fraction, never with int / int
    for L in (apery_operator(), apery_signed_operator(), delannoy_operator(5)):
        (gamma,) = gamma_candidates(L)
        assert type(gamma) is Fraction and gamma == HALF
        assert type(is_partible(L).gamma) is Fraction
    assert gamma_candidates(ShiftOperator([(K - 3) ** 2, 0, (K + 1) ** 2])) == [2]
