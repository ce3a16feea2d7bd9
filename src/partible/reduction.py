"""Reduction of polynomials modulo the difference space of a shift operator.

Every polynomial Q splits exactly into an adjoint image L*(x) (the
summable part), exceptional monomials at the degrees a degenerate
operator cannot reach, and a remainder of degree below deg(L).  When the
operator coefficients have the mirror symmetry

    a_i(gamma + k) = (-1)^d a_{J-i}(gamma - k - J),

the remainder of a pure power of (k - gamma) keeps the parity of that
power; this module detects the center gamma and runs that
parity-preserving reduction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .operators import ReductionProfile, ShiftOperator, adjoint_apply, rational_roots
from .operators import profile as operator_profile
from .poly import Polynomial, poly_gcd
from .ratfunc import RationalFunction


class NotPartible(ValueError):
    """The operator lacks the symmetry the parity reduction requires."""


@dataclass
class ReductionResult:
    """Q = L*(x) + sum_{s in roots} exceptional[s] * k^(d+s) + remainder."""

    x: Polynomial
    exceptional: dict
    remainder: Polynomial

    def reassemble(self, L: ShiftOperator, prof: ReductionProfile | None = None) -> Polynomial:
        prof = prof if prof is not None else operator_profile(L)
        total = adjoint_apply(L, self.x) + self.remainder
        for s, c in self.exceptional.items():
            total = total + Polynomial.monomial(prof.d + s, c)
        return total


def reduce(Q: Polynomial, L: ShiftOperator, prof: ReductionProfile | None = None) -> ReductionResult:
    """Split Q into adjoint image, exceptional monomials and remainder.

    _back_substitute against the monomial images L*(k^s), skipping the
    indicator roots s, where L*(k^s) falls short of degree d+s; for
    d <= 0 the remainder is zero.
    """
    prof = prof if prof is not None else operator_profile(L)
    coeffs = list(Q.coeffs)
    steps, exceptional = _back_substitute(coeffs, prof.d, _lazy_list(_adjoint_images(L, 0, 0)),
                                          skip=prof.roots)
    x = Polynomial([steps.get(s, 0) for s in range(len(coeffs) - prof.d)])
    return ReductionResult(x, exceptional, Polynomial(coeffs))


def _back_substitute(coeffs: list, d: int, image, skip=frozenset()) -> tuple[dict, dict]:
    """Cancel the terms of degree >= d in coeffs, in place, from the top down.

    The term of degree d+j is moved out whole when j is in skip, and is
    otherwise cancelled with image(j), a polynomial of degree exactly d+j.
    Returns the steps {j: factor} and the moved terms {j: c}; what is left
    in coeffs, all below degree d, is the remainder.
    """
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
        if len(target) - 1 != deg:
            raise AssertionError(f"adjoint image {j} has degree {len(target) - 1}, expected {deg}")
        steps[j] = step = c / target[deg]
        for i, tc in enumerate(target):
            coeffs[i] -= step * tc
    return steps, moved


def _lazy_list(items):
    """The function j -> item j of the iterator items, each item drawn once and kept."""
    drawn: list = []

    def item(j: int):
        while len(drawn) <= j:
            drawn.append(next(items))
        return drawn[j]

    return item


def _adjoint_images(L: ShiftOperator, center, offset):
    """Yield L*((k - center + offset)^j) at k = center + t for j = 0, 1, 2, ...

    That is sum_i a_i(center + t - i) (t + offset - i)^j.  Each of its J+1
    products is multiplied by its linear factor once per step, so image j
    costs O(J (deg L + j)) operations and no Taylor shift.
    """
    terms = [a.shift(center - i) for i, a in enumerate(L.coeffs)]
    factors = [Polynomial((offset - i, 1)) for i in range(len(terms))]
    while True:
        yield sum(terms, Polynomial())
        terms = [term * f for term, f in zip(terms, factors)]


# -- symmetry center ---------------------------------------------------------


def _symmetry_constraints(L: ShiftOperator, d: int) -> list[Polynomial]:
    """Polynomials in the unknown center whose common roots are the gammas.

    Matching coefficients of k^t on both sides of the symmetry condition
    gives, per pair (a_i, a_{J-i}) and per t, one polynomial equation in
    gamma over the coefficient field.
    """
    J = L.order
    sign = -1 if d % 2 else 1
    constraints = []
    for i in range(J // 2 + 1):
        lo, hi = L.coeffs[i], L.coeffs[J - i]
        degrees = [int(p.degree) for p in (lo, hi) if not p.is_zero]
        if not degrees:
            continue
        for t in range(max(degrees) + 1):
            lhs = lo.hasse_derivative(t)
            rhs = hi.hasse_derivative(t).shift(-J)
            tsign = -sign if t % 2 else sign
            e = lhs - tsign * rhs
            if not e.is_zero:
                constraints.append(e)
    return constraints


def gamma_candidates(L: ShiftOperator, prof: ReductionProfile | None = None) -> list:
    """All centers satisfying the symmetry condition, in deterministic order.

    An empty list means no center exists; a constant operator satisfies
    the condition identically and reports the single conventional center 0.
    """
    prof = prof if prof is not None else operator_profile(L)
    constraints = _symmetry_constraints(L, prof.d)
    if not constraints:
        return [Fraction(0)]
    g = constraints[0]
    for e in constraints[1:]:
        if g.degree == 0:
            break
        g = poly_gcd(g, e)
    if g.degree == 1:  # solved in the coefficient field: the center may depend on z
        return [-g.coefficient(0) / g.coefficient(1)]
    return rational_roots(g) if g.degree > 0 else []


def find_gamma(L: ShiftOperator, prof: ReductionProfile | None = None):
    """The first symmetry center, or None when there is none."""
    candidates = gamma_candidates(L, prof)
    return candidates[0] if candidates else None


@dataclass(frozen=True)
class PartibleCertificate:
    """Witness that an operator is power-partible: its center, degree, order."""

    gamma: object
    d: int
    order: int


@functools.lru_cache(maxsize=8)
def is_partible(L: ShiftOperator, prof: ReductionProfile | None = None) -> PartibleCertificate | None:
    """Certificate for a nondegenerate operator with a symmetry center."""
    prof = prof if prof is not None else operator_profile(L)
    if prof.roots:
        return None
    gamma = find_gamma(L, prof)
    if gamma is None:
        return None
    return PartibleCertificate(gamma, prof.d, L.order)


def _certificate_holds(L: ShiftOperator, cert: PartibleCertificate) -> bool:
    J = L.order
    if J != cert.order:
        return False
    prof = operator_profile(L)
    if prof.roots or prof.d != cert.d:
        return False
    sign = -1 if cert.d % 2 else 1
    for i in range(J // 2 + 1):
        lhs = L.coeffs[i].shift(cert.gamma)
        rhs = L.coeffs[J - i].subst_linear(-1, cert.gamma - J)
        if lhs != sign * rhs:
            return False
    return True


# -- parity-preserving reduction ----------------------------------------------


def center_scale(gamma) -> int:
    """2 for half-integral centers, else 1.

    With a half-integral center the scaled variable 2(k - gamma) has
    integer values on integers (it is 2k+1 for gamma = -1/2), so the
    reduction is carried out in its powers.  A center depending on z
    has scale 1.
    """
    if isinstance(gamma, RationalFunction):
        gamma = gamma.as_fraction() if gamma.is_constant() else 0
    return 2 if Fraction(gamma).denominator == 2 else 1


def default_alpha(gamma):
    """Basis scaling rule: alpha_s = 2^(s+1) for half-integral centers, else 1."""
    if center_scale(gamma) == 2:
        return lambda s: Fraction(2) ** (s + 1)
    return lambda s: Fraction(1)


def basis_element(cert: PartibleCertificate, s: int, alpha_s) -> Polynomial:
    """x_s(k) = alpha_s (k - gamma + J/2)^s."""
    lin = Polynomial((Fraction(cert.order, 2) - cert.gamma, 1))
    return alpha_s * lin ** s


class AdjointBasis:
    """The images L*((k - gamma + J/2)^j) of one certified operator, centred at gamma.

    The certificate is checked once.  Images are built lazily by
    _adjoint_images; each is audited once, when first used, against
    adjoint_apply on the basis element: an independent path in k.
    """

    def __init__(self, L: ShiftOperator, cert: PartibleCertificate):
        if not _certificate_holds(L, cert):
            raise NotPartible(f"{L!r} is not power-partible for center {cert.gamma}")
        self.L, self.cert = L, cert
        self._image = _lazy_list(_adjoint_images(L, cert.gamma, Fraction(cert.order, 2)))
        self._audited: set = set()

    def image(self, j: int) -> Polynomial:
        """L*(x_j) for alpha_j = 1, as a polynomial in t = k - gamma."""
        image = self._image(j)
        if j not in self._audited:
            if image.shift(-self.cert.gamma) != adjoint_apply(self.L, basis_element(self.cert, j, 1)):
                raise AssertionError(f"adjoint image {j} failed exactness audit")
            self._audited.add(j)
        return image


@functools.lru_cache(maxsize=8)
def adjoint_basis(L: ShiftOperator, cert: PartibleCertificate) -> AdjointBasis:
    """The shared AdjointBasis of (L, cert); raises NotPartible for a false certificate."""
    return AdjointBasis(L, cert)


@dataclass
class PartibleReduction:
    """Exact decomposition of a power of the scaled centered variable.

    With w = basis_scale * (k - gamma):

        w^m = sum_i u_coeffs[i] * w^i  +  sum_j v_coeffs[j] * L*(x_j)

    where every i shares the parity of m and lies below d, and
    x_j = alphas[j] * (k - gamma + J/2)^j.
    """

    m: int
    gamma: object
    basis_scale: int
    u_coeffs: dict
    v_coeffs: dict
    alphas: dict = field(default_factory=dict)


def partible_reduce(m: int, L: ShiftOperator, cert: PartibleCertificate, alpha=None) -> PartibleReduction:
    """Reduce w^m, w = basis_scale*(k - gamma), keeping only same-parity powers.

    _back_substitute against adjoint_basis(L, cert) in the centered
    coordinates, where L*(x_j) has only powers of the parity of d+j, so
    the u_i left below degree d share the parity of m.  The identity
    above is checked in centered coordinates before returning.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    basis = adjoint_basis(L, cert)
    d = cert.d
    if alpha is None:
        alpha = default_alpha(cert.gamma)
    beta = center_scale(cert.gamma)

    # coefficient vector of w^m in powers of (k - gamma)
    coeffs = [Fraction(0)] * m + [Fraction(beta) ** m]
    steps, _ = _back_substitute(coeffs, d, basis.image)
    u_coeffs = {i: c / Fraction(beta) ** i for i, c in enumerate(coeffs) if c}
    leaks = [d + j for j in steps if (m - d - j) % 2] + [i for i in u_coeffs if (m - i) % 2]
    if leaks:
        raise NotPartible(f"parity leak at degree {max(leaks)} while reducing power {m}")
    alphas = {j: alpha(j) for j in steps}
    v_coeffs = {j: step / alphas[j] for j, step in steps.items()}

    total = Polynomial([u_coeffs.get(i, 0) * Fraction(beta) ** i for i in range(max(d, 0))])
    for j, v in v_coeffs.items():
        total = total + v * alphas[j] * basis.image(j)
    if total != Polynomial.monomial(m, Fraction(beta) ** m):
        raise AssertionError("reduction identity failed exactness audit")
    return PartibleReduction(m, cert.gamma, beta, u_coeffs, v_coeffs, alphas)


def expand_adjoint_basis(L: ShiftOperator, cert: PartibleCertificate, s: int, alpha_s=None) -> list:
    """Coefficients of L*(x_s) in powers of 2(k - gamma).

    For the half-integral centers of the built-in operators this is the
    (2k+1)-power basis.
    """
    if alpha_s is None:
        alpha_s = default_alpha(cert.gamma)(s)
    image = adjoint_basis(L, cert).image(s)
    return [alpha_s * c / Fraction(2) ** i for i, c in enumerate(image.coeffs)]
