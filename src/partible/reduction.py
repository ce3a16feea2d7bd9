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
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .operators import ReductionProfile, ShiftOperator, adjoint_apply
from .operators import profile as operator_profile
from .poly import Polynomial
from .ratfunc import RationalFunction, _add, _mul, cancel_common, clear_denominators, quotient


class NotPartible(ValueError):
    """The operator lacks the symmetry the parity reduction requires."""


class ReductionResult(NamedTuple):
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


def reduce(Q: Polynomial, L: ShiftOperator) -> ReductionResult:
    """Split Q into adjoint image, exceptional monomials and remainder.

    _back_substitute against the monomial images L*(k^s), s <= deg Q - d, from one run of _sums at
    center 0, skipping the indicator roots s, where deg L*(k^s) < d+s; the remainder is 0 if d <= 0.
    """
    prof = operator_profile(L)
    terms, E0, factors, _ = _image_parts(L, 0, 0)
    images = list(itertools.islice(_sums(terms, factors), max(len(Q.coeffs) - prof.d, 0)))
    steps, exceptional, remainder = _back_substitute(
        *clear_denominators(Q.coeffs), prof.d, lambda j: (images[j], E0), skip=prof.roots)
    x = Polynomial([steps.get(s, 0) for s in range(len(Q.coeffs) - prof.d)])
    return ReductionResult(x, exceptional, Polynomial(remainder))


def _back_substitute(rem: list, den, d: int, image, skip=frozenset()) -> tuple[dict, dict, list]:
    """Cancel the terms of degree >= d of rem/den from the top down, fraction-free.

    rem and den are a clear_denominators pair, in Z or in Q[z].  The term
    of degree d+j is moved out whole when j is in skip, and is otherwise
    cancelled with image(j) = (I, E), a polynomial I/E of degree exactly
    d+j with I in the same ring: for c the top entry of rem and
    g = gcd(c, I[d+j]),

        rem <- (I[d+j]/g) rem - (c/g) I,    den <- (I[d+j]/g) den,

    and over Z rem and den are then divided by their content.  Returns
    the steps {j: factor}, the moved terms {j: c} and the remainder of
    degree < d, each divided out in the field.
    """
    rem = list(rem)
    steps, moved = {}, {}
    for deg in range(len(rem) - 1, max(d, 0) - 1, -1):
        c, j = rem.pop(), deg - d
        if not c:
            continue
        if j in skip:
            moved[j] = quotient(c, den)
            continue
        target, scale = image(j)
        if len(target) - 1 != deg:
            raise AssertionError(f"adjoint image {j} has degree {len(target) - 1}, expected {deg}")
        a, b = cancel_common(target[deg], c)
        den = a * den
        steps[j] = quotient(b * scale, den)
        rem = [a * r - b * t for r, t in zip(rem, target)]
        if isinstance(den, int):
            content = math.gcd(den, *rem)
            if content > 1:
                den //= content
                rem = [r // content for r in rem]
    return steps, moved, [quotient(r, den) for r in rem]


def _cleared(polys) -> tuple[list, object]:
    """The coefficient tuples polys over their one common denominator, and that denominator."""
    nums, den = clear_denominators([c for p in polys for c in p])
    it = iter(nums)
    return [tuple(itertools.islice(it, len(p))) for p in polys], den


def _image_parts(L: ShiftOperator, center, offset, scale=1) -> tuple:
    """(T, E_0, f, e) cleared once: T_i/E_0 = a_i(center - i + w/scale), f_i/e = w/scale + offset - i."""
    terms, E = _cleared([a.subst_linear(Fraction(1, scale), center - i).coeffs
                         for i, a in enumerate(L.coeffs)])
    factors, e = _cleared([(offset - i, Fraction(1, scale)) for i in range(len(terms))])
    return terms, E, factors, e


def _sums(products: list, factors: list):
    """Yield sum_i products_i, multiply each product by its factor, and repeat, when next asked:
    sum_i T_i f_i^j for j = 0, 1, ... from the products T_i and the factors f_i."""
    while True:
        yield functools.reduce(_add, products)
        products = list(map(_mul, products, factors))


# -- symmetry center ---------------------------------------------------------


def _mirrored(L: ShiftOperator, gamma, d: int) -> bool:
    """Whether a_i(gamma + k) = (-1)^d a_{J-i}(gamma - k - J) for every i."""
    J = L.order
    sign = -1 if d % 2 else 1
    return all(L.coeffs[i].shift(gamma) == sign * L.coeffs[J - i].subst_linear(-1, gamma - J)
               for i in range(J // 2 + 1))


def gamma_candidates(L: ShiftOperator) -> list:
    """The symmetry center in a list of one, or [] when there is none.

    Take the first pair (a_i, a_{J-i}) whose larger degree D is at least
    1, and l = [k^D] a_i.  Once the k^D coefficients of the condition
    agree, its k^(D-1) coefficients are linear in gamma with slope
    2 D l, so l = 0 leaves no center and l != 0 leaves one candidate,
    which is then checked exactly.  A constant operator is checked at
    the conventional center 0.
    """
    d, J = operator_profile(L).d, L.order
    gamma = 0
    for i in range(J // 2 + 1):
        lo, hi = L.coeffs[i], L.coeffs[J - i]
        D = max(lo.degree, hi.degree)
        if D >= 1:
            ell = lo.coefficient(D)
            if not ell:
                return []
            sign = -1 if (d + D) % 2 else 1
            gamma = quotient(D * J * ell - lo.coefficient(D - 1) - sign * hi.coefficient(D - 1),
                             2 * D * ell)
            break
    return [gamma] if _mirrored(L, gamma, d) else []


def find_gamma(L: ShiftOperator):
    """The symmetry center, or None when there is none."""
    return next(iter(gamma_candidates(L)), None)


class PartibleCertificate(NamedTuple):
    """Witness that an operator is power-partible: its center, degree, order."""

    gamma: object
    d: int
    order: int


def certificate(L: ShiftOperator, candidates: list) -> PartibleCertificate | None:
    """The certificate of L from its gamma_candidates(L): None without a center or when L is degenerate."""
    prof = operator_profile(L)
    if prof.roots or not candidates:
        return None
    return PartibleCertificate(candidates[0], prof.d, L.order)


@functools.lru_cache(maxsize=8)
def is_partible(L: ShiftOperator) -> PartibleCertificate | None:
    """The certificate of a nondegenerate operator with a symmetry center."""
    return certificate(L, gamma_candidates(L))


# -- parity-preserving reduction ----------------------------------------------


def center_scale(gamma) -> int:
    """2 for half-integral centers, else 1.

    With a half-integral center the scaled variable 2(k - gamma) has
    integer values on integers (it is 2k+1 for gamma = -1/2), so the
    reduction is carried out in its powers.  A center depending on z
    has scale 1.
    """
    return 1 if isinstance(gamma, RationalFunction) or gamma.denominator != 2 else 2


@functools.lru_cache(maxsize=8)
def adjoint_basis(L: ShiftOperator, cert: PartibleCertificate):
    """The function j -> (I, E), I/E = L*((k - gamma + J/2)^j) in powers of w = beta (k - gamma).

    beta = center_scale(gamma).  The certificate is checked once, a false one raising NotPartible,
    and so are the parts of _image_parts, mapped back to k: T_i/E_0 = a_i(k - i), f_i/e = k - i -
    gamma + J/2.  Then I = sum_i T_i f_i^j and E = E_0 e^j, from one run of _sums per parity of j,
    from T_i or T_i f_i stepped by f_i^2, so the parts audit proves each image exact, and each is
    built once, when first asked for, in O(J (deg L + j)) ring operations: only the parity read.
    """
    prof = operator_profile(L)
    if (L.order != cert.order or prof.roots or prof.d != cert.d
            or not _mirrored(L, cert.gamma, cert.d)):
        raise NotPartible(f"{L!r} is not power-partible for center {cert.gamma}")
    beta, half = center_scale(cert.gamma), Fraction(cert.order, 2)
    terms, E0, factors, e = _image_parts(L, cert.gamma, half, beta)
    for i, (T, f) in enumerate(zip(terms, factors)):
        back = [Polynomial(p).subst_linear(beta, -beta * cert.gamma) for p in (T, f)]
        if back != [E0 * L.coeffs[i].shift(-i), e * Polynomial((half - i - cert.gamma, 1))]:
            raise AssertionError(f"adjoint image part {i} failed exactness audit")

    squares = [_mul(f, f) for f in factors]
    runs = [([], _sums(start, squares)) for start in (terms, list(map(_mul, terms, factors)))]

    def image(j: int) -> tuple[tuple, object]:
        images, run = runs[j % 2]
        try:
            while len(images) <= j // 2:
                images.append(next(run))
        except BaseException:  # a run an exception left is spent: build the next call's basis anew
            adjoint_basis.cache_clear()
            raise
        return images[j // 2], E0 * e ** j

    return image


class PartibleReduction(NamedTuple):
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
    alphas: dict


def partible_reduce(m: int, L: ShiftOperator, cert: PartibleCertificate) -> PartibleReduction:
    """Reduce w^m, w = basis_scale*(k - gamma), keeping only same-parity powers.

    _back_substitute against adjoint_basis(L, cert) in the centered
    coordinates, where L*(x_j) has only powers of the parity of d+j, so
    the u_i left below degree d share the parity of m.  The identity
    above, times the common denominator of u, v and the alphas, is checked
    in centered coordinates and ring arithmetic before returning.  The
    scaling is alphas[s] = beta^(s+1), so x_s = beta (beta (k - gamma + J/2))^s.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    image, d, beta = adjoint_basis(L, cert), cert.d, center_scale(cert.gamma)
    steps, _, remainder = _back_substitute([0] * m + [1], 1, d, image)
    u_coeffs = {i: c for i, c in enumerate(remainder) if c}
    leaks = [d + j for j in steps if (m - d - j) % 2] + [i for i in u_coeffs if (m - i) % 2]
    if leaks:
        raise NotPartible(f"parity leak at degree {max(leaks)} while reducing power {m}")
    alphas = {j: beta ** (j + 1) for j in steps}
    v_coeffs = {j: quotient(step, alphas[j]) for j, step in steps.items()}

    # the identity times the common denominator D of its coefficients, in Z or Q[z]:
    # D w^m = sum_i U_i w^i + sum_j V_j I_j, with L*(x_j) = I_j / E_j
    low = max(d, 0)
    nums, D = clear_denominators([u_coeffs.get(i, 0) for i in range(low)]
                                 + [quotient(v * alphas[j], image(j)[1]) for j, v in v_coeffs.items()])
    total = nums[:low] + [0] * (max(m + 1, low) - low)
    for j, V in zip(v_coeffs, nums[low:]):
        for i, t in enumerate(image(j)[0]):
            total[i] += V * t
    if total != [0] * m + [D] + [0] * (len(total) - m - 1):
        raise AssertionError("reduction identity failed exactness audit")
    return PartibleReduction(m, cert.gamma, beta, u_coeffs, v_coeffs, alphas)


def normal_forms(M: int, L: ShiftOperator, cert: PartibleCertificate) -> dict:
    """m -> c_m for each m <= M of the parity s = M % 2: N(w^m) = c_m w^s is the u_coeffs of
    partible_reduce(m, L, cert), w^s being the one power below d of that parity (else ValueError).

    c_s = 1, and image j = m - d, of degree m, top entry l and the parity of m, maps to 0 under N,
    so c_m = -(1/l) sum_{i<m} I_j[i] c_i.  With c_i = n_i/D, each step is _back_substitute's cancel
    (a, b) = cancel_common(-l, sum I_j[i] n_i): c_m = b/(a D), n_i <- a n_i, D <- a D.  The residual
    audit then checks n_s = D and each image as stated with sum_i I_j[i] n_i = 0, else AssertionError.
    """
    image, d, s = adjoint_basis(L, cert), cert.d, M % 2
    if not s < d <= s + 2:
        raise ValueError(f"normal_forms keeps one power below d = {d}, not {list(range(s, max(d, 0), 2))}")
    nums, D, images = [1], 1, {m: image(m - d)[0] for m in range(s + 2, M + 1, 2)}
    for m, I in images.items():
        a, b = cancel_common(-I[m], sum(c * n for c, n in zip(I[s:m:2], nums)))
        nums, D = [a * n for n in nums] + [b], a * D
    failed = [m for m, I in images.items() if len(I) != m + 1 or any(I[1 - s::2])
              or sum(c * n for c, n in zip(I[s::2], nums))]
    if failed or nums[0] != D:
        raise AssertionError(f"normal form of power {min(failed, default=s)} failed the residual audit")
    return {m: quotient(n, D) for m, n in zip(range(s, M + 1, 2), nums)}
