"""Linear shift operators, their adjoints, degree profiles and certificates.

An operator L = sum_i a_i(k) sigma^i acts on sequences by shifting:
(sigma F)(k) = F(k+1).  Its adjoint L*(x)(k) = sum_i a_i(k-i) x(k-i)
turns a polynomial x into a summand whose products with any L-annihilated
sequence telescope, which is what every congruence in this package rests
on.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .exact import is_prime
from .poly import Polynomial, PolynomialSyntaxError, parse_polynomial, poly_to_text
from .ratfunc import RationalFunction, _exquo, _gcd, _horner, _trim, clear_denominators


class InsufficientTerms(ValueError):
    """Not enough sequence terms for the requested check."""


def _as_poly(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial.constant(x)


class ShiftOperator:
    """sum_{i=0}^{J} a_i(k) sigma^i with polynomial coefficients, a_J != 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = _trim([_as_poly(c) for c in coeffs])
        if not cs:
            raise ValueError("the zero operator has no order")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("ShiftOperator is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def field(self) -> str:
        for a in self.coeffs:
            if any(isinstance(c, RationalFunction) for c in a.coeffs):
                return "Q(z)"
        return "Q"

    def __eq__(self, other):
        if isinstance(other, ShiftOperator):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        inner = ", ".join(poly_to_text(a) for a in self.coeffs)
        return f"ShiftOperator[{inner}]"


def adjoint_apply(L: ShiftOperator, x) -> Polynomial:
    """L*(x)(k) = sum_i a_i(k - i) x(k - i)."""
    x = _as_poly(x)
    total = Polynomial()
    for i, a in enumerate(L.coeffs):
        total = total + (a * x).shift(-i)
    return total


class ReductionProfile(NamedTuple):
    """Degree data of an operator.

    d bounds deg L*(x) via deg L*(x) <= d + deg x, with equality exactly
    when deg x avoids the nonnegative integer roots of the indicator
    polynomial.  An empty root set makes the operator nondegenerate.
    """

    d: int
    b_polys: tuple
    indicator: Polynomial
    roots: frozenset

    @property
    def nondegenerate(self) -> bool:
        return not self.roots


@functools.lru_cache(maxsize=8)
def profile(L: ShiftOperator) -> ReductionProfile:
    """Aggregated coefficients b_l, the degree d, indicator and its roots."""
    J = L.order
    shifted = [L.coeffs[J - j].shift(j - J) for j in range(J + 1)]
    b = []
    for ell in range(J + 1):
        acc = Polynomial()
        for j in range(ell, J + 1):
            acc = acc + math.comb(j, ell) * shifted[j]
        b.append(acc)
    d = max(p.degree - ell for ell, p in enumerate(b) if not p.is_zero)

    indicator = Polynomial()
    falling = Polynomial.constant(1)
    s = Polynomial.variable()
    for ell in range(J + 1):
        if ell:
            falling = falling * (s - (ell - 1))
        indicator = indicator + b[ell].coefficient(d + ell) * falling
    # never zero: some b_l attains degree d+l, and the falling factorials are a basis
    return ReductionProfile(d, tuple(b), indicator, frozenset(integer_roots(indicator)))


def _gcd_mod(a, b, p: int) -> tuple:
    """A gcd in GF(p)[s] of two coefficient sequences, lowest degree first; () when both are 0 mod p."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        while len(a) >= len(b):  # a -= q s^shift b, which cancels the leading term of a
            q, shift = a[-1] * pow(b[-1], -1, p) % p, len(a) - len(b)
            a = _trim([*a[:shift], *((x - q * y) % p for x, y in zip(a[shift:], b))])
        a, b = b, a
    return a


def integer_roots(f: Polynomial) -> set[int]:
    """Nonnegative integers s with f(s) = 0, found without factoring.

    The denominators are cleared.  Over Q(z) a root must make f vanish
    identically in z, so h is the gcd in Z[s] of the coefficients of each
    power of z; over Q, h is f cleared.  A nonzero constant h has no root.
    For every other degree, linear ones too, the roots of the squarefree part
    h mod the smallest prime p at which h stays squarefree, so that all of
    them are simple, are Newton-lifted until p^(2^i) exceeds
    2(1 + max|h_i|), twice a Cauchy bound as |h_n| >= 1; a symmetric
    residue is kept only if it is a nonnegative root exactly.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    h, _ = clear_denominators(f.coeffs)
    if isinstance(h[-1], RationalFunction):  # a root of every z^i coefficient
        nums = [c.num for c in h]
        h = functools.reduce(_gcd, (_trim([n[i] if i < len(n) else 0 for n in nums])
                                    for i in range(max(map(len, nums)))), ())
    if len(h) < 2:  # a nonzero constant
        return set()
    h = _exquo(h, _gcd(h, tuple(i * c for i, c in enumerate(h))[1:]))
    dh = tuple(i * c for i, c in enumerate(h))[1:]
    p = 2
    while not is_prime(p) or len(_gcd_mod(h, dh, p)) != 1:  # h mod p is not squarefree
        p += 1
    hp = [c % p for c in h]
    mod_roots = [r for r in range(p) if _horner(hp, r) % p == 0]
    bound = 2 * (1 + max(map(abs, h)))
    roots = set()
    for r in mod_roots:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(h, r) * pow(_horner(dh, r), -1, m)) % m
        y = r - m if 2 * r > m else r
        if y >= 0 and _horner(h, y) == 0:
            roots.add(y)
    return roots


def certificate(L: ShiftOperator, x) -> tuple:
    """The polynomials u_i making L*(x) F telescope for L-annihilated F.

    u_i(k) = sum_{j=1}^{J-i} a_{i+j}(k-j) x(k-j) for i = 0..J-1.
    """
    J = L.order
    if J < 1:
        raise ValueError("certificates require an operator of order >= 1")
    x = _as_poly(x)
    us = []
    for i in range(J):
        u = Polynomial()
        for j in range(1, J - i + 1):
            u = u + (L.coeffs[i + j] * x).shift(-j)
        us.append(u)
    return tuple(us)


def annihilates(L: ShiftOperator, terms) -> bool:
    """Whether sum_i a_i(k) terms[k+i] vanishes for every available k."""
    J = L.order
    if len(terms) <= J:
        raise InsufficientTerms(f"need more than {J} terms, got {len(terms)}")
    for k in range(len(terms) - J):
        acc = 0
        for i, a in enumerate(L.coeffs):
            acc = acc + a.eval(k) * terms[k + i]
        if acc != 0:
            return False
    return True


def telescope_sum_check(L: ShiftOperator, x, terms, n: int) -> bool:
    """Exact check of the telescoped partial sum.

    sum_{k=0}^{n-1} L*(x)(k) F(k)
        = sum_i u_i(0) F(i) - sum_i u_i(n) F(n+i)
    whenever L annihilates F.
    """
    J = L.order
    if len(terms) < n + J:
        raise InsufficientTerms(f"need at least {n + J} terms, got {len(terms)}")
    lx, us = adjoint_apply(L, x), certificate(L, x)
    lhs = sum(lx.eval(k) * terms[k] for k in range(n))
    head = sum(u.eval(0) * terms[i] for i, u in enumerate(us))
    return lhs == head - sum(u.eval(n) * terms[n + i] for i, u in enumerate(us))


# -- JSON wire format ---------------------------------------------------------


def operator_to_dict(L: ShiftOperator) -> dict:
    return {
        "order": L.order,
        "coeffs": [poly_to_text(a) for a in L.coeffs],
        "field": L.field,
    }


def operator_from_dict(data: dict) -> ShiftOperator:
    if not isinstance(data, dict):
        raise ValueError(f"operator JSON must be an object, got {type(data).__name__}")
    try:
        order = data["order"]
        coeffs = data["coeffs"]
        field = data.get("field", "Q")
    except KeyError as exc:
        raise ValueError(f"operator JSON is missing {exc}") from None
    if type(order) is not int or order < 0:
        raise ValueError(f"operator order must be a nonnegative integer, got {order!r}")
    if (not isinstance(coeffs, list) or len(coeffs) != order + 1
            or not all(isinstance(text, str) for text in coeffs)):
        raise ValueError("operator JSON needs order+1 coefficient strings")
    polys = []
    for i, text in enumerate(coeffs):
        try:
            polys.append(parse_polynomial(text, field))
        except PolynomialSyntaxError as exc:
            raise PolynomialSyntaxError(f"coefficient {i}: {exc.message}", exc.column) from None
    if polys[-1].is_zero:
        raise ValueError("leading coefficient a_J must be nonzero")
    return ShiftOperator(polys)
