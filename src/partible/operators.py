"""Linear shift operators, their adjoints, degree profiles and certificates.

An operator L = sum_i a_i(k) sigma^i acts on sequences by shifting:
(sigma F)(k) = F(k+1).  Its adjoint L*(x)(k) = sum_i a_i(k-i) x(k-i)
turns a polynomial x into a summand whose products with any L-annihilated
sequence telescope, which is what every congruence in this package rests
on.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import is_prime
from .poly import Polynomial, parse_polynomial, poly_gcd, poly_to_text
from .ratfunc import RationalFunction, _horner


class InsufficientTerms(ValueError):
    """Not enough sequence terms for the requested check."""


def _as_poly(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial.constant(x)


class ShiftOperator:
    """sum_{i=0}^{J} a_i(k) sigma^i with polynomial coefficients, a_J != 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_as_poly(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        if not cs:
            raise ValueError("the zero operator has no order")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ShiftOperator is immutable")

    def __reduce__(self):
        return (ShiftOperator, (self.coeffs,))

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


@dataclass(frozen=True)
class ReductionProfile:
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
    b = []
    for ell in range(J + 1):
        acc = Polynomial()
        for j in range(ell, J + 1):
            acc = acc + math.comb(j, ell) * L.coeffs[J - j].shift(j - J)
        b.append(acc)
    d = max(p.degree - ell for ell, p in enumerate(b) if not p.is_zero)
    d = int(d)

    indicator = Polynomial()
    falling = Polynomial.constant(1)
    s = Polynomial.variable()
    for ell in range(J + 1):
        if ell:
            falling = falling * (s - (ell - 1))
        if d + ell >= 0:
            c = b[ell].coefficient(d + ell)
            if c:
                indicator = indicator + c * falling
    # never zero: some b_l attains degree d+l, and the falling factorials are a basis
    return ReductionProfile(d, tuple(b), indicator, frozenset(integer_roots(indicator)))


def _monic_integer_roots(h: list[int]) -> list[int]:
    """Integer roots of a monic squarefree integer polynomial (low degree first).

    The roots mod the smallest prime p at which all of them are simple are
    Newton-lifted until p^(2^i) exceeds twice the Cauchy bound; a symmetric
    residue is kept only if it is a root exactly.
    """
    if len(h) == 2:
        return [-h[0]]
    dh = [i * c for i, c in enumerate(h)][1:]
    p = 2
    while True:
        if is_prime(p):
            mod_roots = [r for r in range(p) if _horner(h, r) % p == 0]
            if all(_horner(dh, r) % p for r in mod_roots):
                break
        p += 1
    bound = 1 + max(abs(c) for c in h[:-1])
    out = []
    for r in mod_roots:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _horner(h, r) * pow(_horner(dh, r), -1, m)) % m
        y = r - m if 2 * r > m else r
        if _horner(h, y) == 0:
            out.append(y)
    return out


def rational_roots(f: Polynomial) -> list:
    """The distinct roots in Q of a nonzero f, ascending, found without factoring.

    Over Q(z) a root must make f vanish identically in z: the candidates
    are the roots at one specialization z = z0 where f stays nonzero.
    Over Q the denominators are cleared and zero roots stripped; the monic
    g(y) = lc^(n-1) f(y/lc) has the integer roots y = lc*x, which are
    searched in its squarefree part g / gcd(g, g').
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    if any(isinstance(c, RationalFunction) and not c.is_constant() for c in f.coeffs):
        for z0 in itertools.count(2):
            try:
                fz = Polynomial(c.evaluate(z0) if isinstance(c, RationalFunction) else c
                                for c in f.coeffs)
            except ZeroDivisionError:
                continue
            if fz:
                return [r for r in rational_roots(fz) if not f.eval(r)]
    qs = [c.as_fraction() if isinstance(c, RationalFunction) else c for c in f.coeffs]
    den = math.lcm(*(q.denominator for q in qs))
    ints = [int(q * den) for q in qs]
    v = next(i for i, c in enumerate(ints) if c)
    ints = ints[v:]
    roots = [Fraction(0)] if v else []
    n, lc = len(ints) - 1, ints[-1]
    if n:
        g = Polynomial([c * lc ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1])
        if n > 1:
            g = g // poly_gcd(g, g.hasse_derivative(1))
        roots += (Fraction(y, lc) for y in _monic_integer_roots([int(c) for c in g.coeffs]))
    return sorted(roots)


def integer_roots(f: Polynomial) -> set[int]:
    """Nonnegative integers s with f(s) = 0 (identically in z over Q(z))."""
    return {int(r) for r in rational_roots(f) if r.denominator == 1 and r >= 0}


@dataclass(frozen=True)
class Certificate:
    """The polynomials u_i making L*(x) F telescope for L-annihilated F."""

    u_polys: tuple


def certificate(L: ShiftOperator, x) -> Certificate:
    """u_i(k) = sum_{j=1}^{J-i} a_{i+j}(k-j) x(k-j) for i = 0..J-1."""
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
    return Certificate(tuple(us))


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
    lx = adjoint_apply(L, x)
    lhs = 0
    for k in range(n):
        lhs = lhs + lx.eval(k) * terms[k]
    us = certificate(L, x).u_polys
    head = 0
    tail = 0
    for i, u in enumerate(us):
        head = head + u.eval(0) * terms[i]
        tail = tail + u.eval(n) * terms[n + i]
    return lhs == head - tail


# -- JSON wire format ---------------------------------------------------------


def operator_to_dict(L: ShiftOperator) -> dict:
    return {
        "order": L.order,
        "coeffs": [poly_to_text(a) for a in L.coeffs],
        "field": L.field,
    }


def operator_from_dict(data: dict) -> ShiftOperator:
    try:
        order = data["order"]
        coeffs = data["coeffs"]
        field = data.get("field", "Q")
    except (TypeError, KeyError) as exc:
        raise ValueError(f"operator JSON is missing {exc}") from None
    if field not in ("Q", "Q(z)"):
        raise ValueError(f"unknown field {field!r}")
    if type(order) is not int or order < 0:
        raise ValueError(f"operator order must be a nonnegative integer, got {order!r}")
    if (not isinstance(coeffs, list) or len(coeffs) != order + 1
            or not all(isinstance(text, str) for text in coeffs)):
        raise ValueError("operator JSON needs order+1 coefficient strings")
    polys = [parse_polynomial(text, field) for text in coeffs]
    if polys[-1].is_zero:
        raise ValueError("leading coefficient a_J must be nonzero")
    return ShiftOperator(polys)
