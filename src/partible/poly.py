"""Dense univariate polynomials in k over an exact coefficient field.

Every coefficient is held in the stored form of ratfunc.scalar: an int
when integral, a Fraction for any other rational, and a RationalFunction
only when it depends on z, so a constant of Q(z) is stored as its
rational and the kinds may mix within one polynomial.  The common
integer case thus runs on int arithmetic.  All arithmetic stays exact
and runs on the coefficient-tuple kernel of the ratfunc module.  Powers
and Taylor shifts take one path over both fields: they clear the
denominators, work in Z or Z[z], and divide back once.  The same
class also serves for polynomials in other formal variables (the
indicator variable s, the symmetry-center unknown), since the variable
name only matters when printing.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .ratfunc import (
    RationalFunction, Z, _add, _horner, _mul, _neg, _pow, _scale, _trim, clear_denominators,
    format_coeffs, quotient, scalar,
)

#: degree of the zero polynomial
NEG_INF = float("-inf")


def _operand(x):
    """Coefficients of a polynomial or scalar operand; None for anything else."""
    if isinstance(x, Polynomial):
        return x.coeffs
    if isinstance(x, (int, Fraction, RationalFunction)):
        return Polynomial((x,)).coeffs
    return None


class Polynomial:
    """Coefficient tuple indexed by degree, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim([scalar(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((0, 1))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self.coeffs == other

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else Polynomial(_add(self.coeffs, other))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(_neg(self.coeffs))

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else Polynomial(_add(self.coeffs, _neg(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(_mul(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction, RationalFunction)):
            return Polynomial(_scale(self.coeffs, other))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """With p = N/D for N over Z or Z[z], p^n = N^n / D^n: one division."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        nums, den = clear_denominators(self.coeffs)
        power = Polynomial(_pow(nums, n))
        return power if den == 1 else power * (Fraction(1) / den ** n)

    # -- evaluation and substitution -----------------------------------------

    def eval(self, v):
        """Exact Horner evaluation; the zero polynomial gives 0."""
        return _horner(self.coeffs, v)

    def subst_linear(self, a, b) -> "Polynomial":
        """The polynomial k |-> p(a*k + b).

        The shift by b runs in place on the coefficient list: n(n-1)/2
        multiply-adds, the additive Taylor shift of von zur Gathen and
        Gerhard.  With b = u/v it shifts the coefficients of
        A(t) = D v^(n-1) p(t/v) by u, D clearing the denominators of p, in
        Z or Z[z], and divides back.  Coefficient i is then scaled by a^i.
        """
        n = len(self.coeffs)
        (u,), v = clear_denominators([b])
        cs, den = clear_denominators(self.coeffs)
        cs = [c * v ** (n - 1 - i) for i, c in enumerate(cs)]
        if u:
            for i in range(n - 1):
                for j in range(n - 2, i - 1, -1):
                    cs[j] = cs[j] + u * cs[j + 1]
        if (den, v) != (1, 1):
            cs = [quotient(c, den * v ** (n - 1 - i)) for i, c in enumerate(cs)]
        if a != 1:
            power = a
            for i in range(1, n):
                cs[i] = cs[i] * power
                power = power * a
        return Polynomial(cs)

    def shift(self, c) -> "Polynomial":
        """Exact Taylor shift: the polynomial k |-> p(k + c)."""
        return self.subst_linear(1, c)

    def __repr__(self):
        return f"Polynomial[{poly_to_text(self)}]"

    def __str__(self):
        return poly_to_text(self)


def parity_support(coeffs) -> str:
    """Which index parities carry nonzero coefficients: even/odd/mixed/zero."""
    has_even = any(c for i, c in enumerate(coeffs) if i % 2 == 0)
    has_odd = any(c for i, c in enumerate(coeffs) if i % 2 == 1)
    if has_even and has_odd:
        return "mixed"
    if has_even:
        return "even"
    if has_odd:
        return "odd"
    return "zero"


# -- text form --------------------------------------------------------------


class PolynomialSyntaxError(ValueError):
    """Parse failure with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


#: the largest exponent, and the largest degree of a power, the parser accepts
MAX_EXPONENT = 1000
#: the largest estimated size of a power: its count of numbers times the bits of each
MAX_POWER_BITS = 10 ** 7
#: the deepest nesting of parentheses the parser accepts
MAX_NESTING = 100


def _z_degree_and_bits(p: Polynomial) -> tuple[int, int]:
    """The largest degree in z of p's coefficients, and b: each rational in p^n has <= n*b bits."""
    parts = [part for c in p.coeffs
             for part in ((c.num, c.den) if isinstance(c, RationalFunction) else ((c,),))]
    numbers = [x for part in parts for x in part]
    bits = max([x.numerator.bit_length() + x.denominator.bit_length() for x in numbers], default=0)
    return max(map(len, parts), default=1) - 1, bits + len(numbers).bit_length()


#: one token: a run of decimal digits or any other single character, after any whitespace
_TOKEN = re.compile(r"\s*(\d+|\S)")


class _Parser:
    """Recursive descent over the tokens of one text; columns[i] is where tokens[i] starts."""

    def __init__(self, text: str, field: str):
        if field not in ("Q", "Q(z)"):
            raise ValueError(f"unknown field {field!r}")
        self.tokens, self.columns = [], []
        for match in _TOKEN.finditer(text):
            self.tokens.append(match[1])
            self.columns.append(match.start(1))
        self.tokens.append("")  # end of input
        self.columns.append(len(text))
        self.field = field
        self.i = 0
        self.depth = 0

    def error(self, message, at=None):
        raise PolynomialSyntaxError(message, (self.columns[self.i] if at is None else at) + 1)

    def parse(self) -> Polynomial:
        value = self.expr()
        if self.tokens[self.i]:
            self.error(f"unexpected {self.tokens[self.i][0]!r}")
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while (sign := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            value = value + self.term() if sign == "+" else value - self.term()
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            token = self.tokens[self.i]
            if token == "*":
                self.i += 1
                value = value * self.factor()
            elif token == "/":
                self.i += 1
                at = self.columns[self.i - 1] + 1  # just after the '/'
                divisor = self.factor()
                if divisor.degree > 0:
                    self.error("division by a non-constant polynomial", at)
                if divisor.is_zero:
                    self.error("division by zero", at)
                value = value * (Fraction(1) / divisor.coefficient(0))
            else:
                return value

    def factor(self) -> Polynomial:
        negate = False
        while self.tokens[self.i] in ("-", "+"):
            negate ^= self.tokens[self.i] == "-"
            self.i += 1
        return -self.power() if negate else self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.tokens[self.i] != "^":
            return base
        self.i += 1
        token, at = self.tokens[self.i], self.columns[self.i]
        if not token.isdecimal():
            self.error("expected an integer" if token else "missing exponent")
        n = self.number()
        self.i += 1
        zdeg, bits = _z_degree_and_bits(base)
        kdeg, zdeg, bits = n * max(base.degree, 0), n * zdeg, n * bits
        if n > MAX_EXPONENT or max(kdeg, zdeg) > MAX_EXPONENT:
            self.error(f"exponent or power degree above {MAX_EXPONENT}", at)
        if bits > MAX_EXPONENT ** 2:
            self.error(f"power with numbers above {MAX_EXPONENT ** 2} bits", at)
        if (kdeg + 1) * (zdeg + 1) * bits > MAX_POWER_BITS:
            self.error(f"power above {MAX_POWER_BITS} bits in all", at)
        return base ** n

    def atom(self) -> Polynomial:
        token = self.tokens[self.i]
        if token == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.i += 1
            self.depth += 1
            value = self.expr()
            if self.tokens[self.i] != ")":
                self.error("expected ')'")
            self.depth -= 1
        elif token.isdecimal():
            value = Polynomial.constant(self.number())
        elif token == "k":
            value = Polynomial.variable()
        elif token == "z":
            if self.field == "Q":
                self.error("variable 'z' is not available over Q")
            value = Polynomial.constant(Z)
        else:
            self.error(f"unexpected {token!r}" if token else "unexpected end of input")
        self.i += 1
        return value

    def number(self) -> int:
        """int(tokens[i]); a run past CPython's digit limit for int/str conversion is an error here."""
        try:
            return int(self.tokens[self.i])
        except ValueError as exc:
            self.error(str(exc))


def parse_polynomial(text: str, field: str = "Q") -> Polynomial:
    """Parse `(k+2)^3`-style text into a polynomial over Q or Q(z)."""
    return _Parser(text, field).parse()


def poly_to_text(p: Polynomial, var: str = "k") -> str:
    """Canonical text form, highest degree first; parse_polynomial inverts it."""
    return format_coeffs(p.coeffs, var)


__all__ = [
    "NEG_INF",
    "Polynomial",
    "PolynomialSyntaxError",
    "parity_support",
    "parse_polynomial",
    "poly_to_text",
]
