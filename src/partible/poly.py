"""Dense univariate polynomials in k over an exact coefficient field.

Every coefficient is held in the stored form of ratfunc.scalar: an int
when integral, a Fraction for any other rational, and a RationalFunction
only when it depends on z, so a constant of Q(z) is stored as its
rational and the kinds may mix.  All arithmetic stays exact and runs
on the coefficient-tuple kernel of the ratfunc module, so the common
integer case runs on int arithmetic; the text parser works on those
tuples too and wraps one Polynomial per text.  Powers and Taylor
shifts take one path over both fields: they clear the denominators,
work in Z or Z[z], and divide back once.  The class also serves for
polynomials in other formal variables (the indicator variable s, the
symmetry-center unknown), since the variable name only matters when
printing.
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
    even, odd = any(coeffs[0::2]), any(coeffs[1::2])
    return ("mixed" if odd else "even") if even else ("odd" if odd else "zero")


# -- text form --------------------------------------------------------------


class PolynomialSyntaxError(ValueError):
    """Parse failure with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.message, self.column = message, column


#: the largest exponent, and the largest degree of a power, the parser accepts
MAX_EXPONENT = 1000
#: the largest estimated size of a power: its count of numbers times the bits of each
MAX_POWER_BITS = 10 ** 7
#: the deepest nesting of parentheses the parser accepts
MAX_NESTING = 100


def _z_degree_and_bits(coeffs) -> tuple[int, int]:
    """The largest degree in z of coeffs, in stored form, and b: each rational in p^n has <= n*b bits."""
    zdeg, numbers = 0, []
    for c in coeffs:
        if type(c) is RationalFunction:
            zdeg = max(zdeg, len(c.num) - 1, len(c.den) - 1)
            numbers += c.num + c.den
        else:
            numbers.append(c)
    bits = max([x.bit_length() + 1 if type(x) is int else x.numerator.bit_length() + x.denominator.bit_length()
                for x in numbers], default=0)
    return zdeg, bits + len(numbers).bit_length()


#: one token: a run of decimal digits or any other single character but whitespace
_TOKEN = re.compile(r"\d+|\S")


class _Parser:
    """Recursive descent over the tokens of one text, on trimmed coefficient tuples of the
    ratfunc kernel; parse() wraps the result in one Polynomial.  Entries are put in stored form
    only where a check reads them, and a token's column is found only for an error."""

    def __init__(self, text: str, field: str):
        if field not in ("Q", "Q(z)"):
            raise ValueError(f"unknown field {field!r}")
        self.text, self.tokens = text, _TOKEN.findall(text) + [""]  # "" ends the input
        self.field, self.i, self.depth = field, 0, 0

    def error(self, message, at=None, offset=0):
        # the column offset past the start of tokens[at], by default the current token, by one rescan
        starts = [match.start() for match in _TOKEN.finditer(self.text)] + [len(self.text)]
        raise PolynomialSyntaxError(message, starts[self.i if at is None else at] + offset + 1)

    def parse(self) -> Polynomial:
        value = self.expr()
        if self.tokens[self.i]:
            self.error(f"unexpected {self.tokens[self.i][0]!r}")
        return Polynomial(value)

    def expr(self) -> tuple:
        value = self.term()
        while (sign := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            value = _add(value, self.term() if sign == "+" else _neg(self.term()))
        return value

    def term(self) -> tuple:
        value = self.factor()
        while True:
            token = self.tokens[self.i]
            if token == "*":
                self.i += 1
                value = _mul(value, self.factor())
            elif token == "/":
                slash, self.i = self.i, self.i + 1
                divisor = self.factor()
                if len(divisor) > 1:
                    self.error("division by a non-constant polynomial", slash, 1)
                if not divisor:
                    self.error("division by zero", slash, 1)
                value = _scale(value, Fraction(1) / scalar(divisor[0]))
            else:
                return value

    def factor(self) -> tuple:
        negate = False
        while (token := self.tokens[self.i]) in ("-", "+"):
            negate ^= token == "-"
            self.i += 1
        value = self.atom()
        if self.tokens[self.i] == "^":
            value = self.power(value)
        return _neg(value) if negate else value

    def power(self, base: tuple) -> tuple:
        """base^n for the exponent after the current '^', whose size is checked first."""
        self.i += 1
        token, at = self.tokens[self.i], self.i
        if not token.isdecimal():
            self.error("expected an integer" if token else "missing exponent")
        n = self.number()
        self.i += 1
        ints = all(type(c) is int for c in base)
        base = base if ints else tuple(map(scalar, base))
        zdeg, bits = _z_degree_and_bits(base)
        kdeg, zdeg, bits = n * max(len(base) - 1, 0), n * zdeg, n * bits
        if n > MAX_EXPONENT or max(kdeg, zdeg) > MAX_EXPONENT:
            self.error(f"exponent or power degree above {MAX_EXPONENT}", at)
        if bits > MAX_EXPONENT ** 2:
            self.error(f"power with numbers above {MAX_EXPONENT ** 2} bits", at)
        if (kdeg + 1) * (zdeg + 1) * bits > MAX_POWER_BITS:
            self.error(f"power above {MAX_POWER_BITS} bits in all", at)
        # a base with a Fraction or RationalFunction takes Polynomial.__pow__: one division
        return _pow(base, n) if ints else (Polynomial(base) ** n).coeffs

    def atom(self) -> tuple:
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
            value = (n,) if (n := self.number()) else ()
        elif token == "k":
            value = (0, 1)
        elif token == "z":
            if self.field == "Q":
                self.error("variable 'z' is not available over Q")
            value = (Z,)
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
