"""Rational functions in one parameter z, and the dense polynomial kernel.

Elements of Q(z) share their arithmetic interface with Fraction, and the
reflected dunders coerce int and Fraction operands upward.  Polynomial
code written against "field element" values therefore runs unchanged
over Q and over Q(z).

The coefficient-tuple routines below (index = degree, no trailing zeros)
are the package's one dense-polynomial kernel, shared by RationalFunction
and poly.Polynomial; their entries may be int, Fraction or
RationalFunction, and the additive and multiplicative routines keep the
entries' type, so integral coefficients run on int arithmetic with no
gcds.  A RationalFunction's num and den stay tuples of Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction


_ONE = (Fraction(1),)


def _trim(coeffs) -> tuple:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _as_fractions(coeffs) -> tuple:
    return _trim(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out += a[len(b):]
    return _trim(out)


def _neg(a):
    return tuple(-c for c in a)


def _mul(a, b):
    """Schoolbook product; zero coefficients of the left factor are skipped."""
    if not a or not b:
        return ()
    out = [a[-1] * 0] * (len(a) + len(b) - 1)  # a zero of the operands' type
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _scale(a, c):
    return _trim(x * c for x in a)


def _pow(a, n: int):
    """a^n for an integer n >= 0, by binary powering from a, which keeps its entries' type."""
    if not n:
        return _ONE
    out = None
    while True:
        if n & 1:
            out = a if out is None else _mul(out, a)
        n >>= 1
        if not n:
            return out
        a = _mul(a, a)


def _divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    inv = Fraction(1) / b[-1]
    quo = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv
        if c:
            quo[i - db] = c
            for j, bc in enumerate(b):
                rem[i - db + j] -= c * bc
    return _trim(quo), _trim(rem[:db])


def _gcd(a, b):
    """Monic greatest common divisor; () when both are zero."""
    while b:
        a, b = b, _divmod(a, b)[1]
    if a:
        a = _scale(a, Fraction(1) / a[-1])
    return a


def _exquo(a, g):
    """a / g for a divisor g of a; g = 1 costs nothing."""
    return a if g == _ONE else _divmod(a, g)[0]


def _horner(coeffs, x):
    """Exact value at x; the zero polynomial gives 0."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def clear_denominators(values) -> tuple[list, object]:
    """(nums, D) with values[i] = nums[i] / D, D the least common denominator.

    Over Q (int and Fraction values) nums and D are ints, D > 0.  When any
    value is a RationalFunction they are RationalFunctions with
    denominator 1, D monic, whose sums and products need no gcd.
    """
    if not any(isinstance(v, RationalFunction) for v in values):
        den = math.lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den
    rfs = [RationalFunction._coerce(v) for v in values]
    den = _ONE
    for v in rfs:
        den = _mul(den, _exquo(v.den, _gcd(den, v.den)))
    return ([RationalFunction._canonical(_mul(v.num, _exquo(den, v.den))) for v in rfs],
            RationalFunction._canonical(den))


def cancel_common(a, b) -> tuple:
    """(a/g, b/g) for g = gcd(a, b), a != 0, in the ring of clear_denominators.

    g is normalised so that a/g is positive over Z and monic over Q[z].
    """
    if isinstance(a, int) and isinstance(b, int):
        g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
        return a // g, b // g
    a, b = RationalFunction._coerce(a), RationalFunction._coerce(b)
    g = _scale(_gcd(a.num, b.num), a.num[-1])
    return (RationalFunction._canonical(_exquo(a.num, g)),
            RationalFunction._canonical(_exquo(b.num, g)))


def format_coeffs(coeffs, var: str = "z") -> str:
    """Parser-friendly text for a coefficient tuple, highest degree first."""
    pieces = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if not c:
            continue
        if isinstance(c, RationalFunction) and c.is_constant():
            c = c.as_fraction()
        if isinstance(c, (int, Fraction)):
            sign, body = ("-", str(-c)) if c < 0 else ("+", str(c))
        else:
            # "(num)/(den)" is unambiguous inside a product; "2*z + 1" is not
            sign, body = "+", (str(c) if c.den != _ONE else f"({c})")
        if deg:
            vp = var if deg == 1 else f"{var}^{deg}"
            body = vp if body == "1" else f"{body}*{vp}"
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces) or "0"


class RationalFunction:
    """An element of Q(z), kept in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=(Fraction(1),)):
        num, den = (RationalFunction._canonical(_as_fractions(p)) for p in (num, den))
        q = num / den
        object.__setattr__(self, "num", q.num)
        object.__setattr__(self, "den", q.den)

    @classmethod
    def _canonical(cls, num: tuple, den: tuple = _ONE) -> "RationalFunction":
        """num/den, given as trimmed Fraction tuples already in lowest terms, den monic.

        Skips the gcd normalisation: sums and products split by gcds first
        (Henrici), so their results are in lowest terms already.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def _coerce(value):
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, Fraction)):
            return RationalFunction._canonical((Fraction(value),) if value else ())
        return None

    # -- ring/field operations -------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        b, d = self.den, other.den
        if b == _ONE == d:
            return RationalFunction._canonical(_add(self.num, other.num))
        # Henrici: with g = gcd(b, d), a/b + c/d = t / (b/g * d) for
        # t = a d/g + c b/g, and only gcd(t, g) can divide both
        g = _ONE if b == _ONE or d == _ONE else _gcd(b, d)
        bg, dg = _exquo(b, g), _exquo(d, g)
        t = _add(_mul(self.num, dg), _mul(other.num, bg))
        if not t:
            return RationalFunction._canonical(())
        h = _ONE if g == _ONE else _gcd(t, g)
        return RationalFunction._canonical(_exquo(t, h), _mul(bg, _exquo(d, h)))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._canonical(_neg(self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == _ONE == d or not a or not c:
            return RationalFunction._canonical(_mul(a, c))
        # Henrici: cancel gcd(a, d) and gcd(c, b) before multiplying
        g = _ONE if d == _ONE else _gcd(a, d)
        h = _ONE if b == _ONE else _gcd(c, b)
        return RationalFunction._canonical(_mul(_exquo(a, g), _exquo(c, h)),
                                           _mul(_exquo(b, h), _exquo(d, g)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        inv = Fraction(1) / other.num[-1]
        return self * RationalFunction._canonical(_scale(other.den, inv), _scale(other.num, inv))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        # powers of coprime num and monic den stay coprime and monic
        return RationalFunction._canonical(_pow(self.num, n), _pow(self.den, n))

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_constant():
            return hash(self.as_fraction())
        return hash((self.num, self.den))

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == (Fraction(1),)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return self.num[0] if self.num else Fraction(0)

    def evaluate(self, z0) -> Fraction:
        """Exact value at z = z0; raises ZeroDivisionError at a pole."""
        z0 = Fraction(z0)
        return _horner(self.num, z0) / _horner(self.den, z0)

    def __str__(self):
        if self.den == (Fraction(1),):
            return format_coeffs(self.num)
        return f"({format_coeffs(self.num)})/({format_coeffs(self.den)})"

    def __repr__(self):
        return f"RationalFunction[{self}]"


#: The generator of Q(z).
Z = RationalFunction((Fraction(0), Fraction(1)))
