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
gcds.  RationalFunction holds Q(z) over Z[z], as int tuples whose one gcd
is a primitive remainder sequence: Fraction is only its input and output.
"""

from __future__ import annotations

import math
from fractions import Fraction


_ONE = (1,)


def _trim(coeffs: list) -> tuple:
    """The list coeffs without its trailing zeros, trimmed in place, as a tuple."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out += a[len(b):]
    return _trim(out)


def _neg(a):
    return tuple(-c for c in a)


def _mul(a, b):
    """Schoolbook product; zero coefficients of the left factor are skipped, and a factor of one
    entry scales the other, where a zero of the left factor stays a[-1] * 0, as in the loop."""
    if not a or not b:
        return ()
    if len(a) == 1 or len(b) == 1:
        return _scale(b, a[0]) if len(a) == 1 else _trim([x * b[0] if x else a[-1] * 0 for x in a])
    out = [a[-1] * 0] * (len(a) + len(b) - 1)  # a zero of the operands' type
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _scale(a, c):
    return _trim([x * c for x in a])


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


def _primitive(a) -> tuple:
    """a in Z[z] divided by its content, with a positive leading coefficient; () stays ()."""
    c = math.gcd(*a) if not a or a[-1] > 0 else -math.gcd(*a)
    return tuple(x // c for x in a)


def _gcd(a, b) -> tuple:
    """gcd in Z[z] with a positive leading coefficient; () when both are zero.

    The gcd of the contents and the lesser power of z times the last nonzero
    member of the primitive remainder sequence (Collins 1967; Knuth, TAOCP
    vol. 2, 4.6.1) of the rest.  Each pseudo-division step scales the
    remainder by lc(b)/g, not lc(b), for g = gcd(lc(b), top).
    """
    content = math.gcd(*a, *b)
    if not a or not b:
        return _scale(_primitive(a or b), content)
    va, vb = (next(i for i, c in enumerate(p) if c) for p in (a, b))  # z is prime in Z[z]
    a, b = _primitive(a[va:]), _primitive(b[vb:])
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = list(a)
        for i in range(len(a) - len(b), -1, -1):
            g = math.gcd(rem[-1], b[-1])
            c, s = rem.pop() // g, b[-1] // g
            rem = [r * s for r in rem]
            for j, bc in enumerate(b[:-1], i):
                rem[j] -= c * bc
        a, b = b, _primitive(_trim(rem))
    return (0,) * min(va, vb) + _scale(a if not b else _ONE, content)


def _exquo(a, g) -> tuple:
    """a / g for a divisor g of a in Z[z], by exact long division; g = 1 and z^v | g cost nothing."""
    if g == _ONE:
        return a
    v = next(i for i, c in enumerate(g) if c)
    a, g = a[v:], g[v:]
    rem, quo = list(a), [0] * max(len(a) - len(g) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = rem.pop() // g[-1]
        for j, gc in enumerate(g[:-1], i):
            rem[j] -= quo[i] * gc
    return tuple(quo)


def _horner(coeffs, x):
    """Exact value at x; the zero polynomial gives 0."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def scalar(c):
    """The stored form of a scalar: an int when integral, a Fraction for any other
    rational, and a RationalFunction only when it depends on z."""
    if type(c) is int:
        return c
    if isinstance(c, RationalFunction):
        if len(c.num) > 1 or len(c.den) > 1:
            return c
        c = Fraction(c.num[0] if c.num else 0, c.den[0])
    elif isinstance(c, int):  # an int subclass such as bool
        return int(c)
    elif not isinstance(c, Fraction):
        raise TypeError(f"unsupported coefficient type {type(c).__name__}")
    return c.numerator if c.denominator == 1 else c


def quotient(a, b):
    """a / b in the field of a and b, in its stored form: never a float."""
    return scalar(Fraction(a, b) if isinstance(a, int) and isinstance(b, int) else a / b)


def clear_denominators(values) -> tuple[list, object]:
    """(nums, D) with values[i] = nums[i] / D, D the least common denominator.

    Over Q (int and Fraction values) nums and D are ints, D > 0.  When any
    value is a RationalFunction they are RationalFunctions in Z[z] (den 1,
    D[-1] > 0), whose sums and products need no gcd.
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

    g is normalised so that a/g has a positive leading coefficient.
    """
    if isinstance(a, int) and isinstance(b, int):
        g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
        return a // g, b // g
    a, b = RationalFunction._coerce(a), RationalFunction._coerce(b)
    g = _gcd(a.num, b.num) if a.num[-1] > 0 else _neg(_gcd(a.num, b.num))
    return (RationalFunction._canonical(_exquo(a.num, g)),
            RationalFunction._canonical(_exquo(b.num, g)))


def format_coeffs(coeffs, var: str = "z") -> str:
    """Parser-friendly text for a coefficient tuple, highest degree first."""
    pieces = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if not c:
            continue
        if isinstance(c, (int, Fraction)):
            sign, body = ("-", str(-c)) if c < 0 else ("+", str(c))
        else:
            # "(num)/(den)" is unambiguous inside a product; "2*z + 1" is not
            sign, body = "+", (str(c) if len(c.den) > 1 else f"({c})")
        if deg:
            vp = var if deg == 1 else f"{var}^{deg}"
            body = vp if body == "1" else f"{body}*{vp}"
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces) or "0"


class RationalFunction:
    """An element of Q(z) as num/den: trimmed int tuples, coprime in Z[z] (coprime
    over Q[z], joint content 1), den[-1] > 0; zero is ((), (1,)).  Printed monic."""

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=_ONE):
        num, den = tuple(num), tuple(den)
        ints, _ = clear_denominators(num + den)  # their common denominator cancels in num/den
        q = (RationalFunction._canonical(_trim(ints[:len(num)]))
             / RationalFunction._canonical(_trim(ints[len(num):])))
        object.__setattr__(self, "num", q.num)
        object.__setattr__(self, "den", q.den)

    @classmethod
    def _canonical(cls, num: tuple, den: tuple = _ONE) -> "RationalFunction":
        """num/den, given as trimmed int tuples already in the normal form of the class.

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
            num, den = value.as_integer_ratio()
            return RationalFunction._canonical((num,) if num else (), (den,))
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
        num, den = (other.den, other.num) if other.num[-1] > 0 else (_neg(other.den), _neg(other.num))
        return self * RationalFunction._canonical(num, den)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        # powers of coprime num and den stay coprime, and den's leading coefficient positive
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
        c = scalar(self)  # equal to a rational, hashed as that rational
        return hash(self._monic() if c is self else c)

    def _monic(self) -> tuple[tuple, tuple]:
        """num and den as Fraction tuples over the monic denominator: the printed form."""
        lead = self.den[-1]
        return tuple(Fraction(c, lead) for c in self.num), tuple(Fraction(c, lead) for c in self.den)

    def evaluate(self, z0) -> Fraction:
        """Exact value at z = z0; raises ZeroDivisionError at a pole."""
        z0 = Fraction(z0)
        return _horner(self.num, z0) / _horner(self.den, z0)

    def __str__(self):
        num, den = self._monic()
        if len(den) == 1:
            return format_coeffs(num)
        return f"({format_coeffs(num)})/({format_coeffs(den)})"

    def __repr__(self):
        return f"RationalFunction[{self}]"


#: The generator of Q(z).
Z = RationalFunction((0, 1))
