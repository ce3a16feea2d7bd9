"""Rational functions in one parameter z, and the dense polynomial kernel.

Elements of Q(z) share their arithmetic interface with Fraction, and the
reflected dunders coerce int and Fraction operands upward.  Polynomial
code written against "field element" values therefore runs unchanged
over Q and over Q(z).

The coefficient-tuple routines below (index = degree, no trailing zeros)
are the package's one dense-polynomial kernel, shared by RationalFunction
and poly.Polynomial; their entries may be Fraction or RationalFunction.
"""

from __future__ import annotations

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
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _neg(a):
    return tuple(-c for c in a)


def _mul(a, b):
    """Schoolbook product; zero coefficients of the left factor are skipped."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _scale(a, c):
    return _trim(x * c for x in a)


def _pow(a, n: int):
    """a^n for an integer n >= 0, by binary powering."""
    out = _ONE
    while n:
        if n & 1:
            out = _mul(out, a)
        n >>= 1
        if n:
            a = _mul(a, a)
    return out


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


def _horner(coeffs, x):
    """Exact value at x; the zero polynomial gives 0."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def format_coeffs(coeffs, var: str = "z") -> str:
    """Parser-friendly text for a coefficient tuple, highest degree first."""
    pieces = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if not c:
            continue
        if isinstance(c, RationalFunction) and c.is_constant():
            c = c.as_fraction()
        if isinstance(c, Fraction):
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
        num = _as_fractions(num)
        den = _as_fractions(den)
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        if not num:
            den = (Fraction(1),)
        else:
            g = _gcd(num, den)
            if len(g) > 1:
                num = _divmod(num, g)[0]
                den = _divmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                inv = Fraction(1) / lead
                num = _scale(num, inv)
                den = _scale(den, inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _canonical(cls, num: tuple, den: tuple = _ONE) -> "RationalFunction":
        """num/den, given as trimmed Fraction tuples already in lowest terms, den monic.

        Skips the gcd normalisation, e.g. for sums and products of
        polynomials (den = 1) and for negation.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):
        return (RationalFunction, (self.num, self.den))

    @classmethod
    def constant(cls, value) -> "RationalFunction":
        return cls((Fraction(value),))

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
        if self.den == _ONE == other.den:
            return RationalFunction._canonical(_add(self.num, other.num))
        return RationalFunction(
            _add(_mul(self.num, other.den), _mul(other.num, self.den)),
            _mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._canonical(_neg(self.num), self.den)

    def __pos__(self):
        return self

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
        if self.den == _ONE == other.den:
            return RationalFunction._canonical(_mul(self.num, other.num))
        return RationalFunction(_mul(self.num, other.num), _mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(_mul(self.num, other.den), _mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (RationalFunction.constant(1) / self) ** (-n)
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

    @property
    def numerator(self) -> tuple:
        return self.num

    @property
    def denominator(self) -> tuple:
        return self.den

    def __str__(self):
        if self.den == (Fraction(1),):
            return format_coeffs(self.num)
        return f"({format_coeffs(self.num)})/({format_coeffs(self.den)})"

    def __repr__(self):
        return f"RationalFunction[{self}]"


#: The generator of Q(z).
Z = RationalFunction((Fraction(0), Fraction(1)))
