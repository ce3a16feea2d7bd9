"""Number-theoretic primitives: primes, the Legendre symbol, residues.

Python ints are the unbounded integers throughout the package and
fractions.Fraction supplies exact rationals in lowest terms, so this
module only adds what the standard library does not ship.
"""

from __future__ import annotations

import math
from fractions import Fraction


class NonInvertibleDenominator(ValueError):
    """The denominator shares a factor with the requested modulus."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic-residue indicator of a modulo an odd prime p, via Euler."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


class Residue:
    """An element of Z/mZ that carries its modulus: an immutable value in
    [0, m) with the m it was reduced by, so equal values mod different
    moduli compare unequal.  It has no arithmetic; callers read `.value`.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "value", value % modulus)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("Residue is immutable")

    def __eq__(self, other):
        if isinstance(other, Residue):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"Residue({self.value} mod {self.modulus})"


def rational_to_residue(q, m: int) -> Residue:
    """Image of a rational in Z/mZ; the denominator must be a unit mod m."""
    q = Fraction(q)
    try:
        inv = pow(q.denominator, -1, m)
    except ValueError:
        raise NonInvertibleDenominator(
            f"denominator {q.denominator} is not invertible mod {m}"
        ) from None
    return Residue(q.numerator * inv, m)
