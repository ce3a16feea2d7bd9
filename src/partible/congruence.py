"""Derivation of reduction constants and exact congruence verification.

The constants c_r come out of the parity-preserving reduction of powers
of 2k+1 and are independent of any prime.  Verification then recomputes
each congruence from scratch: the left side by direct modular summation
of definition-generated terms, the right side from c_r and the base
congruence of the family.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable

from .exact import is_prime, legendre_symbol, primes_in_range, rational_to_residue
from .ratfunc import RationalFunction
from .reduction import NotPartible, is_partible, partible_reduce
from .sequences import UnknownFamily, binomial_products, builtin

__all__ = [
    "CongruenceReport",
    "ConstantTable",
    "HypothesisViolation",
    "constant_table",
    "delannoy_ring_check",
    "derive_constant",
    "integrality_check",
    "odd_power_sum_zero",
    "odd_power_symbolic_zero",
    "sweep",
    "verify",
]


class HypothesisViolation(ValueError):
    """The requested prime or parameter violates the congruence hypothesis."""


def _require(condition: bool, message: str):
    if not condition:
        raise HypothesisViolation(message)


@dataclass(frozen=True)
class _Rule:
    """The hypotheses and right side of one family's congruences."""

    e: int  # the congruences hold modulo p^e
    min_prime: int
    # power parity -> the power of 2k+1 that survives the reduction of
    # (2k+1)^power, whose coefficient is c_r; None when nothing survives,
    # so the sum vanishes.  The first parity is the default.
    parities: dict
    takes_z: bool
    unit: Callable  # (p, the first p terms mod p^e) -> the factor of c_r on the right


_RULES = dict(
    apery=_Rule(3, 5, {"odd": 1}, False, lambda p, terms: p),
    apery_signed=_Rule(3, 5, {"odd": 1}, False, lambda p, terms: p * legendre_symbol(p, 3)),
    delannoy_number=_Rule(1, 3, {"even": 0, "odd": None}, False,
                          lambda p, terms: legendre_symbol(-1, p)),
    delannoy_poly=_Rule(1, 3, {"odd": None, "even": 0}, True, lambda p, terms: sum(terms)),
)


def _rule(family: str, power_parity: str | None, z=None) -> tuple[_Rule, str]:
    """The family's rule and the parity to check (its default when None).

    Raises UnknownFamily for a family not in _RULES, and HypothesisViolation
    for a parity the family does not cover or a z given to a family without one.
    """
    rule = _RULES.get(family)
    if rule is None:
        raise UnknownFamily(f"unknown family {family!r}")
    parity = power_parity or next(iter(rule.parities))
    _require(parity in rule.parities,
             f"{family} congruences cover {' and '.join(rule.parities)} powers, not {parity!r}")
    _require(z is None or rule.takes_z, f"{family} has no z parameter")
    return rule, parity


def _power(r: int, parity: str) -> int:
    return 2 * r + 1 if parity == "odd" else 2 * r + 2


def derive_constant(family: str, r: int, z=None, power_parity: str | None = None):
    """The constant c_r surviving the reduction of (2k+1)^power.

    power is 2r+1 for power_parity "odd" and 2r+2 for "even", by default
    the family's first parity in _RULES that has a surviving power.  The
    Apery families keep the coefficient of 2k+1 of the odd power; the
    delannoy families keep the constant term of the even power.  Their
    odd power lies entirely in the difference space, and 0 is returned
    after checking exactly that.
    """
    rule, parity = _rule(family, power_parity, z)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if power_parity is None:
        parity = next(q for q, survivor in rule.parities.items() if survivor is not None)
    survivor = rule.parities[parity]
    L = builtin(family, z).annihilator
    cert = is_partible(L)
    if cert is None:
        raise NotPartible(f"{family} operator is not power-partible")
    red = partible_reduce(_power(r, parity), L, cert)
    stray = set(red.u_coeffs) - {survivor}
    if stray:
        raise AssertionError(f"unexpected surviving powers {sorted(stray)}")
    return red.u_coeffs.get(survivor, Fraction(0))


@dataclass
class ConstantTable:
    """Constants c_r for one family plus their denominator structure."""

    family: str
    entries: dict = field(default_factory=dict)
    denominator_support: set = field(default_factory=set)
    z_in_denominator: bool = False


_TRIAL_LIMIT = 10_000


def _prime_factors(n: int) -> set[int]:
    """The primes below _TRIAL_LIMIT dividing n, plus what is left of n after them.

    A leftover below _TRIAL_LIMIT^2 is prime; a larger one is reported
    unfactored, so no denominator can make this search hang.
    """
    n = abs(n)
    out = set()
    f = 2
    while f * f <= n and f < _TRIAL_LIMIT:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.add(n)
    return out


def _add_coprime(support: set, n: int):
    """Add n to a set of pairwise coprime integers > 1, splitting entries by gcd.

    An entry s sharing g > 1 with n is replaced by g and s/g, and n by n/g;
    the product of the pending values falls each time, so this ends.  A
    large prime z met as z, z^2 and z^3 is listed once.
    """
    pending = [n]
    while pending:
        n = pending.pop()
        if n == 1:
            continue
        s = next((s for s in support if math.gcd(n, s) > 1), None)
        if s is None:
            support.add(n)
            continue
        g = math.gcd(n, s)
        support.remove(s)
        pending += [g, s // g, n // g]


def _denominator_content(c) -> int:
    """lcm of the denominators hiding in a constant (numeric part only)."""
    if isinstance(c, RationalFunction):
        parts = [q.denominator for q in c.numerator] or [1]
        return math.lcm(*parts)
    return Fraction(c).denominator


def constant_table(family: str, r_max: int, z=None) -> ConstantTable:
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    table = ConstantTable(family)
    for r in range(r_max + 1):
        c = derive_constant(family, r, z=z)
        table.entries[r] = c
        for q in _prime_factors(_denominator_content(c)):
            _add_coprime(table.denominator_support, q)
        if isinstance(c, RationalFunction) and len(c.denominator) > 1:
            table.z_in_denominator = True
    return table


def delannoy_ring_check(c) -> bool:
    """Whether a constant lies in Z[1/(4z)].

    Such elements are n(z)/(4z)^mu with integer n, i.e. after monic
    normalization: the denominator is a pure power of z and the only
    prime in the numeric denominators is 2.
    """
    if not isinstance(c, RationalFunction):
        n = Fraction(c).denominator
    elif any(c.denominator[:-1]):
        return False
    else:
        n = _denominator_content(c)
    return n & (n - 1) == 0  # a power of 2


def integrality_check(table: ConstantTable, p: int) -> bool:
    """v_p(c_r) >= 0 for every table entry (numeric part for symbolic z)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return all(_denominator_content(c) % p for c in table.entries.values())


@dataclass
class CongruenceReport:
    """One verified congruence cell; lhs and rhs are None when the cell raised."""

    family: str
    r: int
    p: int
    e: int
    power: int
    lhs: int | None
    rhs: int | None
    passed: bool
    elapsed: float
    z: int | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        """The fields in order, elapsed rounded to 6 places, z and error omitted when None."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                out[f.name] = round(value, 6) if f.name == "elapsed" else value
        return out


def verify(
    family: str,
    r: int,
    p: int,
    z: int | None = None,
    power_parity: str | None = None,
    _terms=None,
    _constant=None,
) -> CongruenceReport:
    """Check one congruence cell exactly, modulo p^e for the family's e.

    lhs = sum_{k=0}^{p-1} (2k+1)^power F(k) mod p^e with F generated from
    the binomial-sum definition; rhs is c_r times the family's unit
    (_RULES).  power_parity picks power = 2r+1 ("odd") or 2r+2 ("even");
    by default the family's first parity in _RULES.  An odd-power
    Delannoy sum must vanish; the Apery families only have the odd one.
    """
    started = time.perf_counter()
    rule, parity = _rule(family, power_parity, z)
    _require(is_prime(p), f"{p} is not prime")
    _require(p >= rule.min_prime, f"{family} requires a prime p >= {rule.min_prime}")
    if rule.takes_z:
        _require(isinstance(z, int) and z != 0, f"{family} needs a nonzero integer z")
        _require(z % p != 0, f"gcd({p}, z={z}) != 1")
    power = _power(r, parity)

    modulus = p ** rule.e
    terms = _terms if _terms is not None else builtin(family, z).terms(p)
    lhs = 0
    for k in range(p):
        lhs = (lhs + pow(2 * k + 1, power, modulus) * (terms[k] % modulus)) % modulus

    if rule.parities[parity] is None:
        c = 0
    else:
        c = _constant if _constant is not None else derive_constant(
            family, r, power_parity=parity)
    if isinstance(c, RationalFunction):
        c = c.evaluate(z)
    rhs = rational_to_residue(c * rule.unit(p, terms), modulus).value

    return CongruenceReport(
        family=family,
        r=r,
        p=p,
        e=rule.e,
        power=power,
        z=z,
        lhs=lhs,
        rhs=rhs,
        passed=lhs == rhs,
        elapsed=time.perf_counter() - started,
    )


def sweep(
    family: str,
    r_max: int,
    p_max: int,
    z_values=None,
    power_parity: str | None = None,
) -> list[CongruenceReport]:
    """All cells (r <= r_max, admissible p <= p_max[, z]) for one family.

    The admissible primes are those from the family's smallest prime up,
    prime to z.  Constants are derived once per r with no reference to
    any prime.  The terms are generated once per z, and reduced mod p^e
    once per prime for all r.  A cell that raises is reported as failed,
    with lhs and rhs None and the exception's class and message as its
    error.  Raises HypothesisViolation when some z (or the family) has no cell.
    """
    rule, parity = _rule(family, power_parity, z_values)
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    zs = [None]
    if rule.takes_z:
        zs = [int(v) for v in (z_values if z_values is not None else [1])]
        _require(zs, f"{family} needs at least one z")
        _require(all(zs), f"{family} needs a nonzero integer z")
    constants = {
        r: derive_constant(family, r, power_parity=parity)
        if rule.parities[parity] is not None else None
        for r in range(r_max + 1)
    }

    reports = []
    for z in zs:
        primes = [p for p in primes_in_range(rule.min_prime, p_max) if z is None or z % p]
        if not primes:
            where = "" if z is None else f" at z={z}"
            raise HypothesisViolation(f"no admissible prime <= {p_max} for {family}{where}")
        terms = builtin(family, z).terms(max(primes))
        for p in primes:
            modulus = p ** rule.e
            residues = [terms[k] % modulus for k in range(p)]
            for r in range(r_max + 1):
                try:
                    report = verify(
                        family, r, p, z=z, power_parity=parity,
                        _terms=residues, _constant=constants[r],
                    )
                except Exception as exc:  # keep the sweep alive; report the cell as failed
                    report = CongruenceReport(
                        family=family, r=r, p=p, e=rule.e, power=_power(r, parity), z=z,
                        lhs=None, rhs=None, passed=False, elapsed=0.0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                reports.append(report)
    reports.sort(key=lambda rep: (rep.family, rep.r, rep.p, rep.z or 0))
    return reports


def odd_power_sum_zero(p: int, r: int) -> bool:
    """sum_{k=0}^{p-1} (2k+1)^(2r+1) == 0 mod p, by direct summation."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return sum(pow(2 * k + 1, 2 * r + 1, p) for k in range(p)) % p == 0


def odd_power_symbolic_zero(p: int, r: int) -> bool:
    """sum_{k=0}^{p-1} (2k+1)^(2r+1) D_k(z) == 0 mod p for symbolic z.

    The sum is formed as an integer-coefficient polynomial in z and every
    coefficient is reduced mod p.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    acc = [0] * p
    for k in range(p):
        w = pow(2 * k + 1, 2 * r + 1)
        for i, t in enumerate(binomial_products(k)):
            acc[i] += w * t
    return all(c % p == 0 for c in acc)
