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
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, mul
from typing import Callable, NamedTuple

from .exact import is_prime, legendre_symbol, primes_in_range, rational_to_residue
from .poly import MAX_EXPONENT
from .ratfunc import RationalFunction
from .reduction import NotPartible, is_partible, normal_forms
from .sequences import UnknownFamily, binomial_rows, builtin, term_lists

__all__ = [
    "CongruenceReport",
    "ConstantTable",
    "HypothesisViolation",
    "constant_table",
    "derive_constant",
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


class _Rule(NamedTuple):
    """The hypotheses and right side of one family's congruences."""

    e: int  # the congruences hold modulo p^e
    min_prime: int
    # power parity -> the power of 2k+1 that survives the reduction of
    # (2k+1)^power, whose coefficient is c_r; None when nothing survives,
    # so the sum vanishes.  The first parity is the default.
    parities: dict
    takes_z: bool
    # (p, sum_{k<p} F(k) mod p^e) -> the factor of c_r on the right; c_r's denominator is prime
    # to p (a power of z, or 3 with p >= 5), so c_r unit mod p^e does not depend on the lift
    unit: Callable


_RULES = dict(
    apery=_Rule(3, 5, {"odd": 1}, False, lambda p, total: p),
    apery_signed=_Rule(3, 5, {"odd": 1}, False, lambda p, total: p * legendre_symbol(p, 3)),
    delannoy_number=_Rule(1, 3, {"even": 0, "odd": None}, False,
                          lambda p, total: legendre_symbol(-1, p)),
    delannoy_poly=_Rule(1, 3, {"odd": None, "even": 0}, True, lambda p, total: total),
)


#: the largest verify p and sweep p_max: apery_terms(2000) took 4.6 s on a 2-vCPU host, 8x per doubling
MAX_P = 5000

#: the most bits of a z whose terms are built: delannoy_poly_terms(1000, z) took 0.42 s at z = 9, 1.2 s
#: at a 32-bit z, 2.5 s at 65 bits and 6.5 s at 133 bits on a 2-vCPU host, each summand a power of z
MAX_Z_BITS = 32


def _rule(family: str, power_parity: str | None, r: int, zs=None, p_max=None) -> tuple[_Rule, str]:
    """The family's rule and the parity to check (its default when None), after checking the inputs.

    Raises UnknownFamily for an unknown family; HypothesisViolation for a parity the family lacks
    or a list zs given to a family without z, empty, or holding a z that is not a nonzero int or
    repeats; ValueError past a size bound: r < 0 or 2r+2 above poly.MAX_EXPONENT and, where terms
    are built (p_max given), p_max above MAX_P, a z above MAX_Z_BITS bits, or sum_z (bits(z) + 3)
    p_max^2 above (MAX_Z_BITS + 3) MAX_P^2, as a sweep holds every z's terms (about (bits(z) + 2.5)
    p_max^2 / 2 bits each) at once.  Every check runs before any sieve, term or reduction.
    """
    rule = _RULES.get(family)
    if rule is None:
        raise UnknownFamily(f"unknown family {family!r}")
    parity = power_parity or next(iter(rule.parities))
    _require(parity in rule.parities,
             f"{family} congruences cover {' and '.join(rule.parities)} powers, not {parity!r}")
    _require(zs is None or rule.takes_z, f"{family} has no z parameter")
    _require(zs != [], f"{family} needs at least one z")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if 2 * r + 2 > MAX_EXPONENT:
        raise ValueError(f"r = {r} needs the power {2 * r + 2}, above {MAX_EXPONENT}")
    zs = zs or []
    _require(all(type(z) is int and z != 0 for z in zs), f"{family} needs a nonzero integer z")
    seen = set()
    for z in zs:
        _require(z not in seen, f"{family} got z={z} more than once")
        seen.add(z)
    if p_max is None:  # no term is built
        return rule, parity
    if p_max > MAX_P:
        raise ValueError(f"p = {p_max} is above {MAX_P}")
    bits = max((z.bit_length() for z in zs), default=0)
    if bits > MAX_Z_BITS:
        raise ValueError(f"a z of {bits} bits is above {MAX_Z_BITS} bits")
    if sum(z.bit_length() + 3 for z in zs) * p_max ** 2 > (MAX_Z_BITS + 3) * MAX_P ** 2:
        raise ValueError(f"the terms of {len(zs)} z values at p = {p_max} are above "
                         f"those of one {MAX_Z_BITS}-bit z at p = {MAX_P}")
    return rule, parity


def _power(r: int, parity: str) -> int:
    return 2 * r + 1 if parity == "odd" else 2 * r + 2


def derive_constant(family: str, r: int, z=None, power_parity: str | None = None):
    """The constant c_r surviving the reduction of (2k+1)^power: entry r of _table_constants,
    whose one normal-form pass audits its own residual, so c_r matches partible_reduce's u.

    power is 2r+1 for power_parity "odd" and 2r+2 for "even", by default the family's first
    parity in _RULES that has a surviving power.  The Apery families keep the coefficient of
    2k+1 of the odd power; the delannoy families keep the constant term of the even power.
    Their odd power lies entirely in the difference space, and 0 is returned, as the table
    checks.  A z must be a nonzero int (else HypothesisViolation); with none, c_r is symbolic in
    z.  _rule's bounds on r and _table_constants' bounds raise ValueError.
    """
    return _constants(family, r, z, power_parity)[r]


class ConstantTable(NamedTuple):
    """Constants c_r for one family plus their denominator structure."""

    family: str
    entries: dict
    denominator_support: set
    z_in_denominator: bool = False


_TRIAL_LIMIT = 10_000


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
    if isinstance(c, RationalFunction):  # the lcm of the denominators of num / den[-1]
        return c.den[-1] // math.gcd(c.den[-1], *c.num)
    return Fraction(c).denominator


#: the largest r of a table symbolic in z: the CLI's delannoy_poly table took 3.3-5.3 s at r <= 180
#: and 3.8-5.0 s at r <= 190 on a 2-vCPU host; tables over Q keep _rule's exponent-derived bound
MAX_R_SYMBOLIC = 180

#: the largest bits(z) (r_max+1)^2 of a table at a given z, which its cost tracks on a 2-vCPU host:
#: 17.6 s at a 662-bit z and r <= 160 (17.2e6), 0.5-0.8 s at a 67-bit z and r <= 171 (2.0e6); the
#: slowest table admitted is at a small z and the exponent limit, 2.7-3.2 s at 8 bits and r <= 499
MAX_Z_TABLE_COST = 2_000_000


def _table_constants(family: str, rule: _Rule, parity: str, r_max: int, z=None) -> dict:
    """r -> c_r for r <= r_max at the parity: one normal-form pass, which audits its own residual.
    First the certificate must show that the powers below d of the parity are exactly the
    survivor, else AssertionError; a parity with no survivor then reads 0 at every r and runs no
    reduction.  A symbolic table with r_max above MAX_R_SYMBOLIC raises ValueError, as does a
    table at a z with bits(z) (r_max+1)^2 above MAX_Z_TABLE_COST."""
    L = builtin(family, z).annihilator
    cert = is_partible(L)
    if cert is None:
        raise NotPartible(f"{family} operator is not power-partible")
    survivor = rule.parities[parity]
    below = list(range(_power(0, parity) % 2, max(cert.d, 0), 2))
    if below != ([] if survivor is None else [survivor]):
        raise AssertionError(f"{family} keeps {parity} powers below d = {cert.d}: {below}, "
                             f"against the survivor {survivor}: unexpected surviving powers "
                             f"{[m for m in below if m != survivor]}")
    if survivor is None:
        return dict.fromkeys(range(r_max + 1), 0)
    if r_max > MAX_R_SYMBOLIC and L.field == "Q(z)":
        raise ValueError(f"r = {r_max} is above {MAX_R_SYMBOLIC}, the largest r of a table symbolic in z")
    if z is not None and z.bit_length() * (r_max + 1) ** 2 > MAX_Z_TABLE_COST:
        raise ValueError(f"r = {r_max} at a z of {z.bit_length()} bits is above the bound "
                         f"bits(z) (r+1)^2 <= {MAX_Z_TABLE_COST} of a table at a given z")
    forms = normal_forms(_power(r_max, parity), L, cert)
    return {r: forms[_power(r, parity)] for r in range(r_max + 1)}


def _constants(family: str, r_max: int, z, power_parity: str | None) -> dict:
    """_table_constants after _rule's checks, by default at the first parity with a survivor."""
    rule, parity = _rule(family, power_parity, r_max, None if z is None else [z])
    if power_parity is None:
        parity = next((q for q, survivor in rule.parities.items() if survivor is not None), parity)
    return _table_constants(family, rule, parity, r_max, z)


def constant_table(family: str, r_max: int, z=None) -> ConstantTable:
    """derive_constant's c_r for r <= r_max, inputs checked first, and their denominators' support:
    the sieve's primes below _TRIAL_LIMIT dividing their lcm, refined by each whole denominator."""
    entries = _constants(family, r_max, z, None)
    dens = [_denominator_content(c) for c in entries.values()]
    lcm = math.lcm(*dens)
    support = set()
    for n in [*(q for q in primes_in_range(2, min(lcm, _TRIAL_LIMIT)) if lcm % q == 0), *dens]:
        _add_coprime(support, n)
    return ConstantTable(family, entries, support,
                         any(isinstance(c, RationalFunction) and len(c.den) > 1 for c in entries.values()))


class CongruenceReport(NamedTuple):
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
        family, r, p, e, power, lhs, rhs, passed, elapsed, z, error = self
        out = {"family": family, "r": r, "p": p, "e": e, "power": power, "lhs": lhs, "rhs": rhs,
               "passed": passed, "elapsed": round(elapsed, 6)}
        if z is not None:
            out["z"] = z
        if error is not None:
            out["error"] = error
        return out


def _at(constants: dict, z) -> dict:
    """The constants at z, each symbolic c_r(z) evaluated once: its denominator is a power of z."""
    return {r: c.evaluate(z) if isinstance(c, RationalFunction) else c for r, c in constants.items()}


def _cells(family, rule: _Rule, parity: str, primes: list, z, terms, constants: dict) -> list:
    """The reports at the ascending primes, one per r of constants (consecutive r, ascending,
    rational c_r) and prime: the lhs of cell (r, p) is the exact prefix sum below p of one sequence.

    The weighted terms (2k+1)^power F(k), k below the largest prime, are taken exactly by pow at
    the first r; each next r multiplies them by (2k+1)^2.  Their running sums are read at every
    prime at once, so every lhs is the definition sum, reduced mod p^e.  The unit reads the same
    prefix sum at power 0.  A cell's elapsed times its own reduction and right side.  A cell whose
    right side raises is reported failed, with lhs and rhs None and the exception's class and
    message as its error.
    """
    stops = bytes(map(set(primes).__contains__, range(1, primes[-1] + 1)))  # 1 at k = p - 1
    moduli = [p ** rule.e for p in primes]
    units = [rule.unit(p, s % m) for p, m, s in zip(primes, moduli, compress(accumulate(terms), stops))]
    odd = range(1, 2 * primes[-1], 2)
    weighted = None
    reports = []
    for r, c in constants.items():
        power = _power(r, parity)
        if weighted is None:
            weighted = list(map(mul, map(pow, odd, repeat(power)), terms))
        else:
            weighted = list(map(mul, weighted, map(mul, odd, odd)))
        for p, modulus, unit, total in zip(primes, moduli, units, compress(accumulate(weighted), stops)):
            started = time.perf_counter()
            lhs, error = total % modulus, None
            try:
                rhs = rational_to_residue(c * unit, modulus).value
            except Exception as exc:  # keep the other cells alive; report this one as failed
                lhs = rhs = None
                error = f"{type(exc).__name__}: {exc}"
            reports.append(CongruenceReport(
                family, r, p, rule.e, power, lhs, rhs, passed=error is None and lhs == rhs,
                elapsed=0.0 if error else time.perf_counter() - started, z=z, error=error))
    return reports


def verify(family: str, r: int, p: int, z: int | None = None,
           power_parity: str | None = None) -> CongruenceReport:
    """Check one congruence cell exactly, modulo p^e for the family's e.

    lhs = sum_{k=0}^{p-1} (2k+1)^power F(k) mod p^e, the prefix sum of _cells at p, with F from
    the binomial-sum definition; rhs is c_r times the family's unit
    (_RULES).  power_parity picks power = 2r+1 ("odd") or 2r+2 ("even");
    by default the family's first parity in _RULES.  An odd-power
    Delannoy sum must vanish; the Apery families only have the odd one.
    c_r is sweep's, symbolic in z and evaluated at z.  A violated hypothesis, or a bound of _rule
    (p as p_max) or of _table_constants, raises; a right side that raises is reported
    as a failed cell, as in sweep.  The report's elapsed times the cell's own reduction mod p^e
    and right side; it excludes term generation, the prefix sums and c_r.
    """
    rule, parity = _rule(family, power_parity, r, None if z is None else [z], p)
    _require(is_prime(p), f"{p} is not prime")
    _require(p >= rule.min_prime, f"{family} requires a prime p >= {rule.min_prime}")
    if rule.takes_z:
        _require(z is not None, f"{family} needs a nonzero integer z")
        _require(z % p != 0, f"gcd({p}, z={z}) != 1")
    constants = _table_constants(family, rule, parity, r)
    terms = builtin(family, z).terms(p)
    (report,) = _cells(family, rule, parity, [p], z, terms, _at({r: constants[r]}, z))
    return report


def sweep(family: str, r_max: int, p_max: int, z_values=None,
          power_parity: str | None = None) -> list[CongruenceReport]:
    """All cells (r <= r_max, admissible p <= p_max[, z]) for one family.

    The admissible primes are those from the family's smallest prime up, prime to z.  The
    constants come from one normal-form pass (_table_constants), with no reference to any prime,
    evaluated once per z.  Once every z has its primes, one pass over the definition rows
    evaluates each row at every z (term_lists), so the terms of every z are held at once; then
    each z takes one exact prefix-sum pass per r, read at all of its primes (_cells).  A cell
    that raises is reported as failed, with lhs and rhs None and the exception's class and
    message as its error.  Raises HypothesisViolation when some z is not a nonzero int or is
    repeated, or some z (or the family) has no cell, and ValueError past any size bound.
    """
    zs = None if z_values is None else list(z_values)
    rule, parity = _rule(family, power_parity, r_max, zs, p_max)
    zs = (zs or [1]) if rule.takes_z else [None]
    constants = _table_constants(family, rule, parity, r_max)

    candidates = primes_in_range(rule.min_prime, p_max)
    primes = {z: [p for p in candidates if z is None or z % p] for z in zs}
    for z in zs:
        if not primes[z]:
            where = "" if z is None else f" at z={z}"
            raise HypothesisViolation(f"no admissible prime <= {p_max} for {family}{where}")
    reports = []
    for z, terms in zip(zs, term_lists(family, max(map(max, primes.values())), zs)):
        reports += _cells(family, rule, parity, primes[z], z, terms, _at(constants, z))
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
    for k, row in enumerate(binomial_rows(p)):
        acc[: k + 1] = map(add, acc, map(mul, repeat(pow(2 * k + 1, 2 * r + 1)), row))
    return all(c % p == 0 for c in acc)
