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
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (
    Residue,
    is_prime,
    legendre_symbol,
    padic_valuation,
    primes_in_range,
    rational_to_residue,
)
from .ratfunc import RationalFunction
from .reduction import NotPartible, is_partible, partible_reduce
from .sequences import FAMILY_NAMES, UnknownFamily, binomial_products, builtin

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


_MODULUS_EXP = {"apery": 3, "apery_signed": 3, "delannoy_number": 1, "delannoy_poly": 1}
# parity of the power (2k+1)^power that verify checks when none is given
_VERIFY_PARITY = {"apery": "odd", "apery_signed": "odd", "delannoy_number": "even",
                  "delannoy_poly": "odd"}


def _check_family(name: str):
    if name not in FAMILY_NAMES:
        raise UnknownFamily(f"unknown family {name!r}")


def derive_constant(family: str, r: int, z=None, power_parity: str | None = None):
    """The constant surviving the reduction of the family's target power.

    apery/apery_signed reduce (2k+1)^(2r+1) and keep the coefficient of
    2k+1; the delannoy families reduce (2k+1)^(2r+2) and keep the
    constant term.  power_parity="odd" for a delannoy family reduces
    (2k+1)^(2r+1) instead, which lies entirely in the difference space,
    and returns 0 after checking exactly that.
    """
    _check_family(family)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if z is not None and family != "delannoy_poly":
        raise ValueError(f"{family} has no z parameter")
    if family in ("apery", "apery_signed"):
        if power_parity not in (None, "odd"):
            raise ValueError(f"{family} congruences only cover odd powers")
        if r == 0:
            return Fraction(1)  # the base congruence itself; nothing to reduce
        m, survivor = 2 * r + 1, 1
        fam = builtin(family)
    else:
        parity = power_parity or "even"
        if parity == "even":
            m, survivor = 2 * r + 2, 0
        elif parity == "odd":
            m, survivor = 2 * r + 1, None
        else:
            raise ValueError(f"unknown power parity {power_parity!r}")
        fam = builtin(family, z) if family == "delannoy_poly" else builtin(family)

    L = fam.annihilator
    cert = is_partible(L)
    if cert is None:
        raise NotPartible(f"{family} operator is not power-partible")
    red = partible_reduce(m, L, cert)
    allowed = set() if survivor is None else {survivor}
    stray = set(red.u_coeffs) - allowed
    if stray:
        raise AssertionError(f"unexpected surviving powers {sorted(stray)}")
    if survivor is None:
        return Fraction(0)
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
    for c in table.entries.values():
        if isinstance(c, RationalFunction):
            if padic_valuation(Fraction(1, _denominator_content(c)), p) < 0:
                return False
        elif padic_valuation(c, p) < 0:
            return False
    return True


@dataclass
class CongruenceReport:
    """One verified congruence cell."""

    family: str
    r: int
    p: int
    e: int
    power: int
    z: int | None
    lhs: int
    rhs: int
    passed: bool
    elapsed: float
    error: str | None = None

    def to_dict(self) -> dict:
        out = {
            "family": self.family,
            "r": self.r,
            "p": self.p,
            "e": self.e,
            "power": self.power,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 6),
        }
        if self.z is not None:
            out["z"] = self.z
        if self.error is not None:
            out["error"] = self.error
        return out


def _require(condition: bool, message: str):
    if not condition:
        raise HypothesisViolation(message)


def _family_terms(family: str, n: int, z=None) -> list[int]:
    return builtin(family, z if family == "delannoy_poly" else None).terms(n)


def verify(
    family: str,
    r: int,
    p: int,
    e: int | None = None,
    z: int | None = None,
    power_parity: str | None = None,
    _terms=None,
    _constant=None,
) -> CongruenceReport:
    """Check one congruence cell exactly.

    lhs = sum_{k=0}^{p-1} (2k+1)^power F(k) mod p^e with F generated from
    the binomial-sum definition; rhs is the family's closed form.
    power_parity picks power = 2r+1 ("odd") or 2r+2 ("even"); by default
    even for delannoy_number and odd otherwise.  An odd-power Delannoy sum
    must vanish; the Apery families only have the odd one.
    """
    started = time.perf_counter()
    _check_family(family)
    _require(is_prime(p), f"{p} is not prime")
    expected_e = _MODULUS_EXP[family]
    if e is None:
        e = expected_e
    _require(e == expected_e, f"{family} congruences hold modulo p^{expected_e}")

    if family in ("apery", "apery_signed"):
        _require(p > 3, f"{family} requires p > 3")
        _require(z is None, f"{family} has no z parameter")
        _require(power_parity in (None, "odd"), f"{family} congruences only cover odd powers")
    elif family == "delannoy_number":
        _require(p % 2 == 1, "delannoy_number requires an odd prime")
        _require(z is None, "delannoy_number has no z parameter")
    else:
        _require(p % 2 == 1, "delannoy_poly requires an odd prime")
        _require(isinstance(z, int) and z != 0, "delannoy_poly needs a nonzero integer z")
        _require(z % p != 0, f"gcd({p}, z={z}) != 1")
    parity = power_parity or _VERIFY_PARITY[family]
    _require(parity in ("odd", "even"), f"unknown power parity {power_parity!r}")
    power = 2 * r + 1 if parity == "odd" else 2 * r + 2

    modulus = p ** e
    terms = _terms if _terms is not None else _family_terms(family, p, z)
    lhs_val = 0
    for k in range(p):
        lhs_val = (lhs_val + pow(2 * k + 1, power, modulus) * (terms[k] % modulus)) % modulus
    lhs = Residue(lhs_val, modulus)

    if family in ("apery", "apery_signed") or parity == "even":
        c = _constant if _constant is not None else derive_constant(
            family, r, power_parity=parity)
    if family == "apery":
        rhs = rational_to_residue(c * p, modulus)
    elif family == "apery_signed":
        rhs = rational_to_residue(c * p * legendre_symbol(p, 3), modulus)
    elif parity == "odd":
        rhs = Residue(0, modulus)
    elif family == "delannoy_number":
        rhs = rational_to_residue(c * legendre_symbol(-1, p), modulus)
    else:
        cz = c.evaluate(z) if isinstance(c, RationalFunction) else Fraction(c)
        base = sum(t % modulus for t in terms) % modulus
        rhs = rational_to_residue(cz, modulus) * base

    return CongruenceReport(
        family=family,
        r=r,
        p=p,
        e=e,
        power=power,
        z=z if family == "delannoy_poly" else None,
        lhs=lhs.value,
        rhs=rhs.value,
        passed=lhs == rhs,
        elapsed=time.perf_counter() - started,
    )


def admissible_primes(family: str, p_max: int, z: int | None = None) -> list[int]:
    """Primes up to p_max satisfying the family's hypothesis."""
    _check_family(family)
    if family in ("apery", "apery_signed"):
        return primes_in_range(5, p_max)
    primes = primes_in_range(3, p_max)
    if family == "delannoy_poly":
        if not z:
            raise HypothesisViolation("delannoy_poly needs a nonzero integer z")
        primes = [p for p in primes if z % p != 0]
    return primes


def sweep(
    family: str,
    r_max: int,
    p_max: int,
    z_values=None,
    power_parity: str | None = None,
) -> list[CongruenceReport]:
    """All cells (r <= r_max, admissible p <= p_max[, z]) for one family.

    Constants are derived once per r with no reference to any prime.  The
    terms are generated once per z, and reduced mod p^e once per prime
    for all r.  A cell that raises is reported as failed with its error.
    Raises HypothesisViolation when some z (or the family) has no cell.
    """
    _check_family(family)
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    if family == "delannoy_poly":
        zs = [int(v) for v in (z_values if z_values is not None else [1])]
        if not zs:
            raise HypothesisViolation("delannoy_poly needs at least one z")
    else:
        zs = [None]
        if z_values is not None:
            raise HypothesisViolation(f"{family} has no z parameter")

    parity = power_parity or _VERIFY_PARITY[family]
    if parity not in ("odd", "even"):
        raise ValueError(f"unknown power parity {power_parity!r}")
    needs_constant = family in ("apery", "apery_signed") or parity == "even"
    constants = {
        r: derive_constant(family, r, power_parity=parity) if needs_constant else None
        for r in range(r_max + 1)
    }

    e = _MODULUS_EXP[family]
    reports = []
    for z in zs:
        primes = admissible_primes(family, p_max, z)
        if not primes:
            where = "" if z is None else f" at z={z}"
            raise HypothesisViolation(f"no admissible prime <= {p_max} for {family}{where}")
        terms = _family_terms(family, max(primes), z)
        for p in primes:
            modulus = p ** e
            residues = [terms[k] % modulus for k in range(p)]
            for r in range(r_max + 1):
                try:
                    report = verify(
                        family, r, p, z=z, power_parity=parity,
                        _terms=residues, _constant=constants[r],
                    )
                except Exception as exc:  # keep the sweep alive; report the cell as failed
                    report = CongruenceReport(
                        family=family, r=r, p=p, e=e,
                        power=0, z=z, lhs=-1, rhs=-1, passed=False,
                        elapsed=0.0, error=str(exc),
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
