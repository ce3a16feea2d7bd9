"""Built-in holonomic families and a linear-recurrence guesser.

Term generators use nothing but the defining binomial sums, so the wired
annihilators are genuinely tested against them rather than assumed.
Each row of summands C(m,j) C(m+j,j) comes from the last by each
summand's ratio in m, plus the new diagonal C(2m,m): identities of one
binomial product, not of the sums, whose recurrence is never used.
"""

from __future__ import annotations

from functools import partial
from operator import floordiv, mul
from typing import NamedTuple

from .operators import InsufficientTerms, ShiftOperator, annihilates
from .poly import Polynomial
from .ratfunc import RationalFunction, Z, _horner, _primitive, _trim, clear_denominators, scalar


class UnknownFamily(ValueError):
    """No built-in sequence family with that name."""


def binomial_rows(n: int, squared: bool = False):
    """Yield the rows [C(m,j) C(m+j,j) for j = 0 .. m], squared when `squared`, for m < n.

    Row m is row m-1 times (m+j)/(m-j) for j < m, plus C(2m,m) = C(2m-2,m-1) 2(2m-1)/m;
    squares step by the squared factors.  Every division is exact, and `map` runs each in C.
    """
    e = 2 if squared else 1
    pw = [i ** e for i in range(2 * n)]  # pw[i] = i^e
    row = [1]
    for m in range(n):
        if m:
            diagonal = row[-1] * (4 * m - 2) ** e // pw[m]
            row = list(map(floordiv, map(mul, row, pw[m : 2 * m]), pw[m:0:-1]))
            row.append(diagonal)
        yield row


def apery_terms(n: int) -> list[int]:
    """A_0 .. A_{n-1} where A_m = sum_j C(m,j)^2 C(m+j,j)^2."""
    return [sum(row) for row in binomial_rows(n, squared=True)]


def apery_signed_terms(n: int) -> list[int]:
    """(-1)^m A_m for m = 0 .. n-1."""
    return [a if m % 2 == 0 else -a for m, a in enumerate(apery_terms(n))]


def delannoy_poly_terms(n: int, z=1) -> list:
    """D_0(z) .. D_{n-1}(z) where D_m(z) = sum_i C(m,i) C(m+i,i) z^i.

    z may be an int or Fraction for concrete values, or the symbol Z for
    terms in Q(z), whose coefficient lists are the rows of binomial_rows.
    """
    return delannoy_poly_term_lists(n, [z])[0]


def delannoy_poly_term_lists(n: int, zs) -> list[list]:
    """delannoy_poly_terms(n, z) for each z of zs, from one pass over binomial_rows(n):
    the rows do not depend on z, so each is evaluated at every z as it is stepped."""
    at = [RationalFunction if z == Z else partial(_horner, x=z) for z in map(scalar, zs)]
    by_row = [[f(row) for f in at] for row in binomial_rows(n)]
    return [[values[i] for values in by_row] for i in range(len(at))]


def _apery_shape(sign: int) -> ShiftOperator:
    """(k+2)^3 sigma^2 + sign (2k+3)(17k^2+51k+39) sigma + (k+1)^3."""
    k = Polynomial.variable()
    return ShiftOperator([(k + 1) ** 3, sign * (2 * k + 3) * (17 * k ** 2 + 51 * k + 39),
                          (k + 2) ** 3])


def apery_operator() -> ShiftOperator:
    return _apery_shape(-1)


def apery_signed_operator() -> ShiftOperator:
    """The annihilator of (-1)^m A_m: the Apery operator with the middle sign flipped."""
    return _apery_shape(1)


def delannoy_operator(z=None) -> ShiftOperator:
    """(k+2) sigma^2 - (2k+3)(2z+1) sigma + (k+1); z=None keeps z symbolic."""
    k = Polynomial.variable()
    zz = Z if z is None else scalar(z)
    return ShiftOperator([
        k + 1,
        -(2 * k + 3) * Polynomial.constant(2 * zz + 1),
        k + 2,
    ])


# name -> (term lists(n, zs), one per z, annihilator(z), whether z may be given); z=None is symbolic
_FAMILIES = dict(
    apery=(lambda n, zs: [apery_terms(n)] * len(zs), lambda z: apery_operator(), False),
    apery_signed=(lambda n, zs: [apery_signed_terms(n)] * len(zs), lambda z: apery_signed_operator(),
                  False),
    delannoy_number=(lambda n, zs: delannoy_poly_term_lists(n, [1] * len(zs)),
                     lambda z: delannoy_operator(1), False),
    delannoy_poly=(lambda n, zs: delannoy_poly_term_lists(n, [Z if z is None else z for z in zs]),
                   delannoy_operator, True),
)


class SequenceFamily(NamedTuple):
    """A named sequence with its definition-based generator and annihilator."""

    name: str
    parameter: object
    annihilator: ShiftOperator

    def terms(self, n: int) -> list:
        return _FAMILIES[self.name][0](n, [self.parameter])[0]


def _family(name: str, zs) -> tuple:
    """The _FAMILIES entry of name; UnknownFamily for an unknown name or a z it does not take."""
    if name not in _FAMILIES:
        raise UnknownFamily(f"unknown family {name!r}")
    if not _FAMILIES[name][2] and any(z is not None for z in zs):
        raise UnknownFamily(f"family {name!r} takes no parameter")
    return _FAMILIES[name]


def builtin(name: str, parameter=None) -> SequenceFamily:
    """Look up a family; `parameter` is the Delannoy z (None = symbolic)."""
    return SequenceFamily(name, parameter, _family(name, [parameter])[1](parameter))


def term_lists(name: str, n: int, zs) -> list[list]:
    """builtin(name, z).terms(n) for each z of zs, from one pass over the definition's rows."""
    return _family(name, zs)[0](n, zs)


# -- recurrence guessing -------------------------------------------------------

#: the most work a guess may estimate for its eliminations, as if every ansatz had full rank: step s
#: of order o updates (n-o-s)(c-s) entries, c = (o+1)(max_deg+1), each a minor of s+1 rows of at most
#: s bits(terms) + s^2 bits(n) / (2o+2) bits, squared as an exact division is quadratic, with 400 bits
#: for the interpreter's cost of one update.  On a 2-vCPU host, random terms at the bound took 19-23 s
#: at every shape tried, the slowest 89 terms of 171 digits at (29, 0); 90 random 12-digit terms at
#: (6, 10) (1.4e12) took 2.5-2.8 s, and apery_terms(68) at (2, 20) (7.3e12) 0.2 s, as its order-2 pass
#: stops at degree 3
MAX_GUESS_WORK = 8 * 10 ** 12


def _check_work(terms, max_order: int, max_deg: int) -> None:
    """ValueError when the eliminations of a guess on the integer terms are above MAX_GUESS_WORK."""
    n, bits = len(terms), max(map(int.bit_length, terms))
    work = 0
    for o in range(max_order + 1):
        c = (o + 1) * (max_deg + 1)
        for s in range(1, c):
            minor = s * bits + s * s * n.bit_length() // (2 * o + 2)
            work += (n - o - s) * (c - s) * (400 + minor) ** 2
            if work > MAX_GUESS_WORK:
                raise ValueError(f"a guess at order {max_order}, degree {max_deg} on {n} terms of up to "
                                 f"{bits} bits is above the work bound {MAX_GUESS_WORK:.0e}")


def _eliminate(rows, ncols: int, start: int = 0):
    """Bareiss elimination of the integer rows, in place, up to the first column from `start` without
    a pivot: that column, or None, and the pivot columns before it, the r-th pivoted in row r.

    Rows are pivoted to put a nonzero entry in the pivot column, and each step
    divides exactly by the previous pivot, so every entry stays an integer.
    A column has no pivot exactly when it depends on the pivot columns before it.
    """
    prev, pivots = 1, []
    for col in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            if col >= start:
                return col, pivots
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p, tail = rows[r][col], rows[r][col + 1 :]
        for row in rows[r + 1 :]:
            f = row[col]
            row[col + 1 :] = [(p * a - f * b) // prev for a, b in zip(row[col + 1 :], tail)]
        prev = p
        pivots.append(col)
    return None, pivots


def _ansatz_rows(terms, order: int, deg: int, degree_major: bool = False) -> list:
    """Row k of the ansatz system: k^t F(k+i) over columns (i, t), or (t, i) when degree_major."""
    rows = []
    for k in range(len(terms) - order):
        powers = [k ** t for t in range(deg + 1)]
        shifts = terms[k : k + order + 1]
        rows.append([p * f for p in powers for f in shifts] if degree_major
                    else [p * f for f in shifts for p in powers])
    return rows


def _nullspace_solution(terms, order: int, deg: int):
    """The canonical nullspace vector of the ansatz system with a nonzero a_order, as integers, or None.

    Unknowns are the coefficients c[i][t] of sum_i sum_t c[i][t] k^t F(k+i),
    ordered by (i, t); rows range over every k the integer term list
    supports.  Elimination stops at the first column `free` without a pivot
    in the top block (i = order), as one in a lower block gives a_order = 0:
    an operator of lower order, which this system checks on too few rows.
    The null vector supported on `free` and the pivot columns before it is
    unique up to scale, so it is the one a full Gauss-Jordan reduction would
    give for that column.  With sol[free] set to the last pivot, Cramer's
    rule makes every sol[j] an integer, so the back-substitution divides
    exactly too.
    """
    ncols = (order + 1) * (deg + 1)
    rows = _ansatz_rows(terms, order, deg)
    free, pivots = _eliminate(rows, ncols, order * (deg + 1))
    if free is None:
        return None
    sol = [0] * ncols
    sol[free] = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    for r in range(len(pivots) - 1, -1, -1):
        row, c = rows[r], pivots[r]
        sol[c] = -sum(row[j] * sol[j] for j in range(c + 1, free + 1)) // row[c]
    return sol


def _normalized_operator(sol, deg: int) -> ShiftOperator:
    """Coprime integer coefficients, positive leading coefficient of a_J."""
    sol = _primitive(_trim(sol))
    return ShiftOperator([Polynomial(sol[i : i + deg + 1]) for i in range(0, len(sol), deg + 1)])


def guess_annihilator(terms, max_order: int, max_deg: int) -> ShiftOperator | None:
    """Smallest-(order, degree) operator annihilating every supplied term.

    Candidate ansatz sizes are tried in lexicographic (order, degree)
    order, and the winner is normalized to coprime integer coefficients
    with a positive leading coefficient.  None when only the zero
    operator fits.  Rational terms are scaled once by their common
    denominator, which changes no annihilator.  Each order takes one
    elimination to find its least degree with a null vector, and the
    exact solve runs from that degree up.  ValueError when the work is
    above MAX_GUESS_WORK, before any row is built.
    """
    if max_order < 0 or max_deg < 0:
        raise ValueError("the order and degree bounds must be nonnegative")
    need = (max_order + 1) * (max_deg + 2) + max_order
    if len(terms) < need:
        raise InsufficientTerms(f"need at least {need} terms, got {len(terms)}")
    terms, _ = clear_denominators([scalar(t) for t in terms])
    _check_work(terms, max_order, max_deg)
    for order in range(max_order + 1):
        # with columns in (t, i) order the ansatz of each degree is a prefix of the next, so one
        # elimination finds the first dependent column: every lower degree has full column rank
        free, _ = _eliminate(_ansatz_rows(terms, order, max_deg, degree_major=True),
                             (order + 1) * (max_deg + 1))
        if free is None:
            continue
        for deg in range(free // (order + 1), max_deg + 1):
            sol = _nullspace_solution(terms, order, deg)
            if sol is None:
                continue
            cand = _normalized_operator(sol, deg)
            if annihilates(cand, terms):
                return cand
    return None
