"""Exact polynomial reduction for holonomic sequences.

The package decomposes polynomials modulo the difference space of a
recurrence operator, detects the coefficient symmetry under which the
reduction preserves power parity, and uses that reduction to derive and
verify congruence families for Apery numbers and central Delannoy
polynomials -- all in exact arithmetic.
"""

from .congruence import (
    CongruenceReport,
    ConstantTable,
    HypothesisViolation,
    constant_table,
    derive_constant,
    odd_power_sum_zero,
    odd_power_symbolic_zero,
    sweep,
    verify,
)
from .exact import (
    NonInvertibleDenominator,
    Residue,
    is_prime,
    legendre_symbol,
    primes_in_range,
    rational_to_residue,
)
from .operators import (
    InsufficientTerms,
    ReductionProfile,
    ShiftOperator,
    adjoint_apply,
    annihilates,
    certificate,
    integer_roots,
    operator_from_dict,
    operator_to_dict,
    profile,
    telescope_sum_check,
)
from .poly import (
    Polynomial,
    PolynomialSyntaxError,
    parity_support,
    parse_polynomial,
    poly_to_text,
)
from .ratfunc import RationalFunction, Z
from .reduction import (
    NotPartible,
    PartibleCertificate,
    PartibleReduction,
    ReductionResult,
    find_gamma,
    gamma_candidates,
    is_partible,
    partible_reduce,
    reduce,
)
from .sequences import (
    SequenceFamily,
    UnknownFamily,
    apery_terms,
    builtin,
    delannoy_poly_terms,
    guess_annihilator,
)

__version__ = "0.1.0"
