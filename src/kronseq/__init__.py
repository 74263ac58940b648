"""Convergents of purely periodic continued fractions, their Jacobi and
Kronecker symbol sequences, and an exact decision procedure for whether the
Kronecker sequence repeats (with period L or 2L) or is aperiodic, with a
brute-force oracle for cross-validation."""

from .analysis import (Aperiodic, Classification, PeriodAnalysis, Periodic2L,
                       PeriodicL, analyze, cascade, certified_period_length,
                       classify, critical_scan, decompose, mod4_period_length,
                       threshold_valuation)
from .cf import (Convergent, ConvergentMatrix, PeriodicCF, QuadIrrational,
                 cf_of_rational, convergents, iter_convergent_pairs, matrix_at,
                 matrix_at_mod2, normalize_period, quad_irrational_of)
from .errors import (EmptyInput, EvenArgument, EvenModulus, KronseqError,
                     NonPositiveQuotient, NotAperiodic, NotCoprime,
                     OracleMismatch, ParseError, PrecisionExhausted,
                     WindowTooShort)
from .oracle import PeriodReport, cross_check, empirical_period
from .symbols import (STAR, jacobi, jacobi_sequence, kronecker,
                      kronecker_bits, kronecker_sequence,
                      reciprocal_jacobi_sequence, reciprocity_sign)

__version__ = "0.1.0"

__all__ = [
    "PeriodicCF", "Convergent", "ConvergentMatrix", "QuadIrrational",
    "normalize_period", "convergents", "iter_convergent_pairs", "matrix_at",
    "matrix_at_mod2", "quad_irrational_of", "cf_of_rational",
    "STAR", "jacobi", "kronecker", "reciprocity_sign", "jacobi_sequence",
    "reciprocal_jacobi_sequence", "kronecker_sequence", "kronecker_bits",
    "PeriodAnalysis", "PeriodicL", "Periodic2L", "Aperiodic", "Classification",
    "mod4_period_length", "certified_period_length", "decompose",
    "critical_scan", "analyze", "classify", "threshold_valuation", "cascade",
    "PeriodReport", "empirical_period", "cross_check",
    "KronseqError", "EmptyInput", "NonPositiveQuotient", "NotCoprime",
    "EvenModulus", "EvenArgument", "PrecisionExhausted",
    "NotAperiodic", "WindowTooShort", "OracleMismatch", "ParseError",
    "__version__",
]
