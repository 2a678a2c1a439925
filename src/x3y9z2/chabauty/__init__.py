"""Elliptic-curve Chabauty over the quartic field: residue sieves at the
primes above 11 and 31, p-adic uniqueness bounds on the surviving
residue classes, and machine-checkable completeness certificates.

All p-adic work runs on the unramified rings Z_q of
`arith.localfield`: `engine` closes residue classes there, and
`series.formal_log` is the formal-group logarithm over Z_p (d = 1)."""

from .series import PrecisionTooLow, formal_log
from .engine import (
    BadPrime,
    ChabautyOutcome,
    CurveProblem,
    RankConditionViolated,
    RationalFunctionOnE,
    rational_st_values,
    residue_sieve,
)
from .setup import chabauty_setup_for_row

__all__ = [
    "PrecisionTooLow", "formal_log",
    "BadPrime", "ChabautyOutcome", "CurveProblem", "RankConditionViolated",
    "RationalFunctionOnE", "rational_st_values", "residue_sieve",
    "chabauty_setup_for_row",
]
