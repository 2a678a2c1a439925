"""Exact arithmetic substrate: rationals, polynomials, number fields and
etale algebras; `localfield` adds finite fields F_q and the unramified
p-adic rings Z_q, the one p-adic number type."""

from .rationals import (
    Rat,
    icbrt,
    is_perfect_cube,
    is_rational_cube,
    rational_cube_root,
    rational_sqrt,
    strip_primes,
    valuation,
)
from .poly import MPoly, UPoly
from .numberfield import (
    AlgElem,
    EtaleAlgebra,
    FieldIso,
    NfElem,
    NumberField,
    ZeroDivisorError,
    factor_deg_le4,
)

__all__ = [
    "Rat", "icbrt", "is_perfect_cube", "is_rational_cube",
    "rational_cube_root", "rational_sqrt", "strip_primes", "valuation",
    "MPoly", "UPoly",
    "AlgElem", "EtaleAlgebra", "FieldIso", "NfElem", "NumberField",
    "ZeroDivisorError", "factor_deg_le4",
]
