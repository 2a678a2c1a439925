"""Exact arithmetic substrate: rationals, polynomials, number fields and
etale algebras; `localfield` adds the unramified p-adic rings Z_q, the
one residue-ring type, with the finite field F_q as Z_q at precision 1."""

from .rationals import (
    icbrt,
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
    "icbrt", "is_rational_cube",
    "rational_cube_root", "rational_sqrt", "strip_primes", "valuation",
    "MPoly", "UPoly",
    "AlgElem", "EtaleAlgebra", "FieldIso", "NfElem", "NumberField",
    "ZeroDivisorError", "factor_deg_le4",
]
