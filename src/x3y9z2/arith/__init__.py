"""Exact arithmetic substrate: rationals, polynomials, number fields and
etale algebras; `localfield` adds the unramified p-adic rings Z_q, the
one residue-ring type, with the finite field F_q as Z_q at precision 1.
Z_q and F_q elements are integer coordinate tuples, handled by the
ring's methods rather than by operators."""

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
