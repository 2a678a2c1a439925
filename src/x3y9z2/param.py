"""Parametrizations of x^3 + v^3 = z^2, the six quartic-cube equations,
weighted equivalence, and lifting solutions to x^3 + y^9 = z^2.

Every parametrization is verified symbolically on construction, so a
typo in the tables below cannot survive import.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith.poly import MPoly
from .arith.rationals import factorize, icbrt, valuation


class STValue:
    """A point of P^1(Q): a rational number or infinity, in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, STValue):
            self.num, self.den = num.num, num.den
            return
        if den == 0:
            self.num, self.den = 1, 0
            return
        q = Fraction(num) / Fraction(den)
        self.num, self.den = q.numerator, q.denominator

    @classmethod
    def infinity(cls):
        return cls(1, 0)

    @property
    def is_infinity(self):
        return self.den == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise ValueError("infinity")
        return Fraction(self.num, self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = STValue(other)
        if not isinstance(other, STValue):
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def sort_key(self):
        return (1, Fraction(0)) if self.is_infinity else (0, self.as_fraction())

    def __repr__(self):
        if self.is_infinity:
            return "oo"
        return str(Fraction(self.num, self.den))

    def serialize(self) -> str:
        return "oo" if self.is_infinity else str(Fraction(self.num, self.den))

    @classmethod
    def parse(cls, s: str) -> "STValue":
        return cls.infinity() if s in ("oo", "inf") else cls(Fraction(s))


INF = STValue.infinity()


def _mp(d):
    return MPoly(2, {e: Fraction(c) for e, c in d.items()})


# The three displayed families of solutions to x^3 + v^3 = z^2.
_FAMILY_DATA = {
    1: (_mp({(4, 0): 1, (2, 2): 6, (0, 4): -3}),
        _mp({(4, 0): -1, (2, 2): 6, (0, 4): 3}),
        _mp({(5, 1): 6, (1, 5): 18})),
    2: (_mp({(4, 0): Fraction(1, 4), (2, 2): Fraction(3, 2), (0, 4): Fraction(-3, 4)}),
        _mp({(4, 0): Fraction(-1, 4), (2, 2): Fraction(3, 2), (0, 4): Fraction(3, 4)}),
        _mp({(5, 1): Fraction(3, 4), (1, 5): Fraction(9, 4)})),
    3: (_mp({(4, 0): 1, (1, 3): 8}),
        _mp({(0, 4): 4, (3, 1): -4}),
        _mp({(6, 0): 1, (3, 3): -20, (0, 6): -8})),
}


@dataclass(frozen=True)
class Parametrization:
    family: int
    swapped: bool
    z_sign: int
    x_poly: MPoly
    v_poly: MPoly
    z_poly: MPoly

    def __post_init__(self):
        ident = self.x_poly**3 + self.v_poly**3 - self.z_poly**2
        if ident.terms:
            raise ValueError("parametrization identity fails")

    def evaluate(self, s, t):
        args = (Fraction(s), Fraction(t))
        return (self.x_poly(args), self.v_poly(args), self.z_poly(args))

    @property
    def label(self):
        swap = "v,x" if self.swapped else "x,v"
        sign = "+" if self.z_sign > 0 else "-"
        return f"family {self.family} ({swap}; z {sign})"


def mordell_families():
    """All 12 sign/swap variants of the three parametrizing families."""
    out = []
    for fam in (1, 2, 3):
        A, B, C = _FAMILY_DATA[fam]
        for swapped in (False, True):
            x, v = (B, A) if swapped else (A, B)
            for z_sign in (1, -1):
                out.append(Parametrization(fam, swapped, z_sign, x, v, z_sign * C))
    return out


# The six equations y^3 = f_i(s, t): (unit constant, primitive quartic form).
_EQUATIONS = {
    1: (Fraction(1), _mp({(4, 0): 1, (2, 2): 6, (0, 4): -3})),
    2: (Fraction(1), _mp({(4, 0): -1, (2, 2): 6, (0, 4): 3})),
    3: (Fraction(1, 4), _mp({(4, 0): 1, (2, 2): 6, (0, 4): -3})),
    4: (Fraction(1, 4), _mp({(4, 0): -1, (2, 2): 6, (0, 4): 3})),
    5: (Fraction(1), _mp({(4, 0): 1, (1, 3): 8})),
    6: (Fraction(4), _mp({(0, 4): 1, (3, 1): -1})),
}


def equation_rhs(eq_id: int) -> MPoly:
    unit, form = _EQUATIONS[eq_id]
    return form * unit


def transfer_st_value(v: STValue) -> STValue:
    """s/t -> -2t/s = -2/(s/t) on P^1."""
    if v.is_infinity:
        return STValue(0)
    if v.num == 0:
        return INF
    return STValue(Fraction(-2) / v.as_fraction())


@dataclass(frozen=True, order=True)
class SolutionTriple:
    """A solution of the tagged equation; z is kept nonnegative and the
    +-z pair is expanded at reporting time."""

    x: int
    y: int
    z: int
    equation: str = "cube-ninth-square"

    def __post_init__(self):
        if self.equation == "cube-ninth-square":
            if self.x**3 + self.y**9 != self.z**2:
                raise ValueError("triple does not satisfy x^3+y^9=z^2")
        elif self.x**3 + self.y**3 != self.z**2:
            raise ValueError("triple does not satisfy x^3+v^3=z^2")

    def signed_pair(self):
        if self.z == 0:
            return [(self.x, self.y, 0)]
        return [(self.x, self.y, self.z), (self.x, self.y, -self.z)]


def _remove_weighted_content(x: int, v: int, z: int):
    """Largest (lam^2 x, lam^2 v, lam^3 z)-reduction with integer results."""
    g = gcd(gcd(abs(x), abs(v)), abs(z))
    if g <= 1:
        return x, v, z
    lam = 1
    big = 10**9
    for p in factorize(g):
        k = min(valuation(x, p) // 2 if x else big,
                valuation(v, p) // 2 if v else big,
                valuation(z, p) // 3 if z else big)
        if 0 < k < big:
            lam *= p**k
    return x // lam**2, v // lam**2, z // lam**3


def lift_to_ninth(x: int, v: int, z: int):
    """All primitive solutions (big, y, z') of x^3 + y^9 = z^2
    weighted-equivalent to the x^3 + v^3 = z^2 solution (x, v, z): those
    with (big, y^3, z') = (lam^2 x, lam^2 v, lam^3 z) or (lam^2 v, lam^2 x,
    lam^3 z) for a {2,3}-unit lam, and z' >= 0.  Empty list when there is
    none (a valid outcome).

    After weighted content removal only lam = 1 can give one.  For each p,
    some nonzero coordinate n then has v_p(n) < w, its weight (2 for x and
    v, 3 for z).  A negative power of p in lam makes that coordinate
    non-integral; a positive one makes p divide big, y^3 (so y) and z'.
    So this is one primitivity check of (x, cbrt v, z) and (v, cbrt x, z).
    """
    if x**3 + v**3 != z**2:
        raise ValueError("input does not satisfy x^3+v^3=z^2")
    x, v, z = _remove_weighted_content(x, v, abs(z))
    found = set()
    for big, cube in ((x, v), (v, x)):
        y = icbrt(cube)
        if y is not None and gcd(gcd(abs(big), abs(y)), z) == 1:
            found.add(SolutionTriple(big, y, z))
    return sorted(found)
