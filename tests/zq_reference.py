"""Test-only operator class for Z_q elements, as an oracle.

`x3y9z2.arith.localfield.ZqRing` keeps its elements as coordinate
tuples and multiplies, inverts and raises them to powers by its own
methods.  `ZqElem` wraps one such tuple with Python's arithmetic
operators, so that the generic projective law of
`x3y9z2.ec.weierstrass` (`EcPoint`, `_complete_add`) runs over Z_q and
F_q and can be checked against `FqCurve`, `ZqPoint` and the ring
methods.  Its sums, differences, negations and comparisons are its own;
products, powers and inverses call the ring.
"""

from fractions import Fraction


class ZqElem:
    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = ring.elem(coords)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring is o.ring and self.coords == o.coords

    def _coerce(self, other):
        if isinstance(other, ZqElem):
            return other
        if isinstance(other, (int, Fraction)):
            return ZqElem(self.ring, self.ring.from_fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ZqElem(self.ring, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return ZqElem(self.ring, [-a for a in self.coords])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ZqElem(self.ring, self.ring.mul(self.coords, o.coords))

    __rmul__ = __mul__

    def inverse(self):
        return ZqElem(self.ring, self.ring.inv(self.coords))

    def __pow__(self, n):
        return ZqElem(self.ring, self.ring.pow(self.coords, n))

    def __repr__(self):
        return f"Zq({list(self.coords)} mod {self.ring.p}^{self.ring.N})"
