"""Short Weierstrass curves y^2 = x^3 + a x + b over a generic exact ring:
Q or K in the run (over F_q, ec.reduction.FqCurve has its own law, and
over Z_q, chabauty.engine.ZqPoint).

Points are projective (X:Y:Z).  Addition uses the complete projective
formulas (Renes-Costello-Batina), which are division-free; the rare
exceptional pairs on even-order groups degenerate to (0:0:0) and are
redone with the classical chord-tangent case analysis.
"""

from __future__ import annotations

from fractions import Fraction

from ..arith.poly import _inv_ring


class WeierstrassCurve:
    """y^2 = x^3 + a*x + b with a, b in a common exact ring."""

    __slots__ = ("a", "b", "_one")

    def __init__(self, a, b):
        self.a = a
        self.b = b
        self._one = _ring_one(a, b)
        if not self.discriminant():
            raise ValueError("singular curve: discriminant vanishes")

    def discriminant(self):
        a, b = self.a, self.b
        return -16 * (4 * a * a * a + 27 * b * b)

    def zero(self) -> "EcPoint":
        one = self._one
        return EcPoint(self, one * 0, one, one * 0)

    def point(self, x, y) -> "EcPoint":
        one = self._one
        p = EcPoint(self, x * one, y * one, one)
        if not p.on_curve():
            raise ValueError(f"({x}, {y}) is not on {self}")
        return p

    def __eq__(self, other):
        if isinstance(other, WeierstrassCurve):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash(("weierstrass", repr(self.a), repr(self.b)))

    def __repr__(self):
        return f"y^2 = x^3 + ({self.a})*x + ({self.b})"


def _ring_one(a, b):
    for v in (a, b):
        if not isinstance(v, (int, Fraction)):
            return v * 0 + 1
    return Fraction(1)


class EcPoint:
    __slots__ = ("curve", "X", "Y", "Z")

    def __init__(self, curve, X, Y, Z):
        self.curve = curve
        self.X, self.Y, self.Z = X, Y, Z
        if not (X or Y or Z):
            raise ValueError("(0:0:0) is not a projective point")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.Z and not self.X

    def on_curve(self) -> bool:
        X, Y, Z = self.X, self.Y, self.Z
        a, b = self.curve.a, self.curve.b
        lhs = Y * Y * Z
        rhs = X * X * X + a * X * Z * Z + b * Z * Z * Z
        return not (lhs - rhs)

    def affine(self):
        """(x, y) for finite points; None for the point at infinity."""
        if self.is_zero():
            return None
        zinv = _inv_ring(self.Z)
        return (self.X * zinv, self.Y * zinv)

    def __eq__(self, other):
        if not isinstance(other, EcPoint):
            return NotImplemented
        if self.curve != other.curve:
            return False
        return (not (self.X * other.Z - other.X * self.Z)
                and not (self.Y * other.Z - other.Y * self.Z)
                and not (self.X * other.Y - other.X * self.Y))

    def __hash__(self):
        aff = self.affine()
        if aff is None:
            return hash(("O", id(self.curve)))
        return hash((repr(aff[0]), repr(aff[1])))

    # -- group law ----------------------------------------------------

    def __neg__(self):
        return EcPoint(self.curve, self.X, -self.Y, self.Z)

    def __add__(self, other: "EcPoint") -> "EcPoint":
        if self.curve != other.curve:
            raise ValueError("points on different curves")
        X3, Y3, Z3 = _complete_add(self.curve, self.X, self.Y, self.Z,
                                    other.X, other.Y, other.Z)
        if X3 or Y3 or Z3:
            return EcPoint(self.curve, X3, Y3, Z3)
        # Exceptional pair of the complete formulas (even-order corner):
        # fall back to exact chord-tangent arithmetic.
        return _classical_add(self, other)

    def __rmul__(self, n: int) -> "EcPoint":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (-n) * (-self)
        acc = self.curve.zero()
        base = self
        while n:
            if n & 1:
                acc = acc + base
            base = base + base
            n >>= 1
        return acc

    def __repr__(self):
        aff = self.affine()
        return "O" if aff is None else f"({aff[0]}, {aff[1]})"


def _complete_add(curve, X1, Y1, Z1, X2, Y2, Z2):
    """Renes-Costello-Batina complete addition for y^2 = x^3 + ax + b."""
    a, b = curve.a, curve.b
    b3 = 3 * b
    t0 = X1 * X2
    t1 = Y1 * Y2
    t2 = Z1 * Z2
    t3 = (X1 + Y1) * (X2 + Y2) - t0 - t1      # X1Y2 + X2Y1
    t4 = (X1 + Z1) * (X2 + Z2) - t0 - t2      # X1Z2 + X2Z1
    t5 = (Y1 + Z1) * (Y2 + Z2) - t1 - t2      # Y1Z2 + Y2Z1
    W = a * t4 + b3 * t2
    V = b3 * t4 + a * (t0 - a * t2)
    U = 3 * t0 + a * t2
    X3 = t3 * (t1 - W) - t5 * V
    Y3 = (t1 - W) * (t1 + W) + U * V
    Z3 = t5 * (t1 + W) + t3 * U
    return X3, Y3, Z3


def _classical_add(P: EcPoint, Q: EcPoint) -> EcPoint:
    """Chord-tangent addition with explicit case analysis (exact rings)."""
    if P.is_zero():
        return Q
    if Q.is_zero():
        return P
    x1, y1 = P.affine()
    x2, y2 = Q.affine()
    curve = P.curve
    if not (x1 - x2):
        if not (y1 + y2):
            return curve.zero()
        lam = (3 * x1 * x1 + curve.a) * _inv_ring(2 * y1)
    else:
        lam = (y2 - y1) * _inv_ring(x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    one = curve._one
    return EcPoint(curve, x3 * one, y3 * one, one)
