"""Rational torsion of integral short Weierstrass curves.

Order bound from #E(F_p) at several good odd primes, candidates from the
Nagell-Lutz divisor condition (torsion points are integral with y = 0 or
y^2 | disc), each candidate certified by exact multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from ..arith.rationals import divisors, factorize, valuation
from .weierstrass import EcPoint, WeierstrassCurve


def integralize_curve(a: Fraction, b: Fraction):
    """Scale y^2 = x^3 + ax + b to integer coefficients.

    Returns (a', b', lam) with a' = a lam^4, b' = b lam^6 integers; the
    point map is (x, y) -> (lam^2 x, lam^3 y).
    """
    a, b = Fraction(a), Fraction(b)
    lam = 1
    for p in set(factorize(a.denominator)) | set(factorize(b.denominator)):
        va = valuation(a.denominator, p)
        vb = valuation(b.denominator, p)
        k = max(-(-va // 4), -(-vb // 6))
        lam *= p**k
    a2 = a * lam**4
    b2 = b * lam**6
    if a2.denominator != 1 or b2.denominator != 1:
        raise AssertionError("rescaled coefficients are not integral")
    return int(a2), int(b2), lam


def count_points_fp(a: int, b: int, p: int) -> int:
    """#E(F_p) for y^2 = x^3 + ax + b by direct enumeration."""
    sq = [0] * p
    for y in range(p):
        sq[y * y % p] += 1
    total = 1  # point at infinity
    for x in range(p):
        total += sq[(x * x * x + a * x + b) % p]
    return total


def good_odd_primes(a: int, b: int, count: int):
    disc = -16 * (4 * a**3 + 27 * b**2)
    out = []
    p = 3
    while len(out) < count:
        p += 2
        if factorize(p) != {p: 1}:
            continue
        if disc % p == 0:
            continue
        out.append(p)
    return out


def _integer_roots_cubic(a: int, b: int):
    """Integer roots of f = x^3 + a x + b, in increasing order.

    A root has |x| <= R = 1 + |a| + |b| (Cauchy).  f increases on the
    integers x <= -c and x >= c, and decreases on |x| < c, for
    c = ceil(sqrt(-a/3)) when a < 0; for a >= 0 it increases everywhere.
    On each piece, bisection finds the least integer at which f, read in
    the piece's direction, is not below 0; it is a root only if f
    vanishes there exactly."""
    def f(x):
        return x * x * x + a * x + b

    R = 1 + abs(a) + abs(b)
    pieces = [(-R, R, 1)]
    if a < 0:
        c = isqrt(-(a // 3) - 1) + 1      # the least c with 3 c^2 >= -a
        pieces = [(-R, -c, 1), (1 - c, c - 1, -1), (c, R, 1)]
    roots = []
    for lo, hi, sign in pieces:
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if f(lo) == 0:
            roots.append(lo)
    return roots


def torsion_over_Q(curve: WeierstrassCurve):
    """(structure, points) for E(Q)_tors of an integral short model.

    structure is a string like "trivial", "Z/2", "Z/3", "Z/6" (products
    appear as "Z/2 x Z/2" etc.); points lists the nontrivial torsion
    points as EcPoints.
    """
    a, b = curve.a, curve.b
    if isinstance(a, Fraction):
        if a.denominator != 1 or Fraction(b).denominator != 1:
            raise ValueError("integral model required; use integralize_curve")
        a, b = int(a), int(b)
    counts = [count_points_fp(a, b, p) for p in good_odd_primes(a, b, 6)]
    bound = 0
    for c in counts:
        bound = gcd(bound, c)
    disc = abs(-16 * (4 * a**3 + 27 * b**2))

    points = []
    for x in _integer_roots_cubic(a, b):
        points.append(curve.point(Fraction(x), Fraction(0)))
    root = 1  # the largest integer whose square divides disc
    for q, e in factorize(disc).items():
        root *= q ** (e // 2)
    for y in divisors(root):  # y^2 | disc exactly when y | root, ascending
        for x in _integer_roots_cubic(a, b - y * y):
            points.append(curve.point(Fraction(x), Fraction(y)))
            points.append(curve.point(Fraction(x), Fraction(-y)))

    torsion = {}
    for P in points:
        n = _torsion_order(P, bound)
        if n is not None:
            torsion[P] = n
    if any(cnt % _group_order(torsion) for cnt in counts):
        raise AssertionError("torsion does not inject into some good reduction")
    order = _group_order(torsion)
    if order == 1:
        return "trivial", []
    max_ord = max(torsion.values())
    if max_ord == order:
        structure = f"Z/{order}"
    else:
        if order != max_ord * 2:
            raise AssertionError("unexpected torsion structure")
        structure = f"Z/2 x Z/{max_ord}"
    pts = sorted(torsion, key=lambda P: (torsion[P], repr(P)))
    return structure, pts


def _group_order(torsion: dict) -> int:
    return len(torsion) + 1


def _torsion_order(P: EcPoint, bound: int):
    """Exact order if P is torsion of order dividing bound, else None."""
    if bound <= 0 or bound > 10**6:
        return None
    if (bound * P).is_zero():
        for d in divisors(bound):
            if (d * P).is_zero():
                return d
    return None
