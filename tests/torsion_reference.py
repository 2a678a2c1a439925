"""Reference torsion search, as an oracle for x3y9z2.ec.torsion.

`torsion_by_search` is `torsion_over_Q` with the Nagell-Lutz candidates
found the way they were before the divisor walk: every y = 1, 2, ... with
y^2 <= |disc| is tried, and kept when y^2 divides disc.  That is about
sqrt|disc| steps, so it suits curves with a small discriminant only.

`integer_roots_by_divisors` finds the integer roots of x^3 + a x + b the
way they were found before the bisection: every divisor d of b, and -d,
is tried (0 and +-sqrt(-a) when b = 0).  It trial-divides b, so it too
suits small coefficients only.
"""

from fractions import Fraction
from math import gcd, isqrt

from x3y9z2.arith.rationals import divisors
from x3y9z2.ec.torsion import _torsion_order, count_points_fp, good_odd_primes


def integer_roots_by_divisors(a, b):
    """Sorted integer roots of x^3 + a x + b."""
    if b == 0:
        roots = {0}
        if a <= 0:
            r = isqrt(-a)
            if r * r == -a:
                roots |= {r, -r}
        return sorted(roots)
    return sorted({x for d in divisors(b) for x in (d, -d) if x**3 + a * x + b == 0})


def torsion_by_search(curve):
    """(structure, points) of E(Q)_tors for an integral short model."""
    a, b = int(curve.a), int(curve.b)
    bound = gcd(*(count_points_fp(a, b, p) for p in good_odd_primes(a, b, 6)))
    disc = abs(-16 * (4 * a**3 + 27 * b**2))
    points = [curve.point(Fraction(x), Fraction(0)) for x in integer_roots_by_divisors(a, b)]
    y = 1
    while y * y <= disc:
        if disc % (y * y) == 0:
            for x in integer_roots_by_divisors(a, b - y * y):
                points += [curve.point(Fraction(x), Fraction(y)),
                           curve.point(Fraction(x), Fraction(-y))]
        y += 1
    torsion = {P: n for P in points if (n := _torsion_order(P, bound)) is not None}
    if not torsion:
        return "trivial", []
    order, top = len(torsion) + 1, max(torsion.values())
    structure = f"Z/{order}" if top == order else f"Z/2 x Z/{top}"
    return structure, sorted(torsion, key=lambda P: (torsion[P], repr(P)))
