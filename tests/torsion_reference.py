"""Reference torsion search, as an oracle for x3y9z2.ec.torsion.

`torsion_by_search` is `torsion_over_Q` with the Nagell-Lutz candidates
found the way they were before the divisor walk: every y = 1, 2, ... with
y^2 <= |disc| is tried, and kept when y^2 divides disc.  That is about
sqrt|disc| steps, so it suits curves with a small discriminant only.
"""

from fractions import Fraction
from math import gcd

from x3y9z2.ec.torsion import (_integer_roots_cubic, _torsion_order, count_points_fp,
                               good_odd_primes)


def torsion_by_search(curve):
    """(structure, points) of E(Q)_tors for an integral short model."""
    a, b = int(curve.a), int(curve.b)
    bound = gcd(*(count_points_fp(a, b, p) for p in good_odd_primes(a, b, 6)))
    disc = abs(-16 * (4 * a**3 + 27 * b**2))
    points = [curve.point(Fraction(x), Fraction(0)) for x in _integer_roots_cubic(a, b)]
    y = 1
    while y * y <= disc:
        if disc % (y * y) == 0:
            for x in _integer_roots_cubic(a, b - y * y):
                points += [curve.point(Fraction(x), Fraction(y)),
                           curve.point(Fraction(x), Fraction(-y))]
        y += 1
    torsion = {P: n for P in points if (n := _torsion_order(P, bound)) is not None}
    if not torsion:
        return "trivial", []
    order, top = len(torsion) + 1, max(torsion.values())
    structure = f"Z/{order}" if top == order else f"Z/2 x Z/{top}"
    return structure, sorted(torsion, key=lambda P: (torsion[P], repr(P)))
