"""Test-only oracles for the equation maps of `x3y9z2.param`.

No pipeline stage needs them: the pipeline moves s/t values between
equations 5 and 6 with `transfer_st_value`, and the tests check that
map, and the weighted equivalence behind the six equations, against
these maps on solution triples (s, t, y).  `lift_by_scalings` tries
every scaling lam = 2^a 3^b with |a|, |b| <= 12 after content removal,
against which `lift_to_ninth`'s single primitivity check is tested.
"""

from fractions import Fraction
from math import gcd

from x3y9z2.arith.rationals import icbrt
from x3y9z2.param import SolutionTriple, _remove_weighted_content

# lam = 2^a 3^b, |a|, |b| <= 12, as (numerator, denominator): 625 scalings.
_SCALINGS = [(lam.numerator, lam.denominator) for lam in (Fraction(2)**a * Fraction(3)**b
                                                          for a in range(-12, 13)
                                                          for b in range(-12, 13))]


def eq5_eq6_transfer(s, t, y):
    """The bijection (s,t,y) -> (-t/2, s/4, y/4) between solutions of
    equation 5 and equation 6; induced map on s/t is v -> -2/v."""
    s, t, y = Fraction(s), Fraction(t), Fraction(y)
    return (-t / 2, s / 4, y / 4)


def eq5_eq6_transfer_inverse(s2, t2, y2):
    s2, t2, y2 = Fraction(s2), Fraction(t2), Fraction(y2)
    return (4 * t2, -2 * s2, 4 * y2)


def weighted_rescale(s, t, y, lam):
    """(s, t, y) -> (lam^3 s, lam^3 t, lam^4 y); preserves y^3 = f(s,t)
    for quartic f and fixes s/t."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    s, t, y = Fraction(s), Fraction(t), Fraction(y)
    return (lam**3 * s, lam**3 * t, lam**4 * y)


def lift_by_scalings(x, v, z):
    """The primitive solutions (big, y, |z'|) of x^3 + y^9 = z^2 with
    (big, y^3, z') one of (lam^2 x, lam^2 v, lam^3 z), (lam^2 v, lam^2 x,
    lam^3 z) after weighted content removal, over the 625 scalings."""
    x, v, z = _remove_weighted_content(x, v, abs(z))
    found = set()
    for num, den in _SCALINGS:
        if x % den**2 or v % den**2 or z % den**3:
            continue        # lam^2 x, lam^2 v or lam^3 z is not an integer
        xi, vi, zi = x * num**2 // den**2, v * num**2 // den**2, z * num**3 // den**3
        for big, cube in ((xi, vi), (vi, xi)):
            y = icbrt(cube)
            if y is not None and gcd(gcd(abs(big), abs(y)), abs(zi)) == 1:
                found.add(SolutionTriple(big, y, abs(zi)))
    return sorted(found)
