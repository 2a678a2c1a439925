"""Test-only oracles for the equation maps of `x3y9z2.param`.

No pipeline stage needs them: the pipeline moves s/t values between
equations 5 and 6 with `transfer_st_value`, and the tests check that
map, and the weighted equivalence behind the six equations, against
these maps on solution triples (s, t, y).
"""

from fractions import Fraction


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
