"""Test-only oracle for the descent construction of `x3y9z2.descent`.

`mpoly_descent_forms` builds the four cubic forms of a class as MPolys
over Fraction, the way the construction worked before it took integer
combinations of dense tables: the cube forms B_m are read off
(y0 + t y1 + t^2 y2 + t^3 y3)^3, expanded with algebra coefficients, and
Q_i = sum_m (delta t^m)_i B_m is summed with Fraction scalars.  Passed to
`ProjectiveSystem.from_mpolys`, Q2 and Q3 give the local system that each
form's own `dense_table` defines.

`direct_deltas` lists a spec's classes the way `enumerate_delta` did
before it built each class from its prefix: every product of generator
powers multiplied out afresh.
"""

from fractions import Fraction
from itertools import product

from x3y9z2.arith.poly import MPoly


def mpoly_descent_forms(algebra, delta):
    """[Q0, Q1, Q2, Q3] in y0..y3 over Q with
    delta * (sum y_i t^i)^3 = sum Q_i t^i."""
    beta = MPoly(4, {tuple(int(k == i) for k in range(4)): algebra.gen() ** i
                     for i in range(4)})
    cube = beta * beta * beta
    B = [MPoly(4, {e: c.coords[m] for e, c in cube.terms.items()}) for m in range(4)]
    dt = [delta * algebra.gen() ** m for m in range(4)]
    forms = []
    for i in range(4):
        Q = MPoly(4)
        for m in range(4):
            c = dt[m].coords[i]
            if c:
                Q = Q + B[m] * Fraction(c)
        forms.append(Q)
    return forms


def direct_deltas(spec):
    """[(exponents, delta)] in lex order of the exponents, with each delta
    the product of g**e over the generators, scaled to integral."""
    out = []
    for expo in product(range(3), repeat=len(spec.generators)):
        d = spec.algebra.one()
        for g, e in zip(spec.generators, expo):
            if e:
                d = d * g**e
        out.append((expo, d.scale_to_integral()))
    return out
