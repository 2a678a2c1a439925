"""Plane cubics with a rational flex, and the linear change of variables
to a short Weierstrass model.

The transform sends the flex to (0:1:0) and its tangent to the line at
infinity, completes the square and depresses the cubic; the composite is
a single invertible 3x3 matrix over the base field, returned together
with its inverse so functions like s/t can be pushed through exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..arith.poly import MPoly, _inv_ring
from .weierstrass import EcPoint, WeierstrassCurve


def mat_mul(A, B):
    # sum() is seeded with the k=0 term so the accumulator stays in the
    # coefficient ring rather than starting from int 0.
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(1, n)), A[i][0] * B[0][j])
             for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    n = len(A)
    return [sum((A[i][k] * v[k] for k in range(1, n)), A[i][0] * v[0]) for i in range(n)]


def mat_inverse_3x3(M):
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    A = e * i - f * h
    B = f * g - d * i
    C = d * h - e * g
    det = a * A + b * B + c * C
    if not det:
        raise ValueError("singular matrix")
    dinv = _inv_ring(det)
    return [
        [A * dinv, (c * h - b * i) * dinv, (b * f - c * e) * dinv],
        [B * dinv, (a * i - c * g) * dinv, (c * d - a * f) * dinv],
        [C * dinv, (b * g - a * h) * dinv, (a * e - b * d) * dinv],
    ]


@dataclass
class PlaneCubicWithFlex:
    """Homogeneous cubic F(u, s, t) = 0 with a marked flex point.

    Validation: the point is on the curve, the curve is smooth there,
    and the Hessian determinant vanishes (flex condition).
    """

    form: MPoly           # 3 variables, coefficients in the base field
    flex: tuple           # projective (u, s, t) coordinates

    def __post_init__(self):
        if self.form.nvars != 3 or self.form.total_degree() != 3:
            raise ValueError("need a homogeneous cubic in 3 variables")
        if not self.form.is_homogeneous():
            raise ValueError("form is not homogeneous")
        if self.form(self.flex):
            raise ValueError("flex point is not on the curve")
        grads = [self.form.partial(i)(self.flex) for i in range(3)]
        if not any(grads):
            raise ValueError("curve is singular at the marked point")
        if self.hessian_at(self.flex):
            raise ValueError("marked point is not an inflection point")
        self.gradient = grads

    def hessian_at(self, pt):
        H = [[self.form.partial(i).partial(j)(pt) for j in range(3)] for i in range(3)]
        return (H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
                - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
                + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0]))


@dataclass
class FlexModel:
    """Result of flex_to_weierstrass: E plus the coordinate change.

    to_curve:   3x3 matrix sending cubic coords (u,s,t) to (X,Y,Z).
    from_curve: its inverse.
    """

    curve: WeierstrassCurve
    to_curve: list
    from_curve: list

    def push_point(self, pt) -> EcPoint:
        X, Y, Z = mat_vec(self.to_curve, list(pt))
        return EcPoint(self.curve, X, Y, Z)

    def pull_point(self, P: EcPoint):
        return tuple(mat_vec(self.from_curve, [P.X, P.Y, P.Z]))


def _independent_tangent_vector(gradient, flex, one):
    """A point on the tangent line not proportional to the flex."""
    g = list(gradient)
    zero = one * 0
    candidates = []
    # Kernel basis of the 1x3 matrix g.
    idx = next(i for i in range(3) if g[i])
    ginv = _inv_ring(g[idx])
    for j in range(3):
        if j == idx:
            continue
        v = [zero, zero, zero]
        v[j] = one
        v[idx] = -g[j] * ginv
        candidates.append(v)
    # Reject multiples of the flex.
    fx = list(flex)
    for v in candidates:
        cross = [fx[1] * v[2] - fx[2] * v[1],
                 fx[2] * v[0] - fx[0] * v[2],
                 fx[0] * v[1] - fx[1] * v[0]]
        if any(cross):
            return v
    raise AssertionError("tangent line collapsed")


def flex_to_weierstrass(cubic: PlaneCubicWithFlex) -> FlexModel:
    """Linear change of variables onto y^2 = x^3 + a x + b.

    The flex goes to the point at infinity; the identity asserted on the
    way out makes the transform self-checking.
    """
    F = cubic.form
    one = None
    for c in F.terms.values():
        one = c * 0 + 1
        break
    zero = one * 0
    flex = [c * one for c in cubic.flex]

    tangent_pt = _independent_tangent_vector(cubic.gradient, flex, one)
    third = None
    for j in range(3):
        v = [zero, zero, zero]
        v[j] = one
        M = [[tangent_pt[i], flex[i], v[i]] for i in range(3)]
        try:
            Minv = mat_inverse_3x3(M)
        except ValueError:
            continue
        third = v
        break
    if third is None:
        raise AssertionError("could not complete a basis")

    G = F.substitute_linear(M)  # G(X,Y,Z) = F(M.(X,Y,Z))
    c = {e: G.terms.get(e, zero) for e in
         [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1), (1, 0, 2),
          (0, 0, 3), (0, 2, 1), (1, 1, 1), (0, 1, 2)]}
    if c[(0, 3, 0)] or c[(1, 2, 0)] or c[(2, 1, 0)]:
        raise AssertionError("flex normalization failed")
    A3, B2, C1, D0 = c[(3, 0, 0)], c[(2, 0, 1)], c[(1, 0, 2)], c[(0, 0, 3)]
    E2, F1, G1 = c[(0, 2, 1)], c[(1, 1, 1)], c[(0, 1, 2)]
    if not E2 or not A3:
        raise ValueError("degenerate cubic: not an elliptic flex model")

    Einv = _inv_ring(E2)
    a1 = -F1 * Einv
    a2 = -B2 * Einv
    a3 = G1 * A3 * Einv * Einv
    a4 = C1 * A3 * Einv * Einv
    a6 = -D0 * A3 * A3 * Einv * Einv * Einv
    # Long model via x = -(A/E) u, y = (A/E) v.
    lam = -A3 * Einv
    N1 = [[lam, zero, zero], [zero, -lam, zero], [zero, zero, one]]

    # Complete the square: Y' = Y + (a1 X + a3 Z)/2.
    half = _inv_ring(one * 2)
    S1 = [[one, zero, zero],
          [a1 * half, one, a3 * half],
          [zero, zero, one]]
    b2 = a2 + a1 * a1 * Fraction(1, 4)
    b4 = a4 + a1 * a3 * Fraction(1, 2)
    b6 = a6 + a3 * a3 * Fraction(1, 4)
    # Depress: X' = X + (b2/3) Z.
    third_f = Fraction(1, 3)
    S2 = [[one, zero, b2 * third_f],
          [zero, one, zero],
          [zero, zero, one]]
    A_short = b4 - b2 * b2 * third_f
    B_short = b6 - b2 * b4 * third_f + b2 * b2 * b2 * Fraction(2, 27)

    curve = WeierstrassCurve(A_short * one, B_short * one)
    to_curve = mat_mul(S2, mat_mul(S1, mat_mul(N1, Minv)))
    from_curve = mat_inverse_3x3(to_curve)

    # Self-check: F(from_curve . (X,Y,Z)) = scale * (Y^2 Z - X^3 - a XZ^2 - b Z^3).
    composed = F.substitute_linear(from_curve)
    target = MPoly(3, {
        (0, 2, 1): one,
        (3, 0, 0): -one,
        (1, 0, 2): -curve.a,
        (0, 0, 3): -curve.b,
    })
    scale = None
    for e, coeff in composed.terms.items():
        t = target.terms.get(e)
        if t is None:
            raise AssertionError("flex transform produced a non-Weierstrass form")
        cand = coeff * _inv_ring(t)
        if scale is None:
            scale = cand
        elif scale != cand:
            raise AssertionError("flex transform scale mismatch")
    check = composed - scale * target
    if check.terms:
        raise AssertionError("flex transform verification failed")

    return FlexModel(curve=curve, to_curve=to_curve, from_curve=from_curve)
