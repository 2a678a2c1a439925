"""Per-curve construction for the Chabauty stage.

For each surviving class (equation, delta) of the quartic-field descent:
build the genus-1 quotient c_delta u^3 = N(s - theta t)/(s - theta t)
over K, convert it to a Weierstrass model at the rational flex
(0 : -theta : 1), identify it with the tabulated curve E_i through a
sixth-root twist, and push the function s/t through the whole chain.
Every arrow is verified on an explicitly constructed rational point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import gcd, lcm
from operator import add

from ..arith.rationals import rational_cube_root
from ..arith.roots import degree_one_character_data, nf_nth_root, power_residue_symbol
from ..descent import build_descent_forms, genus1_quotients, plane_cubic, st_map
from ..ec.cubic import PlaneCubicWithFlex, flex_to_weierstrass, mat_mul
from ..ec.weierstrass import WeierstrassCurve
from ..param import STValue, equation_rhs
from .engine import CurveProblem, RationalFunctionOnE, reductions_at


def find_primitive_solution(eq_id: int, st: STValue, bound: int = 6):
    """A {2,3}-primitive solution (s, t, y) of equation eq_id with the
    given s/t value, found by scanning {2,3}-unit scalings."""
    rhs = equation_rhs(eq_id)
    if st.is_infinity:
        base = (Fraction(1), Fraction(0))
    else:
        base = (Fraction(st.num), Fraction(st.den))
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            lam = Fraction(2) ** a * Fraction(3) ** b
            s, t = base[0] * lam, base[1] * lam
            val = rhs((s, t))
            y = rational_cube_root(val)
            if y is not None:
                return s, t, y
    raise CurveProblem(f"no small solution of eq {eq_id} with s/t = {st}")


@dataclass
class ChabautySetup:
    curve: WeierstrassCurve       # E_i over K
    psi: RationalFunctionOnE      # s/t as a function on E_i
    gens: list                    # trusted points on E_i
    known_points: list            # (nvec or None, EcPoint, STValue)
    checks: dict                  # verification verdicts for reporting


def chabauty_setup_for_row(descent_data, mw_data, eq_id: int, row,
                           box: int = 3) -> ChabautySetup:
    """Assemble the Chabauty input for one quartic-field table row.

    row: {"delta": [...], "st_p0": str, "i": int} with delta in the
    alpha basis of K.
    """
    K = descent_data.K
    iso = descent_data.iso[eq_id]
    spec = descent_data.specs[eq_id]
    algebra = spec.algebra
    checks = {}

    delta_alpha = K([Fraction(c) for c in row["delta"]])
    st_printed = STValue.parse(row["st_p0"])
    table_i = row["i"]

    delta_A = algebra(list(iso.inverse_apply(delta_alpha).coords))
    sysd = build_descent_forms(algebra, delta_A, eq_id=eq_id)

    # The quotient curve over K (theta model), moved to the alpha model.
    quot = genus1_quotients(equation_rhs(eq_id), spec.leading_coeff,
                            algebra, delta_A)[0]
    c_K = iso.apply(quot.constant)
    form_K = quot.form.map_coeffs(iso.apply)
    theta_K = descent_data.theta[eq_id]

    # Plane cubic F(u, s, t) = c u^3 - g(s, t) with flex (0 : -theta : 1).
    one = K.one()
    F = plane_cubic(c_K, form_K)
    flex = (K.zero(), -theta_K, one)
    cubic = PlaneCubicWithFlex(F, flex)
    model = flex_to_weierstrass(cubic)
    W = model.curve
    if W.a:
        raise CurveProblem("quotient model is not of j-invariant 0")
    checks["flex_on_curve"] = True

    # Identify with the tabulated E_i by a sixth-root twist.
    E_i = mw_data.curve(table_i)
    ratio = E_i.b * W.b.inverse()
    lam = nf_nth_root(ratio, 6)
    if lam is None:
        raise CurveProblem(f"model is not isomorphic to E{table_i} over K")
    checks["isomorphic_to_table_curve"] = True

    # psi on E_i: (x, y) -> W point (x/lam^2, y/lam^3) -> (u, s, t) -> s/t.
    lam2i = (lam * lam).inverse()
    lam3i = (lam * lam * lam).inverse()
    zero = K.zero()
    twist = [[lam2i, zero, zero], [zero, lam3i, zero], [zero, zero, one]]
    back = mat_mul(model.from_curve, twist)
    num = (back[1][2], back[1][0], back[1][1])   # s-row as c + cx*x + cy*y
    den = (back[2][2], back[2][0], back[2][1])   # t-row
    # A common rational rescale leaves s/t unchanged and keeps every
    # p-adic embedding of the coefficients integral.
    D = 1
    for coeff in num + den:
        D = lcm(D, coeff.denominator_lcm())
    num = tuple(c * D for c in num)
    den = tuple(c * D for c in den)
    psi = RationalFunctionOnE(field=K, num=num, den=den)

    # Construct a rational point on the descent curve and push it through.
    s, t, y = find_primitive_solution(eq_id, st_printed)
    theta_A = algebra.components[0][1].gen()
    xi = (s * algebra.components[0][1].one() - theta_A * t) * \
        algebra.component_map(0, delta_A).inverse()
    beta = nf_nth_root(xi, 3)
    if beta is None:
        raise CurveProblem("solution does not lift to the descent curve")
    yvec = list(beta.coords)
    if not sysd.is_on_curve(yvec):
        raise CurveProblem("constructed point is not on Q2 = Q3 = 0")
    checks["descent_point_on_curve"] = True
    st_val = st_map(sysd, yvec)
    checks["st_map_matches_table"] = (st_val == st_printed)

    # Image on the quotient, then on E_i.
    beta_K = iso.apply(beta)
    n_beta = beta.norm()
    u0 = beta_K.inverse() * n_beta
    s0, t0 = s * one, t * one
    if F((u0, s0, t0)):
        raise CurveProblem("cover image is not on the quotient cubic")
    Wpt = model.push_point((u0, s0, t0))
    if Wpt.is_zero():
        P0 = E_i.zero()
    else:
        xw, yw = Wpt.affine()
        P0 = E_i.point(xw * lam * lam, yw * lam * lam * lam)
    checks["p0_on_E_i"] = P0.on_curve()
    val0 = psi.rational_value(P0)
    checks["psi_p0_matches_table"] = (val0 is not None and val0 == st_printed)
    if not checks["psi_p0_matches_table"]:
        raise CurveProblem(f"psi(p0) = {val0} does not match the table value {st_printed}")

    try:
        gens = mw_data.points(table_i)
    except ValueError as exc:       # a trusted generator off its curve
        raise CurveProblem(f"trusted point of E{table_i}: {exc}") from None
    checks["trivial_torsion"] = trivial_torsion_certificate(E_i)

    known = _known_points(E_i, psi, gens, P0, box)
    return ChabautySetup(curve=E_i, psi=psi, gens=gens, known_points=known, checks=checks)


def _known_points(E, psi, gens, P0, box):
    """Direct search over the generator box plus the constructed point; the
    multiples -box..box of each generator are made once, by addition."""
    found = []
    seen = []
    multiples = []
    for g in gens:
        row = [E.zero()]
        for _ in range(box):
            row.append(row[-1] + g)
        multiples.append({n: row[n] if n >= 0 else -row[-n] for n in range(-box, box + 1)})
    for nvec in product(range(-box, box + 1), repeat=len(gens)):
        terms = [row[n] for n, row in zip(nvec, multiples) if n]
        P = reduce(add, terms) if terms else E.zero()
        val = psi.rational_value(P)
        if val is None:
            continue
        if any(P == Q for Q in seen):
            continue
        seen.append(P)
        found.append((nvec, P, val))
    if not any(P0 == Q for Q in seen):
        val0 = psi.rational_value(P0)
        found.append((None, P0, val0))
    return found


@lru_cache(maxsize=None)
def trivial_torsion_certificate(E: WeierstrassCurve):
    """E(K)_tors = 0 for y^2 = x^3 + c: no 2-torsion (-c not a cube in K),
    no 3-torsion (c not a square; -4c cube with -3c square fails), and the
    gcd of #E(F_q) over the degree-1 rows of the curve's reduction table
    kills every other prime.  Certified once per curve.  A "not a power"
    claim is proven by a power-residue symbol != 1 at a degree-1 prime of
    K; only if no q <= 400 gives one, the root search tells a torsion
    point from an unproven claim."""
    c = E.b
    claims = (("2-torsion", [(-c, 3)]),
              ("3-torsion (x = 0)", [(c, 2)]),
              ("3-torsion (x^3 = -4c)", [(-4 * c, 3), (-3 * c, 2)]))
    for torsion, powers in claims:
        # No such point unless every x here is an n-th power in K.
        if any(power_residue_symbol(x, q, r, n) not in (None, 1) for x, n in powers
               for q, r in degree_one_character_data(c.parent, 400, n)):
            continue
        if all(nf_nth_root(x, n) is not None for x, n in powers):
            raise CurveProblem(f"curve has K-rational {torsion}")
        raise CurveProblem(f"no power-residue symbol rules out K-rational {torsion}")
    bound = 0
    used = []
    for q in (11, 23, 37, 59, 61, 71, 73):
        for pr, _, order in reductions_at(E, q):
            if pr.degree == 1:
                bound = gcd(bound, order)
                used.append((q, pr.idx))
        if bound in (1, 2, 3, 4, 6, 9, 12):
            break
    # 2- and 3-parts were excluded directly; any residual gcd must be
    # supported there.
    residual = bound
    for ell in (2, 3):
        while residual % ell == 0:
            residual //= ell
    if residual != 1:
        raise CurveProblem(f"torsion bound {bound} not resolved by direct checks")
    return {"bound_gcd": bound, "primes": used}
