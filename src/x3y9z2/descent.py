"""Cubic descent: from y^3 = f(s,t) and a class delta in A(3,S) to the
curve Q_2 = Q_3 = 0 in P^3, the map s/t = -Q_0/Q_1, the cubic-norm
filter, and the genus-1 quotient curves.

The defining identity delta*(y0 + t*y1 + t^2*y2 + t^3*y3)^3
= Q_0 + Q_1*t + Q_2*t^2 + Q_3*t^3 is verified symbolically by
`CubicFormSystem.verify_identity`, independently of the integer construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith.numberfield import AlgElem, EtaleAlgebra, NumberField
from .arith.poly import MONOMIAL_EXPONENTS, MPoly, binary_form_divide
from .arith.rationals import is_rational_cube, strip_primes
from .arith.roots import degree_one_character_data, nf_cubic_character
from .local import DenseForm
from .param import STValue


class IndeterminatePoint(ValueError):
    """Both Q0 and Q1 vanish: s/t is undefined at this point."""


@dataclass
class SelmerSetSpec:
    """Candidate descent classes: an etale algebra, the prime set S, a
    trusted generator list, and the constant C (leading coefficient of
    f(x, 1))."""

    algebra: EtaleAlgebra
    S: tuple
    generators: list          # AlgElem, integral representatives
    leading_coeff: Fraction

    def verify(self):
        """Checkable part of the trusted input: every generator is an
        S-unit up to cubes (factored-norm test on integral elements) and
        the generators are independent modulo cubes (cubic characters).
        """
        problems = []
        for i, g in enumerate(self.generators):
            if g.denominator_lcm() != 1:
                problems.append(f"generator {i} not integral")
                continue
            n = g.norm()
            if n == 0:
                problems.append(f"generator {i} is a zero divisor")
                continue
            residue = strip_primes(n.numerator, self.S)
            if residue != 1 or n.denominator != 1:
                problems.append(f"generator {i} has norm {n} not supported on S")
        if _character_rank(self.generators, self.algebra) != len(self.generators):
            problems.append("generators are not independent modulo cubes")
        return problems


def _character_rank(gens, algebra: EtaleAlgebra, max_chars=24):
    """F_3-rank of the cubic-character matrix of the generators."""
    vectors = [[] for _ in gens]
    images = [algebra.component_images(g) for g in gens]
    for ci, field in enumerate(algebra.components):
        used = 0
        for q, r in degree_one_character_data(field, 250, 3):
            col = [nf_cubic_character(imgs[ci], q, r) for imgs in images]
            if None in col:
                continue
            for vec, e in zip(vectors, col):
                vec.append(e)
            used += 1
            if used >= max_chars:
                break
    return _f3_rank(vectors)


def _f3_rank(rows):
    M = [[x % 3 for x in row] for row in rows]
    rank = 0
    ncols = len(M[0]) if M else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, 3)
        M[r] = [x * inv % 3 for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(a - f * b) % 3 for a, b in zip(M[i], M[r])]
        r += 1
        if r == len(M):
            break
    return r


def enumerate_delta(spec: SelmerSetSpec):
    """All 3^r products of generator powers (exponents 0..2) in lex
    order of the exponent vector, each one multiplication from its prefix;
    the class representative is scaled to integral coordinates with
    cube-free content."""
    prefixes = [((), spec.algebra.one())]
    for g in spec.generators:
        powers = (None, g, g * g)
        prefixes = [(expo + (e,), d * powers[e] if e else d)
                    for expo, d in prefixes for e in range(3)]
    return [(expo, d.scale_to_integral()) for expo, d in prefixes]


def cubic_norm_filter(candidates, C: Fraction):
    """Keep the classes delta with C*N(delta) a rational cube."""
    C = Fraction(C)
    kept = []
    for item in candidates:
        delta = item[1] if isinstance(item, tuple) else item
        if is_rational_cube(C * delta.norm()):
            kept.append(item)
    return kept


# -- cubic forms ---------------------------------------------------------


@dataclass
class CubicFormSystem:
    """The four cubic forms of a descent class: s = Q0, t = -Q1, and the
    curve is Q2 = Q3 = 0 in P^3.  With B_m the algebra's cube forms,
    Q_i = sum_m (delta t^m)_i B_m, so with delta = num / den,
    den * Q_i = sum_m weights[i][m] B_m for integer weights."""

    algebra: EtaleAlgebra
    delta: AlgElem
    eq_id: int | None = None
    expo: tuple | None = None

    @cached_property
    def weights(self):
        """weights[i][m] = den * (delta t^m)_i: row i of delta's integer matrix."""
        return list(zip(*self.delta.int_matrix()))

    @cached_property
    def forms(self):
        """[Q0, Q1, Q2, Q3] as MPolys in y0..y3 over Q."""
        exponents = MONOMIAL_EXPONENTS[3]
        columns = self.algebra.cube_form_table[:len(exponents)]
        return [MPoly(4, {e: Fraction(c, self.delta.den)
                          for e, c in zip(exponents, _combine(w, columns)) if c})
                for w in self.weights]

    def verify_identity(self) -> bool:
        """Symbolic check of delta * beta^3 = sum Q_i t^i, computed through
        generic algebra-coefficient polynomial arithmetic (a route
        independent of the cached construction)."""
        A = self.algebra
        beta = MPoly(4)
        for i in range(4):
            coeff = A.gen() ** i
            beta = beta + MPoly(4, {tuple(1 if k == i else 0 for k in range(4)): coeff})
        lhs = beta * beta * beta * self.delta
        for e, c in lhs.terms.items():
            for m in range(4):
                if self.forms[m].coefficient(e) * c.den != c.num[m]:
                    return False
        # Also confirm no stray monomials in the Q_i.
        monos = set(lhs.terms)
        for m in range(4):
            if not set(self.forms[m].terms) <= monos:
                return False
        return True

    def curve_forms(self):
        """Q2 and Q3 with content 1, as the DenseForms of the local system."""
        columns = self.algebra.cube_form_table
        return tuple(DenseForm.primitive(3, _combine(w, columns)) for w in self.weights[2:])

    def is_on_curve(self, y) -> bool:
        args = tuple(Fraction(v) for v in y)
        return not self.forms[2](args) and not self.forms[3](args)


def _combine(w, columns):
    """Entry j is the dot product of the four weights w with column j."""
    w0, w1, w2, w3 = w
    return [w0 * a + w1 * b + w2 * c + w3 * d for a, b, c, d in columns]


def build_descent_forms(algebra: EtaleAlgebra, delta: AlgElem,
                        eq_id=None, expo=None) -> CubicFormSystem:
    """Unique cubic forms with delta*(y0+t y1+t^2 y2+t^3 y3)^3 = sum Q_i t^i,
    as integer combinations of the algebra's cube forms.

    The defining quartic must already be degree 4 in the descent variable
    (true for every equation handled here; an SL2(Z) move would be applied
    upstream otherwise).
    """
    return CubicFormSystem(algebra=algebra, delta=delta, eq_id=eq_id, expo=expo)


def st_map(sys: CubicFormSystem, y) -> STValue:
    """s/t = -Q0(y)/Q1(y) as a canonical point of P^1(Q)."""
    args = tuple(Fraction(v) for v in y)
    q0 = sys.forms[0](args)
    q1 = sys.forms[1](args)
    if not q0 and not q1:
        raise IndeterminatePoint(f"Q0 and Q1 both vanish at {y}")
    if not q1:
        return STValue.infinity()
    return STValue(-q0 / q1)


# -- genus-1 quotients ----------------------------------------------------


@dataclass
class Genus1Quotient:
    """c * u^3 = form(s, t): a genus-1 quotient of the descent curve."""

    label: str
    constant: object      # Fraction (rational component) or NfElem (field case)
    form: MPoly           # binary cubic over Q or over the field


def plane_cubic(c, form: MPoly) -> MPoly:
    """c u^3 - form(s, t) in the variables (u, s, t): the plane cubic of
    the quotient c u^3 = form(s, t)."""
    terms = {(0, i, j): -coeff for (i, j), coeff in form.terms.items()}
    terms[3, 0, 0] = c
    return MPoly(3, terms)


def genus1_quotients(eq_f: MPoly, C: Fraction, algebra: EtaleAlgebra, delta: AlgElem):
    """Quotient curves of the descent class.

    Split shape (two rational components): E_i: (N(delta)/m_i(delta)) u^3
    = f/(s - r_i t) for each rational root r_i.  Irreducible shape: the
    single curve over the field, (N(delta)/delta) u^3 = N(s - t*theta)/(s - t*theta).
    """
    n = delta.norm()
    out = []
    rational_components = [i for i, field in enumerate(algebra.components) if field.degree == 1]
    if rational_components:
        for idx, ci in enumerate(rational_components, start=1):
            r = -algebra.components[ci].minpoly[0]
            c = n / algebra.component_map(ci, delta).rational_value()
            lin = MPoly(2, {(1, 0): Fraction(1), (0, 1): -r})
            form = binary_form_divide(eq_f * (Fraction(1) / C), lin)
            out.append(Genus1Quotient(label=f"E{idx},delta", constant=c, form=form))
    else:
        fld: NumberField = algebra.components[0]
        theta = fld.gen()
        delta_k = algebra.component_map(0, delta)
        c = delta_k.inverse() * n
        one = fld.one()
        lin = MPoly(2, {(1, 0): one, (0, 1): -theta})
        f_k = eq_f.map_coeffs(lambda q: (q / C) * one)
        form = binary_form_divide(f_k, lin)
        out.append(Genus1Quotient(label="E_delta", constant=c, form=form))
    return out
