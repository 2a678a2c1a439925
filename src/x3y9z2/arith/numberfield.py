"""Number fields of degree <= 4, etale algebras Q[x]/(f), and their
element arithmetic in the power basis of the defining polynomial.

An element is one integer coordinate vector over one positive
denominator, in lowest terms (Cohen, GTM 138, 4.2): a product is an
integer schoolbook product, reduced by an integer table of x^deg, ...,
x^(2deg-2) built once per parent, then one gcd.  That table needs a
monic integral defining polynomial (after dividing by the leading
coefficient), and any other is refused with ValueError.  `.coords` is a
Fraction view of the same element.

Only what the quartic descent needs: no maximal orders, no class
groups.  Factorization is capped at degree 4 and certified by
exhausting the 4 = 1+3 = 1+1+2 = 2+2 = ... shapes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import mul

from .poly import UPoly, dense_table
from .rationals import divisors, rational_sqrt


class ZeroDivisorError(ZeroDivisionError):
    """Inversion of a zero divisor; carries the vanishing component ids."""

    def __init__(self, components):
        self.components = tuple(components)
        super().__init__(f"zero divisor: vanishes on component(s) {self.components}")


def _rational_roots(f: UPoly):
    """All rational roots of f with multiplicity 1 listing (set)."""
    ints = f.integer_coeffs()
    if not ints:
        return []
    # Strip x^k | f: 0 is a root.
    roots = set()
    k = 0
    while ints[k] == 0:
        k += 1
    if k > 0:
        roots.add(Fraction(0))
    a0, an = abs(ints[k]), abs(ints[-1])
    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if f(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _factor_squarefree_monic(f: UPoly):
    """Irreducible monic factors of a squarefree monic f, deg(f) <= 4."""
    n = f.degree
    if n <= 1:
        return [f] if n == 1 else []
    factors = []
    g = f
    for r in _rational_roots(f):
        lin = UPoly([-r, 1])
        factors.append(lin)
        g = g // lin
    n = g.degree
    if n <= 0:
        return factors
    if n == 1:
        factors.append(g)
        return factors
    if n == 2:
        disc = g[1] ** 2 - 4 * g[0]
        s = rational_sqrt(disc)
        if s is None:
            factors.append(g)
        else:
            factors.append(UPoly([(-g[1] - s) / 2 * -1, 1]))  # x - (-b-s)/2
            factors.append(UPoly([(-g[1] + s) / 2 * -1, 1]))
        return factors
    if n == 3:
        # No rational root: irreducible over Q.
        factors.append(g)
        return factors
    # Quartic with no rational roots: try splitting into two quadratics.
    split = _split_quartic(g)
    if split is None:
        factors.append(g)
    else:
        factors.extend(split)
    return factors


def _split_quartic(g: UPoly):
    """Split a monic quartic with no rational roots into two monic
    quadratics over Q, or return None if irreducible.

    Works on the depressed form y^4 + P y^2 + Q y + R, where any
    factorization is (y^2 + a y + b)(y^2 - a y + d) and z = a^2 is a
    rational root of the cubic resolvent z^3 + 2P z^2 + (P^2-4R) z - Q^2.
    """
    p = g[3]
    h = g.shift_x(-p / 4)  # depressed quartic in y, x = y - p/4
    P, Q, R = h[2], h[1], h[0]
    candidates = []
    if Q == 0:
        # (y^2+b)(y^2+d): b+d = P, bd = R.
        s = rational_sqrt(P * P - 4 * R)
        if s is not None:
            b, d = (P - s) / 2, (P + s) / 2
            candidates.append((Fraction(0), b, d))
        # (y^2+ay+b)(y^2-ay+b): R = b^2, a^2 = 2b - P.
        sb = rational_sqrt(R)
        if sb is not None:
            for b in (sb, -sb):
                a = rational_sqrt(2 * b - P)
                if a is not None and a != 0:
                    candidates.append((a, b, b))
    else:
        resolvent = UPoly([-Q * Q, P * P - 4 * R, 2 * P, 1])
        for z in _rational_roots(resolvent):
            a = rational_sqrt(z)
            if a is None or a == 0:
                continue
            b = (P + z - Q / a) / 2
            d = (P + z + Q / a) / 2
            if b * d == R:
                candidates.append((a, b, d))
    for a, b, d in candidates:
        q1 = UPoly([b, a, 1]).shift_x(p / 4)
        q2 = UPoly([d, -a, 1]).shift_x(p / 4)
        if q1 * q2 == g:
            return [q1, q2]
    return None


def factor_deg_le4(f: UPoly):
    """Factor f (deg <= 4, nonzero) over Q.

    Returns a list of (monic irreducible UPoly, multiplicity) sorted
    deterministically; the product times the leading coefficient of f
    reproduces f exactly.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > 4:
        raise ValueError("degree cap is 4")
    g = f.monic()
    if g.degree == 0:
        return []
    sqfree = g // g.gcd(g.derivative())
    irreducibles = _factor_squarefree_monic(sqfree)
    out = []
    for h in irreducibles:
        mult = 0
        r = g
        while True:
            q, rem = divmod(r, h)
            if rem.is_zero():
                mult += 1
                r = q
            else:
                break
        out.append((h, mult))
    out.sort(key=lambda hm: (hm[0].degree, hm[0].coeffs))
    # Round-trip invariant: multiplying the factors must reproduce the input.
    prod = UPoly([f.leading])
    for h, m in out:
        prod = prod * h**m
    if prod != f:
        raise AssertionError("factorization round-trip failed")
    return out


def _int_det(mat):
    """Determinant of a square integer matrix (fraction-free Bareiss
    elimination: every division is exact)."""
    m = [list(row) for row in mat]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def mat_inv(mat):
    """Exact inverse of a square Fraction matrix."""
    n = len(mat)
    m = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(mat)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [a * inv for a in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                fac = m[r][c]
                m[r] = [a - fac * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _int_product(a, b, table):
    """Integer coordinates of (sum a_i x^i)(sum b_j x^j) modulo the monic
    integral polynomial whose power table (rows x^deg .. x^(2deg-2)) is
    given."""
    deg = len(a)
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    out = prod[:deg]
    for c, row in zip(prod[deg:], table):
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
    return out


class _PowerBasisElem:
    """Shared arithmetic for elements written in the power basis of a
    monic integral defining polynomial (number field or etale algebra).

    An element is num / den: a tuple of integer coordinates over one
    positive denominator, in lowest terms (gcd(den, num) = 1; zero is
    (0, ..., 0) / 1), so equal elements have equal (num, den)."""

    __slots__ = ("parent", "num", "den")

    def __init__(self, parent, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != parent.degree:
            raise ValueError("coordinate vector has wrong length")
        den = lcm(*(c.denominator for c in coords))
        self.parent = parent
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    def _make(self, num, den):
        """num / den reduced to lowest terms (den > 0)."""
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        e = object.__new__(type(self))
        e.parent = self.parent
        e.num = tuple(num)
        e.den = den
        return e

    @property
    def coords(self) -> tuple:
        """The coordinates as Fractions (a read-only view)."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, _PowerBasisElem):
            return (self.parent is other.parent and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self.num[0], self.den) == other
        return NotImplemented

    def __hash__(self):
        return hash((id(self.parent), self.num, self.den))

    def _from_scalar(self, c):
        c = Fraction(c)
        return self._make([c.numerator] + [0] * (self.parent.degree - 1), c.denominator)

    def _coerce(self, other):
        if isinstance(other, _PowerBasisElem):
            if other.parent is not self.parent:
                raise ValueError("elements of different parents")
            return other
        if isinstance(other, (int, Fraction)):
            return self._from_scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return self._make([a + b for a, b in zip(self.num, o.num)], da)
        return self._make([a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return self._make([-a for a in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return self._make([a - b for a, b in zip(self.num, o.num)], da)
        return self._make([a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._make([a * other.numerator for a in self.num],
                              self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(_int_product(self.num, o.num, self.parent._power_table),
                          self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self._from_scalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        """Multiplicative inverse by Cramer's rule on the integer matrix M
        of multiplication by num: num * c = 1 has c_i = det(M_i) / det(M),
        M_i being M with column i replaced by e_0, and 1/self = den * c."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        cols = self.int_matrix()
        det = _int_det(cols)
        if not det:
            self.parent._raise_zero_divisor(self)
        e0 = [1] + [0] * (len(cols) - 1)
        num = [self.den * _int_det(cols[:i] + [e0] + cols[i + 1:]) for i in range(len(cols))]
        return self._make(num, det) if det > 0 else self._make([-c for c in num], -det)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def denominator_lcm(self) -> int:
        return self.den

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def int_matrix(self):
        """The integer matrix of multiplication by num (self is num / den),
        as its columns num * x^i."""
        deg = self.parent.degree
        table = self.parent._power_table
        return [_int_product(self.num, [int(i == j) for j in range(deg)], table)
                for i in range(deg)]

    def norm(self) -> Fraction:
        """Determinant of the multiplication-by-self map (for an etale
        algebra, the product of the component norms)."""
        return Fraction(_int_det(self.int_matrix()), self.den**self.parent.degree)

    def __repr__(self):
        name = self.parent.gen_name
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                pw = name if i == 1 else f"{name}^{i}"
                parts.append(pw if c == 1 else f"{c}*{pw}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class NumberField:
    """Q[x]/(minpoly) for an irreducible minpoly of degree <= 4 whose
    monic form is integral."""

    def __init__(self, minpoly: UPoly, gen_name: str = "a", check=True):
        minpoly = minpoly.monic()
        self._power_table = _build_power_table(minpoly)
        if check:
            factors = factor_deg_le4(minpoly)
            if len(factors) != 1 or factors[0][1] != 1:
                raise ValueError("defining polynomial is not irreducible")
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self.gen_name = gen_name
        # disc(f) = (-1)^(n(n-1)/2) N(f'(alpha)) for monic f of degree n.
        fprime = NfElem(self, [minpoly.derivative()[i] for i in range(self.degree)])
        self._disc = (-1) ** (self.degree * (self.degree - 1) // 2) * fprime.norm()

    def _raise_zero_divisor(self, elem):  # pragma: no cover - fields have none
        raise ZeroDivisionError("unexpected zero divisor in a field")

    def __call__(self, coords) -> "NfElem":
        if isinstance(coords, (int, Fraction)):
            coords = [coords] + [0] * (self.degree - 1)
        return NfElem(self, coords)

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def gen(self) -> "NfElem":
        return NfElem(self, [0, 1] + [0] * (self.degree - 2))

    def discriminant(self) -> Fraction:
        """disc(minpoly), an invariant of the field fixed at construction."""
        return self._disc

    def __repr__(self):
        return f"NumberField({self.minpoly!r}, {self.gen_name})"


class NfElem(_PowerBasisElem):
    """Element of a NumberField in the power basis 1, a, a^2, a^3."""


def _build_power_table(monic: UPoly):
    """Integer coordinates of x^deg, ..., x^(2deg-2) modulo monic, which
    must be integral (ValueError otherwise)."""
    if any(c.denominator != 1 for c in monic.coeffs):
        raise ValueError(f"defining polynomial {monic!r} is not integral")
    deg = monic.degree
    table = []
    p = UPoly.x_power(deg) % monic
    for _ in range(deg - 1):
        table.append(tuple(p[i].numerator for i in range(deg)))
        p = (p * UPoly.x_power(1)) % monic
    return table


class FieldIso:
    """Isomorphism between two number fields, given by the image of the
    source generator; verified on construction."""

    def __init__(self, src: NumberField, dst: NumberField, gen_image: NfElem):
        if gen_image.parent is not dst:
            raise ValueError("generator image must live in the target field")
        if src.minpoly(gen_image):
            raise ValueError("generator image does not satisfy the source minimal polynomial")
        self.src = src
        self.dst = dst
        self.gen_image = gen_image
        # Basis matrix: columns are images of 1, t, t^2, t^3.
        cols = []
        acc = dst.one()
        for _ in range(src.degree):
            cols.append(acc.coords)
            acc = acc * gen_image
        self._mat = [[cols[c][r] for c in range(src.degree)] for r in range(src.degree)]
        self._mat_inv = mat_inv(self._mat)

    def apply(self, elem: NfElem) -> NfElem:
        if elem.parent is not self.src:
            raise ValueError("element not in source field")
        out = [sum((row[c] * elem.coords[c] for c in range(self.src.degree)), Fraction(0))
               for row in self._mat]
        return NfElem(self.dst, out)

    def inverse_apply(self, elem: NfElem) -> NfElem:
        if elem.parent is not self.dst:
            raise ValueError("element not in target field")
        out = [sum((row[c] * elem.coords[c] for c in range(self.dst.degree)), Fraction(0))
               for row in self._mat_inv]
        return NfElem(self.src, out)


class EtaleAlgebra:
    """Q[x]/(f) for a squarefree f of degree 4 whose monic form is
    integral, split into components.

    Components are the number fields Q[x]/(h) of the irreducible factors
    h of f, of degree 1 for a rational root r (h = x - r).  Component
    order is deterministic: linear factors first with roots descending
    (so the eq-5 algebra gets m1(theta) = 0, m2(theta) = -2 as in the
    source tables), then by degree and coefficients.
    """

    def __init__(self, defining: UPoly, gen_name: str = "t"):
        if defining.degree != 4:
            raise ValueError("etale algebras here are quartic")
        self.defining = defining
        self.leading = defining.leading
        self.monic_poly = defining.monic()
        self._power_table = _build_power_table(self.monic_poly)
        self.degree = 4
        self.gen_name = gen_name
        factors = factor_deg_le4(self.monic_poly)
        if any(m > 1 for _, m in factors):
            raise ValueError("defining polynomial is not squarefree")
        # Root of (x - r) is r = -h[0]; sorting by h[0] puts roots in
        # descending order.
        linear = sorted((h for h, _ in factors if h.degree == 1), key=lambda h: h[0])
        rest = sorted((h for h, _ in factors if h.degree > 1),
                      key=lambda h: (h.degree, h.coeffs))
        self.components = [NumberField(h, gen_name=f"{gen_name}{idx}", check=False)
                            for idx, h in enumerate(linear + rest)]
        # Column k of a component's table is coefficient k of x^j mod h for
        # j < 4 (integral, as h is a monic factor of the monic integral f).
        self._component_tables = [
            list(zip(*([p[k].numerator for k in range(h.degree)]
                       for p in (UPoly.x_power(j) % h for j in range(4)))))
            for h in linear + rest]

    @property
    def n_components(self):
        return len(self.components)

    def __call__(self, coords) -> "AlgElem":
        if isinstance(coords, (int, Fraction)):
            coords = [coords, 0, 0, 0]
        return AlgElem(self, coords)

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def gen(self) -> "AlgElem":
        return AlgElem(self, [0, 1, 0, 0])

    @cached_property
    def cube_form_table(self):
        """The integral cubic forms B_0..B_3 in y0..y3 with
        (sum y_i t^i)^3 = sum B_m t^m, as the columns of their dense_tables:
        column j holds entry j of each B_m's table, so entry j of the table
        of sum_m w_m B_m is the dot product of w with column j."""
        powers = [(self.gen() ** n).num for n in range(10)]   # integral: monic f
        forms = [{} for _ in range(4)]
        for ijk in product(range(4), repeat=3):
            e = tuple(map(ijk.count, range(4)))
            for m, c in enumerate(powers[sum(ijk)]):
                forms[m][e] = forms[m].get(e, 0) + c
        return list(zip(*(dense_table(f, 3) for f in forms)))

    def component_map(self, i: int, elem: "AlgElem") -> NfElem:
        """m_i: image of elem in the i-th component field, the integer
        table of x^j mod h_i times elem.num, over elem.den."""
        num, den = elem.num, elem.den
        return NfElem(self.components[i], [Fraction(sum(map(mul, num, col)), den)
                                           for col in self._component_tables[i]])

    def component_images(self, elem: "AlgElem"):
        return [self.component_map(i, elem) for i in range(self.n_components)]

    def _raise_zero_divisor(self, elem: "AlgElem"):
        raise ZeroDivisorError(i for i in range(self.n_components)
                               if not self.component_map(i, elem))

    def __repr__(self):
        shape = "+".join(str(field.degree) for field in self.components)
        return f"EtaleAlgebra({self.defining!r}, shape {shape})"


class AlgElem(_PowerBasisElem):
    """Element of an EtaleAlgebra in the power basis 1, t, t^2, t^3."""

    def scale_to_integral(self) -> "AlgElem":
        """Multiply by the cube of a rational to clear denominators and
        cube content; canonical class representative for display."""
        e = self * self.den**3
        # Remove cube content of the integer coordinate gcd.
        g = gcd(*e.num)
        if g:
            c = 1
            k = 2
            while k**3 <= g:
                while g % k**3 == 0:
                    g //= k**3
                    c *= k
                k += 1
            if c > 1:
                e = e * Fraction(1, c**3)
        return e
