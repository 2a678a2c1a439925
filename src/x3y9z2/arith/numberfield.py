"""Number fields of degree <= 4, etale algebras Q[x]/(f), and their
element arithmetic in the power basis of the defining polynomial.

Only what the quartic descent needs: no maximal orders, no class
groups.  Factorization is capped at degree 4 and certified by
exhausting the 4 = 1+3 = 1+1+2 = 2+2 = ... shapes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .poly import UPoly
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


def _det(mat):
    """Exact determinant of a square Fraction matrix."""
    m = [row[:] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                fac = m[r][c] * inv
                m[r] = [a - fac * b for a, b in zip(m[r], m[c])]
    return det


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


class _PowerBasisElem:
    """Shared arithmetic for elements written in the power basis of a
    monic defining polynomial (number field or etale algebra)."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != parent.degree:
            raise ValueError("coordinate vector has wrong length")
        self.parent = parent
        self.coords = coords

    def _make(self, coords):
        return type(self)(self.parent, coords)

    def as_upoly(self) -> UPoly:
        return UPoly(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, _PowerBasisElem):
            return self.parent is other.parent and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self == self._from_scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.parent), self.coords))

    def _from_scalar(self, c):
        coords = [Fraction(c)] + [Fraction(0)] * (self.parent.degree - 1)
        return self._make(coords)

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
        return self._make([a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return self._make([-a for a in self.coords])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make([a - b for a, b in zip(self.coords, o.coords)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._make([a * other for a in self.coords])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        deg = self.parent.degree
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        prod[i + j] += a * b
        # Reduce powers >= deg using the cached power table.
        table = self.parent._power_table
        out = prod[:deg]
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                row = table[k - deg]
                for i in range(deg):
                    out[i] += c * row[i]
        return self._make(out)

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
        """Multiplicative inverse via extended Euclid mod the defining poly."""
        f = self.parent.monic_poly
        a = self.as_upoly()
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # Extended Euclid: u*a + v*f = g.
        r0, r1 = f, a
        s0, s1 = UPoly([]), UPoly([1])
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            self.parent._raise_zero_divisor(a, r0)
        inv = s0 * (1 / r0.coeffs[0])
        inv = inv % f
        return self._make([inv[i] for i in range(self.parent.degree)])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self._make([a / other for a in self.coords])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._from_scalar(other) / self

    def denominator_lcm(self) -> int:
        return lcm(*(c.denominator for c in self.coords))

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

    def norm(self) -> Fraction:
        """Determinant of the multiplication-by-self map."""
        deg = self.parent.degree
        # Matrix whose i-th column is self * basis_i.
        mat = []
        basis_imgs = []
        for i in range(deg):
            e = [Fraction(0)] * deg
            e[i] = Fraction(1)
            basis_imgs.append((self * self._make(e)).coords)
        for r in range(deg):
            mat.append([basis_imgs[c][r] for c in range(deg)])
        return _det(mat)

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
    """Q[x]/(minpoly) for a monic irreducible minpoly of degree <= 4."""

    def __init__(self, minpoly: UPoly, gen_name: str = "a", check=True):
        minpoly = minpoly.monic()
        if check:
            factors = factor_deg_le4(minpoly)
            if len(factors) != 1 or factors[0][1] != 1:
                raise ValueError("defining polynomial is not irreducible")
        self.minpoly = minpoly
        self.monic_poly = minpoly
        self.degree = minpoly.degree
        self._disc = minpoly.discriminant()
        self.gen_name = gen_name
        self._power_table = _build_power_table(minpoly)

    def _raise_zero_divisor(self, a, g):  # pragma: no cover - fields have none
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

    def from_upoly(self, p: UPoly) -> "NfElem":
        p = p % self.monic_poly
        return NfElem(self, [p[i] for i in range(self.degree)])

    def discriminant(self) -> Fraction:
        """disc(minpoly), an invariant of the field fixed at construction."""
        return self._disc

    def __repr__(self):
        return f"NumberField({self.minpoly!r}, {self.gen_name})"


class NfElem(_PowerBasisElem):
    """Element of a NumberField in the power basis 1, a, a^2, a^3."""

    def minimal_polynomial(self) -> UPoly:
        """Minimal polynomial over Q (degree divides the field degree)."""
        # Characteristic polynomial via resultant, then squarefree root.
        # char(x) = Res_y(minpoly(y), x - elem(y)).
        deg = self.parent.degree
        # Compute powers 1, e, e^2, ..., e^deg and find the first linear relation.
        rows = []
        acc = self._from_scalar(1)
        for k in range(deg + 1):
            rows.append(list(acc.coords))
            if k < deg:
                acc = acc * self
        # Solve for minimal monic relation among rows[0..m].
        for m in range(1, deg + 1):
            # rows[m] = sum_{i<m} c_i rows[i]?
            sol = _solve_linear([rows[i] for i in range(m)], rows[m])
            if sol is not None:
                return UPoly([-c for c in sol] + [1])
        raise AssertionError("no minimal polynomial found")


def _solve_linear(basis_rows, target):
    """Solve sum c_i basis_rows[i] = target over Q; None if unsolvable."""
    m = len(basis_rows)
    n = len(target)
    aug = [[basis_rows[r][c] for r in range(m)] + [target[c]] for c in range(n)]
    piv_cols = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, n) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [a * inv for a in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        piv_cols.append(col)
        row += 1
    sol = [Fraction(0)] * m
    for r in range(row, n):
        if aug[r][m]:
            return None
    for r, col in enumerate(piv_cols):
        sol[col] = aug[r][m]
    return sol


def _build_power_table(monic: UPoly):
    """Coordinates of x^deg, ..., x^(2deg-2) modulo monic."""
    deg = monic.degree
    table = []
    p = UPoly.x_power(deg) % monic
    for _ in range(deg - 1):
        table.append([p[i] for i in range(deg)])
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
    """Q[x]/(f) for a squarefree f of degree 4, split into components.

    Components are the irreducible factors of f: rational ones carry the
    root itself, higher-degree ones a NumberField.  Component order is
    deterministic: linear factors first with roots descending (so the
    eq-5 algebra gets m1(theta) = 0, m2(theta) = -2 as in the source
    tables), then by degree and coefficients.
    """

    def __init__(self, defining: UPoly, gen_name: str = "t"):
        if defining.degree != 4:
            raise ValueError("etale algebras here are quartic")
        self.defining = defining
        self.leading = defining.leading
        self.monic_poly = defining.monic()
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
        self.component_polys = linear + rest
        self.components = []
        for idx, h in enumerate(self.component_polys):
            if h.degree == 1:
                self.components.append(("Q", -h[0]))
            else:
                field = NumberField(h, gen_name=f"{gen_name}{idx}", check=False)
                self.components.append(("field", field))
        self._power_table = _build_power_table(self.monic_poly)

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

    def component_map(self, i: int, elem: "AlgElem"):
        """m_i: image of elem in the i-th component (Fraction or NfElem)."""
        kind, data = self.components[i]
        p = elem.as_upoly()
        if kind == "Q":
            return p(data)
        field = data
        return field.from_upoly(p)

    def component_images(self, elem: "AlgElem"):
        return [self.component_map(i, elem) for i in range(self.n_components)]

    def _raise_zero_divisor(self, a: UPoly, g: UPoly):
        vanishing = []
        for i, h in enumerate(self.component_polys):
            if (g % h).is_zero():
                vanishing.append(i)
        raise ZeroDivisorError(vanishing)

    def __repr__(self):
        shape = "+".join(str(h.degree) for h in self.component_polys)
        return f"EtaleAlgebra({self.defining!r}, shape {shape})"


class AlgElem(_PowerBasisElem):
    """Element of an EtaleAlgebra in the power basis 1, t, t^2, t^3."""

    def norm(self) -> Fraction:
        """Product of the component norms (= det of multiplication map)."""
        total = Fraction(1)
        alg = self.parent
        for i, (kind, data) in enumerate(alg.components):
            img = alg.component_map(i, self)
            total *= img if kind == "Q" else img.norm()
        return total

    def norm_resultant(self) -> Fraction:
        """Independent route: Res(monic f, elem poly) = prod elem(root)."""
        a = self.as_upoly()
        if a.is_zero():
            return Fraction(0)
        return self.parent.monic_poly.resultant(a)

    def scale_to_integral(self) -> "AlgElem":
        """Multiply by the cube of a rational to clear denominators and
        cube content; canonical class representative for display."""
        d = self.denominator_lcm()
        e = self * Fraction(d**3, 1)
        # Remove cube content of the integer coordinate gcd.
        from math import gcd
        g = 0
        for c in e.coords:
            g = gcd(g, c.numerator)
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
