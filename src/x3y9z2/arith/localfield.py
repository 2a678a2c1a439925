"""Finite fields F_{p^d} and unramified p-adic rings Z_q = Z_p[w]/(h).

Elements are coefficient vectors in the power basis of a monic modulus
h of degree d (d = 1 recovers F_p and Z_p, which keeps the calling code
uniform across split, inert and mixed primes).  Everything is exact
modulo p resp. p^N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .rationals import valuation

# -- polynomial helpers over Z/m ---------------------------------------


def _polmul(a, b, m):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    while out and out[-1] == 0:
        out.pop()
    return out


def _polmod(a, h, m):
    a = [c % m for c in a]
    while a and a[-1] == 0:
        a.pop()
    dh = len(h) - 1
    inv_lead = pow(h[-1], -1, m)
    while len(a) - 1 >= dh:
        shift = len(a) - 1 - dh
        c = a[-1] * inv_lead % m
        for i, hc in enumerate(h):
            a[shift + i] = (a[shift + i] - c * hc) % m
        while a and a[-1] == 0:
            a.pop()
    return a


def _fqmul(u, v, h, p):
    """Product of two coordinate tuples in F_p[w]/(h), h monic of degree
    d = len(u): a schoolbook product into 2d - 1 integer slots, reduced
    from the top down by w^d = -(h_0 + ... + h_(d-1) w^(d-1)), with one
    final reduction mod p."""
    d = len(u)
    if d == 1:
        return (u[0] * v[0] % p,)
    out = [0] * (2 * d - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                out[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = out[k]
        if c:
            for i in range(d):
                out[k - d + i] -= c * h[i]
    return tuple(c % p for c in out[:d])


def _polpowmod(base, e, h, m):
    result = [1]
    base = _polmod(base, h, m)
    while e:
        if e & 1:
            result = _polmod(_polmul(result, base, m), h, m)
        base = _polmod(_polmul(base, base, m), h, m)
        e >>= 1
    return result


def _make_monic(v, p):
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    if not v:
        return v
    inv = pow(v[-1], -1, p)
    return [c * inv % p for c in v]


def poly_roots_mod_p(coeffs, p):
    """Roots in F_p of an integer-coefficient polynomial (brute scan)."""
    cs = [c % p for c in coeffs]
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def factor_quartic_mod_p(coeffs, p, degree_cap=4):
    """Factor a degree <= 4 integer polynomial mod p into monic
    irreducibles; returns a list of (coeff list, multiplicity).

    With degree_cap < 4, factors of larger degree are omitted (cheap
    root-only scans for large p); splitting a rootless quartic into two
    quadratics uses a distinct-degree test first, then a bounded scan.
    """
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    work = _make_monic(cs, p)
    factors = {}

    def record(f):
        key = tuple(f)
        factors[key] = factors.get(key, 0) + 1

    # Strip roots.
    changed = True
    while changed and len(work) > 1:
        changed = False
        for r in poly_roots_mod_p(work, p):
            lin = [(-r) % p, 1]
            q, rem = _poldivmod(work, lin, p)
            if not rem:
                record(lin)
                work = q
                changed = True
                break
    deg = len(work) - 1
    if deg <= 0 or degree_cap < 2 and deg >= 2:
        return sorted(((list(k), m) for k, m in factors.items()
                       if len(k) - 1 <= degree_cap),
                      key=lambda fm: (len(fm[0]), fm[0]))
    if deg == 1:
        record(work)
    elif deg == 2:
        record(work)
    elif deg == 3:
        record(work)  # no roots means irreducible for a cubic
    else:
        if _has_quadratic_factor(work, p):
            found = None
            for b in range(p):
                for c in range(p):
                    quad = [c, b, 1]
                    q, rem = _poldivmod(work, quad, p)
                    if not rem and not poly_roots_mod_p(quad, p):
                        found = (quad, q)
                        break
                if found:
                    break
            if found is None:
                raise AssertionError("distinct-degree test promised a quadratic factor")
            record(found[0])
            record(found[1])
        else:
            record(work)
    return sorted(((list(k), m) for k, m in factors.items()
                   if len(k) - 1 <= degree_cap),
                  key=lambda fm: (len(fm[0]), fm[0]))


def _has_quadratic_factor(work, p):
    """x^(p^2) = x (mod work, p) on a rootless squarefree quartic iff it
    splits into two irreducible quadratics (callers guarantee p does not
    divide the discriminant)."""
    xq = _polpowmod([0, 1], p * p, work, p)
    diff = list(xq)
    while len(diff) < 2:
        diff.append(0)
    diff[1] = (diff[1] - 1) % p
    while diff and diff[-1] == 0:
        diff.pop()
    return not diff


def quartic_is_irreducible_mod_p(coeffs, p) -> bool:
    """Irreducibility test for a squarefree quartic without splitting."""
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) - 1 != 4:
        return False
    if poly_roots_mod_p(cs, p):
        return False
    return not _has_quadratic_factor(_make_monic(cs, p), p)


def _poldivmod(a, b, p):
    a = [c % p for c in a]
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        c = a[-1] * inv % p
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
    while a and a[-1] == 0:
        a.pop()
    return q, a


# -- finite fields ------------------------------------------------------


class FqField:
    """F_{p^d} = F_p[w]/(h); h monic irreducible of degree d (d=1: h=[0,1])."""

    def __init__(self, p: int, modulus=None):
        self.p = p
        self.h = [c % p for c in (modulus or [0, 1])]
        if self.h[-1] != 1:
            raise ValueError(f"modulus {list(modulus)} is not monic mod {p}")
        self.d = len(self.h) - 1
        self.q = p**self.d
        if self.d == 1:
            # Normalize to x - r: elements are plain residues shifted by r.
            self.root = (-self.h[0]) % p

    def elem(self, coords) -> "FqElem":
        if isinstance(coords, int):
            coords = [coords] + [0] * (self.d - 1)
        coords = [c % self.p for c in coords]
        coords = coords[: self.d] + [0] * (self.d - len(coords))
        return FqElem(self, tuple(coords))

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def gen(self):
        if self.d == 1:
            return self.elem(self.root)
        return self.elem([0, 1] + [0] * (self.d - 2))

    def from_fraction(self, x) -> "FqElem":
        x = Fraction(x)
        num = x.numerator % self.p
        den = x.denominator % self.p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return self.elem(num * pow(den, -1, self.p))

    def from_nf(self, elem) -> "FqElem":
        """Image of a number-field element under generator -> gen()."""
        acc = self.zero()
        g = self.gen()
        for c in reversed(elem.num):
            acc = acc * g + self.elem(c)
        return acc * self.from_fraction(Fraction(1, elem.den))

    def elements(self):
        from itertools import product
        for coords in product(range(self.p), repeat=self.d):
            yield FqElem(self, tuple(coords))

    @cached_property
    def omega(self) -> "FqElem":
        """A fixed primitive cube root of unity: x^((q-1)/3) for the first
        element x in enumeration order where that is not 1 (q = 1 mod 3)."""
        e = (self.q - 1) // 3
        for x in self.elements():
            if x:
                t = x ** e
                if t != self.one():
                    return t
        raise ValueError("no primitive cube root of unity found")

    def __repr__(self):
        return f"F_{self.p}^{self.d}"


class FqElem:
    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, FqElem):
            return self.field is other.field and self.coords == other.coords
        if isinstance(other, int):
            return self == self.field.elem(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.d, self.coords))

    def _coerce(self, other):
        if isinstance(other, FqElem):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple(-a % p for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        return FqElem(f, _fqmul(self.coords, o.coords, f.h, f.p))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        f = self.field
        out = _polpowmod(list(self.coords), n, f.h, f.p)
        out = out + [0] * (f.d - len(out))
        return FqElem(f, tuple(out))

    def cube_character(self) -> int:
        """Exponent e in {0,1,2} with self^((q-1)/3) = omega^e; requires
        q = 1 mod 3 and self != 0."""
        q = self.field.q
        if q % 3 != 1:
            raise ValueError("residue field has no cubic character")
        t = self ** ((q - 1) // 3)
        if t == self.field.one():
            return 0
        return 1 if t == self.field.omega else 2

    def __repr__(self):
        return f"Fq({list(self.coords)})"


# -- unramified p-adic rings --------------------------------------------


class ZqRing:
    """Z_q = Z_p[w]/(h) to fixed absolute precision p^N (h monic, deg d;
    h irreducible mod p so Z_q is an unramified extension ring)."""

    def __init__(self, p: int, modulus, prec: int):
        self.p = p
        self.N = prec
        self.mod = p**prec
        self.h = [c % self.mod for c in modulus]
        if self.h[-1] != 1:
            raise ValueError(f"modulus {list(modulus)} is not monic mod {p}^{prec}")
        self.d = len(self.h) - 1

    def elem(self, coords) -> "ZqElem":
        if isinstance(coords, int):
            coords = [coords] + [0] * (self.d - 1)
        coords = [c % self.mod for c in coords]
        coords = coords[: self.d] + [0] * (self.d - len(coords))
        return ZqElem(self, tuple(coords))

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def gen(self) -> "ZqElem":
        if self.d == 1:
            return self.elem((-self.h[0]) % self.mod)
        return self.elem([0, 1] + [0] * (self.d - 2))

    def from_fraction(self, x) -> "ZqElem":
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return self.elem(x.numerator * pow(x.denominator, -1, self.mod))

    def from_nf(self, elem) -> "ZqElem":
        acc = self.zero()
        g = self.gen()
        for c in reversed(elem.num):
            acc = acc * g + self.elem(c)
        return acc * self.from_fraction(Fraction(1, elem.den))

    def residue_field(self) -> FqField:
        return FqField(self.p, [c % self.p for c in self.h])

    def reduce(self, elem: "ZqElem") -> FqElem:
        fq = self.residue_field()
        return fq.elem([c % self.p for c in elem.coords])

    def teich_lift_root(self, residue_root: FqElem, poly_ints) -> "ZqElem":
        """Hensel-lift a simple residue root of an integer polynomial."""
        x = self.elem(list(residue_root.coords))
        dpoly = [i * c for i, c in enumerate(poly_ints)][1:]
        for _ in range(self.N.bit_length() + 2):
            fx = _zq_eval_ints(poly_ints, x)
            if not fx:
                break
            dfx = _zq_eval_ints(dpoly, x)
            x = x - fx * dfx.inverse()
        if _zq_eval_ints(poly_ints, x):
            raise AssertionError("Hensel lift failed")
        return x

    def __repr__(self):
        return f"Zq(p={self.p}, d={self.d}, N={self.N})"


def _zq_eval_ints(ints, x: "ZqElem") -> "ZqElem":
    acc = x.ring.zero()
    for c in reversed(ints):
        acc = acc * x + x.ring.elem(c)
    return acc


class ZqElem:
    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = coords

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, ZqElem):
            return self.ring is other.ring and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self == self.ring.from_fraction(other)
        return NotImplemented

    def _coerce(self, other):
        if isinstance(other, ZqElem):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.ring.mod
        return ZqElem(self.ring, tuple((a + b) % m for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        m = self.ring.mod
        return ZqElem(self.ring, tuple(-a % m for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self.ring
        prod = _polmod(_polmul(list(self.coords), list(o.coords), r.mod), r.h, r.mod)
        prod = prod + [0] * (r.d - len(prod))
        return ZqElem(r, tuple(prod))

    __rmul__ = __mul__

    def valuation(self) -> int:
        """min_i v_p(c_i); N if zero at precision (unramified basis)."""
        if not any(self.coords):
            return self.ring.N
        return min(valuation(c, self.ring.p) for c in self.coords if c)

    def unit_part(self):
        """(self / p^v, v)."""
        v = self.valuation()
        if v == 0:
            return self, 0
        if v >= self.ring.N:
            return self.ring.zero(), self.ring.N
        pk = self.ring.p**v
        return ZqElem(self.ring, tuple(c // pk for c in self.coords)), v

    def inverse(self):
        if self.valuation() != 0:
            raise ZeroDivisionError("inverse of a non-unit in Zq")
        r = self.ring
        # Invert in the residue field, then Newton-lift: x -> x(2 - a x).
        fq = r.residue_field()
        inv0 = fq.elem([c % r.p for c in self.coords]).inverse()
        x = r.elem(list(inv0.coords))
        for _ in range(r.N.bit_length() + 2):
            e = x * (r.elem(2) - self * x)
            if e == x:
                break
            x = e
        if self * x != r.one():
            raise AssertionError("Zq inversion failed")
        return x

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return f"Zq({list(self.coords)} mod {self.ring.p}^{self.ring.N})"
