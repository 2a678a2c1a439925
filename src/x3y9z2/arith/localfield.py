"""Unramified p-adic rings Z_q = Z_p[w]/(h) to precision p^N, and the
finite fields F_q = Z_q/p as the same ring at N = 1.

An element is a tuple of d ints, its coordinates in the power basis of
a monic modulus h of degree d (d = 1 recovers Z_p and F_p, which keeps
the calling code uniform across split, inert and mixed primes).  One
ring type, ZqRing, serves both: its methods multiply, invert, raise to
powers and embed on such tuples, and FqField is Z_q at N = 1 plus its
size q and the enumeration of its elements.  Everything is exact
modulo p^N.

A quartic over F_p (K's, naming the primes of K above p) is factored one
way: distinct-degree parts, each split by Cantor-Zassenhaus ("A new
algorithm for factoring polynomials over finite fields", Math. Comp. 36
(1981); Cohen, GTM 138, 3.4).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product

from .rationals import valuation

# -- products on coordinate tuples ---------------------------------------


def _fqmul(u, v, h, m):
    """Product of two coordinate tuples in (Z/m)[w]/(h), h monic of degree
    d = len(u).  Written out for d <= 2, the residue degrees the pipeline
    reaches: for d = 2, (a + b w)(c + e w) = (ac - h0 be) + (ae + bc - h1 be) w.
    Otherwise a schoolbook product into 2d - 1 integer slots, reduced from
    the top down by w^d = -(h_0 + ... + h_(d-1) w^(d-1)), with one final
    reduction mod m."""
    d = len(u)
    if d == 1:
        return (u[0] * v[0] % m,)
    if d == 2:
        (a, b), (c, e) = u, v
        be = b * e
        return ((a * c - h[0] * be) % m, (a * e + b * c - h[1] * be) % m)
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
    return tuple(c % m for c in out[:d])


def _fqpow(u, e, h, m):
    """u^e (e >= 0) in (Z/m)[w]/(h) by square-and-multiply on tuples."""
    out = (1,) + (0,) * (len(u) - 1)
    while e:
        if e & 1:
            out = _fqmul(out, u, h, m)
        e >>= 1
        if e:
            u = _fqmul(u, u, h, m)
    return out


def _fqinv(u, h, p):
    """u^-1 in F_p[w]/(h), h monic and irreducible mod p of degree d = len(u),
    u and h given mod a power of p, as v / n with one inverse mod p of the
    integer n: n = u for d = 1; for d = 2, u = a + b w and h = w^2 + h1 w + h0,
    v = (a - b h1) - b w and n = a^2 - a b h1 + b^2 h0, the norm of u; else
    the extended Euclidean algorithm on (h, u) over F_p, keeping t with
    t u = b mod h (Cohen, GTM 138, 3.2).  ZeroDivisionError when u = 0 mod p."""
    d = len(u)
    if d == 1:
        n, v = u[0], (1,)
    elif d == 2:
        (a, b), (h0, h1) = u, h[:2]
        n, v = a * a - a * b * h1 + b * b * h0, (a - b * h1, -b)
    else:
        b = [c % p for c in u]
        while b and not b[-1]:
            b.pop()
        a, s, t = h, (0,) * d, (1,) + (0,) * (d - 1)
        while len(b) > 1:
            q, r = _poldivmod(a, b, p)
            qt = _fqmul(tuple(q) + (0,) * (d - len(q)), t, h, p)
            a, b, s, t = b, r, t, tuple((x - y) % p for x, y in zip(s, qt))
        n, v = (b[0] if b else 0), t
    if n % p == 0:
        raise ZeroDivisionError(f"{list(u)} is not invertible mod {p}, {list(h)}")
    c = pow(n, -1, p)
    return tuple(x * c % p for x in v)


def _make_monic(v, p):
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    if not v:
        return v
    inv = pow(v[-1], -1, p)
    return [c * inv % p for c in v]


def _polgcd(a, b, p):
    """The monic gcd of two polynomials over F_p (b trimmed)."""
    while b:
        a, b = b, _poldivmod(a, b, p)[1]
    return _make_monic(a, p)


def _distinct_degree_parts(f, p, degree_cap):
    """([g_1, g_2, ...], rest) for a monic f over F_p: while d <= degree_cap
    and 2d <= deg(rest), g_d = gcd(rest, x^(p^d) - x), the product of f's
    irreducible factors of degree d, is divided out of rest.  When
    2d > deg(rest) ends the loop, rest has no factor of degree < d, so on
    a squarefree f it is irreducible (or 1)."""
    parts, rest, d, xq = [], f, 1, [0, 1]        # xq = x^(p^(d-1)) mod rest
    while d <= degree_cap and 2 * d <= len(rest) - 1:
        xq = _poldivmod(xq, rest, p)[1]
        xq = _fqpow(tuple(xq) + (0,) * (len(rest) - 1 - len(xq)), p, rest, p)
        g = _polgcd(rest, _poldivmod([xq[0], xq[1] - 1, *xq[2:]], rest, p)[1], p)
        parts.append(g)
        rest, d = _poldivmod(rest, g, p)[0], d + 1
    return parts, rest


def _equal_degree_split(g, d, p):
    """The factors of g, a monic product of distinct irreducibles of degree
    d over F_p (p odd), by gcd(g, (x + a)^((p^d - 1)/2) - 1) for the first
    a = 0, 1, ... that splits g.  For d <= 2 one does: at a root of a factor
    h this is the quadratic character of h(-a), and by the Weil bound two
    factors can agree at every a only for p < 11, where enumeration shows
    they never do."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    for a in range(p):
        t = _fqpow((a, 1) + (0,) * (n - 2), e, g, p)
        u = _polgcd(g, _poldivmod([t[0] - 1, *t[1:]], g, p)[1], p)
        if 0 < len(u) - 1 < n:
            return (_equal_degree_split(u, d, p)
                    + _equal_degree_split(_poldivmod(g, u, p)[0], d, p))
    raise ArithmeticError(f"no x + a splits {g} mod {p}")


def factor_quartic_mod_p(coeffs, p, degree_cap=4):
    """The monic irreducible factors mod p, of degree <= degree_cap, of an
    integer polynomial f of degree <= 4, sorted by (degree, coefficients).
    Contract: p is odd and f is squarefree mod p (true at every odd p not
    dividing disc(f)); ValueError otherwise."""
    if p == 2:
        raise ValueError("factor_quartic_mod_p needs an odd p")
    f = _make_monic([c % p for c in coeffs], p)
    df = _make_monic([i * c % p for i, c in enumerate(f)][1:], p)
    if len(_polgcd(f, df, p)) != 1:
        raise ValueError(f"{list(coeffs)} is not squarefree mod {p}")
    parts, rest = _distinct_degree_parts(f, p, degree_cap)
    factors = [h for d, g in enumerate(parts, 1) if len(g) > 1
               for h in _equal_degree_split(g, d, p)]
    if 1 < len(rest) <= degree_cap + 1:
        factors.append(rest)
    return sorted(factors, key=lambda g: (len(g), g))


def residue_degrees(coeffs, p):
    """Sorted degrees of the irreducible factors mod p of a polynomial of
    degree <= 4, read from its distinct-degree parts without splitting
    them: deg g_d / d factors of degree d, and one factor for a
    nonconstant rest.  Exact when p does not divide disc(f)."""
    parts, rest = _distinct_degree_parts(_make_monic([c % p for c in coeffs], p), p, 4)
    degrees = [d for d, g in enumerate(parts, 1) for _ in range((len(g) - 1) // d)]
    return tuple(degrees + [len(rest) - 1] * (len(rest) > 1))


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


# -- unramified p-adic rings and their residue fields ----------------------


class ZqRing:
    """Z_q = Z_p[w]/(h) to fixed absolute precision p^N (h monic, deg d;
    h irreducible mod p so Z_q is an unramified extension ring).  An
    element is a tuple of d ints in [0, p^N); the ring's methods take
    and return such tuples, and a sum or difference is one elem() call
    on the coordinate-wise sums."""

    def __init__(self, p: int, modulus, prec: int):
        self.p = p
        self.N = prec
        self.mod = p**prec
        self.h = [c % self.mod for c in modulus]
        if self.h[-1] != 1:
            raise ValueError(f"modulus {list(modulus)} is not monic mod {p}^{prec}")
        self.d = len(self.h) - 1

    def elem(self, coords):
        """The element with these coordinates, an int being a constant."""
        if isinstance(coords, int):
            coords = (coords,)
        m = self.mod
        return tuple(c % m for c in coords[:self.d]) + (0,) * (self.d - len(coords))

    def zero(self):
        return (0,) * self.d

    def one(self):
        return (1,) + (0,) * (self.d - 1)

    def gen(self):
        if self.d == 1:
            return ((-self.h[0]) % self.mod,)
        return (0, 1) + (0,) * (self.d - 2)

    def mul(self, u, v):
        return _fqmul(u, v, self.h, self.mod)

    def pow(self, u, e: int):
        """u^e for e >= 0."""
        return _fqpow(u, e, self.h, self.mod)

    def inv(self, u):
        """u^-1: _fqinv's inverse mod p, Newton-lifted by x -> x (2 - u x)
        to p^N; ZeroDivisionError when u is not a unit."""
        x = _fqinv(u, self.h, self.p)
        if self.N == 1:
            return x
        for _ in range(self.N.bit_length() + 2):
            ux = self.mul(u, x)
            e = self.mul(x, (2 - ux[0],) + tuple(-c for c in ux[1:]))
            if e == x:
                break
            x = e
        if self.mul(u, x) != self.one():
            raise AssertionError("Zq inversion failed")
        return x

    def val(self, u) -> int:
        """min_i v_p(u_i); N if u is zero at this precision."""
        return min((valuation(c, self.p) for c in u if c), default=self.N)

    def poly_value(self, ints, x):
        """sum ints[i] x^i for integers ints, by Horner's rule."""
        acc = self.zero()
        for c in reversed(ints):
            acc = self.mul(acc, x)
            acc = (acc[0] + c,) + acc[1:]
        return self.elem(acc)

    def from_fraction(self, x):
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return self.elem(x.numerator * pow(x.denominator, -1, self.mod))

    def from_nf(self, elem):
        """Image of a number-field element under generator -> gen()."""
        return self.mul(self.poly_value(elem.num, self.gen()),
                        self.from_fraction(Fraction(1, elem.den)))

    @cached_property
    def residue_field(self) -> "FqField":
        return FqField(self.p, self.h)

    def teich_lift_root(self, residue_root, poly_ints):
        """Hensel-lift a simple residue root of an integer polynomial."""
        x = self.elem(residue_root)
        dpoly = [i * c for i, c in enumerate(poly_ints)][1:]
        for _ in range(self.N.bit_length() + 2):
            fx = self.poly_value(poly_ints, x)
            if not any(fx):
                break
            step = self.mul(fx, self.inv(self.poly_value(dpoly, x)))
            x = self.elem([a - b for a, b in zip(x, step)])
        if any(self.poly_value(poly_ints, x)):
            raise AssertionError("Hensel lift failed")
        return x

    def __repr__(self):
        return f"Zq(p={self.p}, d={self.d}, N={self.N})"


class FqField(ZqRing):
    """F_q = F_p[w]/(h), the ring Z_q at precision 1; h monic irreducible
    mod p of degree d (d = 1: h = [0, 1])."""

    def __init__(self, p: int, modulus=None):
        super().__init__(p, modulus or [0, 1], 1)
        self.q = p**self.d

    def elements(self):
        """Every element, in itertools.product order of the coordinates."""
        return product(range(self.p), repeat=self.d)

    def __repr__(self):
        return f"F_{self.p}^{self.d}"
