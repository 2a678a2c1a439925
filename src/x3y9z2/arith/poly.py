"""Polynomials: univariate over Q (UPoly) and multivariate over a
generic coefficient ring (MPoly).

UPoly is the workhorse for minimal polynomials and factorization.
MPoly is deliberately ring-generic: the same code manipulates cubic
forms over Q, over a number field, or with p-adic coefficients, as long
as the coefficients support +, -, * and truth-testing (zero is falsy).
Integer forms of degree <= 3 in four variables also have a dense layout
(`dense_table`), which the descent construction and the local search
share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _frac(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class UPoly:
    """Univariate polynomial over Q, coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x_power(cls, n, c=1):
        return cls([0] * n + [c])

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __getitem__(self, i) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly([other])
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            c = _frac(other)
            return UPoly([a * c for a in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return UPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = UPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "UPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = UPoly([])
        r = self
        d = other.degree
        lc = other.leading
        while not r.is_zero() and r.degree >= d:
            shift = r.degree - d
            factor = r.leading / lc
            t = UPoly.x_power(shift, factor)
            q = q + t
            r = r - t * other
        return q, r

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        lc = self.leading
        return UPoly([c / lc for c in self.coeffs])

    def gcd(self, other: "UPoly") -> "UPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "UPoly":
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; x may live in any ring accepting Fraction
        coefficients via * and +."""
        if not self.coeffs:
            return 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        # Degree-0 edge case: force the result into x's ring.
        if len(self.coeffs) == 1 and not isinstance(x, (int, Fraction)):
            return x * 0 + self.coeffs[0]
        return acc

    def shift_x(self, a) -> "UPoly":
        """p(x + a) by synthetic division."""
        a = _frac(a)
        cs = list(self.coeffs)
        n = len(cs)
        for i in range(1, n):
            for j in range(n - 1, i - 1, -1):
                cs[j - 1] += a * cs[j]
        return UPoly(cs)

    def integer_coeffs(self):
        """Coefficients scaled to content-1 integers (primitive part)."""
        if not self.coeffs:
            return []
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, c)
        return [c // g for c in ints]

    def __repr__(self):
        if not self.coeffs:
            return "UPoly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "UPoly(" + " + ".join(terms).replace("+ -", "- ") + ")"


class MPoly:
    """Multivariate polynomial: {exponent tuple: coefficient}.

    Coefficients live in any commutative ring whose elements support
    +, -, *, truthiness, and multiplication by int.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        t = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    e = tuple(e)
                    if e in t:
                        s = t[e] + c
                        if s:
                            t[e] = s
                        else:
                            del t[e]
                    else:
                        t[e] = c
        self.terms = t

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return self + MPoly.constant(self.nvars, other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            if e in merged:
                s = merged[e] + c
                if s:
                    merged[e] = s
                else:
                    del merged[e]
            else:
                merged[e] = c
        out = MPoly(self.nvars)
        out.terms = merged
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if not other:
                return MPoly(self.nvars)
            out = MPoly(self.nvars)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in acc:
                    s = acc[e] + c
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
                elif c:
                    acc[e] = c
        out = MPoly(self.nvars)
        out.terms = acc
        return out

    def __rmul__(self, other):
        if not other:
            return MPoly(self.nvars)
        out = MPoly(self.nvars)
        out.terms = {e: other * c for e, c in self.terms.items()}
        return out

    def __pow__(self, n: int):
        result = MPoly.constant(self.nvars, Fraction(1))
        if self.terms:
            some_c = next(iter(self.terms.values()))
            result = MPoly.constant(self.nvars, some_c * 0 + 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __call__(self, args):
        """Evaluate at a tuple of ring elements (or Fractions)."""
        if len(args) != self.nvars:
            raise ValueError("wrong number of arguments")
        total = None
        for e, c in self.terms.items():
            term = c
            for x, k in zip(args, e):
                for _ in range(k):
                    term = term * x
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def partial(self, i):
        """Partial derivative with respect to variable i."""
        return MPoly(self.nvars, _partial(self.terms, i))

    def substitute_linear(self, matrix):
        """Compose with the linear change of variables x_i = sum_j M[i][j] y_j."""
        lin = []
        for i in range(self.nvars):
            form = MPoly(self.nvars)
            for j in range(self.nvars):
                if matrix[i][j]:
                    form = form + MPoly(self.nvars, {tuple(1 if k == j else 0 for k in range(self.nvars)): matrix[i][j]})
            lin.append(form)
        return self(lin)

    def map_coeffs(self, fn, nvars=None):
        out = MPoly(nvars if nvars is not None else self.nvars)
        out.terms = {e: v for e, c in self.terms.items() if (v := fn(c))}
        return out

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        names = "xyzw" if self.nvars <= 4 else None
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                (names[i] if names else f"x{i}") + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k
            )
            parts.append(f"({c})" + ("*" + mono if mono else ""))
        return "MPoly(" + " + ".join(parts) + ")"


def binary_form_divide(num: MPoly, den: MPoly):
    """Exact division of binary forms (2 variables); raises if not exact."""
    if num.nvars != 2 or den.nvars != 2:
        raise ValueError("binary forms only")
    q = MPoly(2)
    r = num
    # Divide by leading term in lex order (s before t).
    dlead = max(den.terms)
    dc = den.terms[dlead]
    while r.terms:
        rlead = max(r.terms)
        e = tuple(a - b for a, b in zip(rlead, dlead))
        if any(k < 0 for k in e):
            raise ValueError("division not exact")
        coeff = r.terms[rlead] * _inv_ring(dc)
        t = MPoly(2, {e: coeff})
        q = q + t
        r = r - t * den
    return q


def _inv_ring(c):
    if isinstance(c, (int, Fraction)):
        return Fraction(1) / Fraction(c)
    return c.inverse()


# -- dense forms in y0..y3 -------------------------------------------------
# A form of degree d <= 3 in y0..y3 as one coefficient per monomial, in the
# order of `monomials`: the local solubility search evaluates forms as dot
# products with such lists.


def monomials(vec):
    """Values at vec of the monomials of degrees 0..3 in y0..y3, one list
    per degree.  Degree d + 1 is grouped by last variable k: group k is
    each degree-d monomial in y0..yk, in its own order, times yk."""
    y0, y1, y2, y3 = vec
    q00, q01, q11, q02, q12, q22, q03, q13, q23, q33 = quad = [
        y0 * y0, y0 * y1, y1 * y1, y0 * y2, y1 * y2, y2 * y2,
        y0 * y3, y1 * y3, y2 * y3, y3 * y3]
    cubic = [q00 * y0,
             q00 * y1, q01 * y1, q11 * y1,
             q00 * y2, q01 * y2, q11 * y2, q02 * y2, q12 * y2, q22 * y2,
             q00 * y3, q01 * y3, q11 * y3, q02 * y3, q12 * y3, q22 * y3,
             q03 * y3, q13 * y3, q23 * y3, q33 * y3]
    return [[1], [y0, y1, y2, y3], quad, cubic]


# The exponent tuple of each monomial of `monomials`, one list per degree,
# by the same grouping rule, and each one's position in its list.
MONOMIAL_EXPONENTS = [[(0, 0, 0, 0)]]
for _ in range(3):
    MONOMIAL_EXPONENTS.append([e[:k] + (e[k] + 1,) + e[k + 1:] for k in range(4)
                               for e in MONOMIAL_EXPONENTS[-1] if not any(e[k + 1:])])
_POSITION = [{e: i for i, e in enumerate(level)} for level in MONOMIAL_EXPONENTS]

# Index pairs a <= b in the order of the degree-2 monomials of `monomials`.
PAIRS = [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3), (3, 3)]


def _dense(form, degree):
    """{expo: coeff} of the given degree -> coefficient list in `monomials` order."""
    coeffs = [0] * len(_POSITION[degree])
    for e, coeff in form.items():
        coeffs[_POSITION[degree][e]] = coeff
    return coeffs


def _partial(form, var):
    """The partial derivative of {expo: coeff} along variable var."""
    return {e[:var] + (e[var] - 1,) + e[var + 1:]: c * e[var]
            for e, c in form.items() if e[var]}


def dense_table(form, degree):
    """A form {expo: coeff} of the given degree 1 to 3 in y0..y3 as one flat
    list: its dense coefficients, then its four partials' and then its ten
    second partials' (PAIRS order), each in `monomials` order.  The list is
    linear in the form."""
    firsts = [_partial(form, v) for v in range(4)]
    out = _dense(form, degree)
    for g in firsts:
        out += _dense(g, degree - 1)
    for a, b in PAIRS:
        out += _dense(_partial(firsts[a], b), max(degree - 2, 0))
    return out
