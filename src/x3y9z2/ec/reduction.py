"""Reduction of curves and points over a number field K at unramified
rational primes, and the m-divisibility sieve on Mordell-Weil generators.

Only the order Z[alpha] is used: primes dividing disc(minpoly) are
refused, which is all the pipeline needs (11 and 31 pass the check).

A K-vector reaches a prime one way: NfPrime.primitive scales it by one
power of p into Z_q, with some entry a unit, and F_q is that image mod
p.  Points (x : y : 1) and the coefficients of the Chabauty function
psi both go through it, in reduce_point and chabauty.engine.PrimeContext.
Every image is a coordinate tuple of the prime's ZqRing or FqField.

A reduced curve is an FqCurve, whose group law runs on coordinate tuples
with the field's mul and inv: a point over F_q is None (O) or an affine
pair (x, y), its own dict key.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, product, repeat
from math import gcd, isqrt

from ..arith.localfield import FqField, ZqRing, factor_quartic_mod_p
from ..arith.numberfield import NfElem, NumberField
from ..arith.rationals import valuation
from .torsion import count_points_fp
from .weierstrass import EcPoint, WeierstrassCurve


class BadPrime(ValueError):
    """Ramified / index / bad-reduction prime refused by reduction."""


class NfPrime:
    """A prime of Z[alpha] above p, described by an irreducible factor of
    the minimal polynomial mod p; residue field F_(p^d)."""

    def __init__(self, field: NumberField, p: int, factor_ints, idx: int):
        self.field = field
        self.p = p
        self.factor = list(factor_ints)
        self.degree = len(self.factor) - 1
        self.idx = idx
        self._fq = FqField(p, self.factor)
        self._zq_cache = {}

    def fq(self) -> FqField:
        return self._fq

    def zq(self, prec: int) -> ZqRing:
        if prec not in self._zq_cache:
            ring = ZqRing(self.p, self.factor, prec)
            f_ints = self.field.minpoly.integer_coeffs()
            root = ring.teich_lift_root(self._fq.gen(), f_ints)
            self._zq_cache[prec] = (ring, root)
        return self._zq_cache[prec]

    def residue(self, x: NfElem):
        """Image in F_q; BadPrime if x is not p-integral."""
        if x.den % self.p == 0:
            raise BadPrime(f"denominator divisible by {self.p}")
        return self._fq.from_nf(x)

    def embed(self, x: NfElem, prec: int):
        """(u, v): x = u * p^v with u a unit of Z_q exact to p^prec, or
        (0, prec) when x is zero modulo p^prec."""
        ring, _ = self.zq(prec)
        p = self.p
        vd = valuation(x.den, p)
        acc = self._image(x.num, prec + vd)
        vn = self.zq(prec + vd)[0].val(acc)
        if vn - vd >= prec:
            return ring.zero(), prec
        if vn > vd:
            # The unit of the numerator needs vn more digits, not vd.
            acc = self._image(x.num, prec + vn)
        pv = p**vn
        return ring.mul(ring.elem([c // pv for c in acc]),
                        ring.elem(pow(x.den // p**vd, -1, ring.mod))), vn - vd

    def _image(self, coords, prec: int):
        """sum coords[i] alpha^i in Z_q mod p^prec (integer coords)."""
        ring, root = self.zq(prec)
        return ring.poly_value(coords, root)

    def primitive(self, vec, prec: int):
        """vec (K-elements) times the one power of p that makes every
        entry integral at this prime and some entry a unit, as Z_q
        elements exact to p^prec (an entry that vanishes there is zero).
        BadPrime when every entry of vec is zero modulo p^prec.  This is
        the one map of a projective K-vector (a point, a function's
        coefficients) to Z_q, and mod p to F_q."""
        embedded = [self.embed(x, prec) for x in vec]
        shifts = [v for u, v in embedded if any(u)]
        if not shifts:
            raise BadPrime(f"vector vanishes at {self}")
        m = min(shifts)
        if m > 0:
            # Dividing by p^m: every entry is needed to p^(prec + m).
            embedded = [self.embed(x, prec + m) for x in vec]
        ring, _ = self.zq(prec)
        return [ring.elem([c * self.p ** (v - m) for c in u]) for u, v in embedded]

    def __repr__(self):
        return f"prime({self.p}, deg {self.degree}, {self.factor})"


@lru_cache(maxsize=None)
def primes_above(field: NumberField, p: int, degree_cap: int = 4):
    """The primes of Z[alpha] above p with residue degree <= degree_cap, as
    a tuple sorted by (degree, factor); BadPrime when p divides
    disc(minpoly), which every prime that ramifies in Z[alpha] does.  Each
    (field, p, degree_cap) is factored once per process: the curves over
    one field share their primes."""
    if field.discriminant().numerator % p == 0:
        raise BadPrime(f"{p} divides disc of the defining polynomial")
    factors = factor_quartic_mod_p(field.minpoly.integer_coeffs(), p, degree_cap)
    return tuple(NfPrime(field, p, fac, i) for i, fac in enumerate(factors))


class FqCurve:
    """y^2 = x^3 + a x + b over F_q = F_p[w]/(h), a and b coordinate
    tuples, with the field's mul and inv."""

    def __init__(self, fq: FqField, a, b):
        self.fq, self.p, self.a, self.b = fq, fq.p, tuple(a), tuple(b)

    def rhs(self, x):
        """x^3 + a x + b."""
        fmul = self.fq.mul
        return tuple(sum(t) % self.p for t in zip(fmul(fmul(x, x), x), fmul(self.a, x), self.b))

    def on_curve(self, P) -> bool:
        return P is None or self.fq.mul(P[1], P[1]) == self.rhs(P[0])

    def neg(self, P):
        return None if P is None else (P[0], tuple(-c % self.p for c in P[1]))

    def add(self, P, Q):
        """P + Q by the chord-tangent rule."""
        if P is None or Q is None:
            return Q if P is None else P
        (x1, y1), (x2, y2), p, fmul, finv = P, Q, self.p, self.fq.mul, self.fq.inv
        if x1 == x2:
            if y1 != y2 or not any(y1):
                return None
            num = tuple((3 * s + c) % p for s, c in zip(fmul(x1, x1), self.a))
            lam = fmul(num, finv(tuple(2 * c % p for c in y1)))
        else:
            lam = fmul(_fsub(y2, y1, p), finv(_fsub(x2, x1, p)))
        x3 = tuple((s - t - u) % p for s, t, u in zip(fmul(lam, lam), x1, x2))
        return x3, _fsub(fmul(lam, _fsub(x1, x3, p)), y1, p)

    def mul(self, n: int, P):
        """n P, doubling and adding from the top bit down."""
        if n < 0:
            n, P = -n, self.neg(P)
        acc = None
        for bit in bin(n)[2:]:
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, P)
        return acc

    def linear_form(self, c, P):
        """c0 Z + c1 X + c2 Y at P, with O = (0 : 1 : 0)."""
        if P is None:
            return c[2]
        fmul = self.fq.mul
        return tuple(sum(t) % self.p for t in zip(c[0], fmul(c[1], P[0]), fmul(c[2], P[1])))


def _fsub(u, v, p):
    return tuple((s - t) % p for s, t in zip(u, v))


def reduce_curve(curve: WeierstrassCurve, pr: NfPrime) -> FqCurve:
    fq = pr.fq()
    a, b = pr.residue(curve.a), pr.residue(curve.b)
    a3, b2 = fq.mul(fq.mul(a, a), a), fq.mul(b, b)
    if not any(-16 * (4 * s + 27 * t) % fq.p for s, t in zip(a3, b2)):
        raise BadPrime(f"bad reduction at {pr}")
    return FqCurve(fq, a, b)


def reduce_point(Ebar: FqCurve, P: EcPoint, pr: NfPrime):
    """Reduction is defined for every K-point: (x : y : 1) is made
    primitive at the prime, so a coordinate of negative valuation
    reduces to a point with Z = 0 (that is, to O).  primitive is exact,
    so precision p^1 gives the residues."""
    if P.is_zero():
        return None
    X, Y, Z = pr.primitive((*P.affine(), pr.field.one()), 1)
    if any(Z):
        fq = Ebar.fq
        zinv = fq.inv(Z)
        Pbar = (fq.mul(X, zinv), fq.mul(Y, zinv))
        if Ebar.on_curve(Pbar):
            return Pbar
    elif not any(X):
        return None
    raise BadPrime("reduced point not on reduced curve")


def curve_order_fq(Ebar: FqCurve) -> int:
    """#E(F_q), q = p^d, for y^2 = x^3 + a x + b with a = 0 or d = 1.

    Every curve the pipeline reduces has a = 0.  Then #E = q + 1 when
    q = 2 (mod 3), since x -> x^3 permutes F_q; count_points_fp counts it
    when d = 1; and when d >= 2 and q = 1 (mod 6), E is a sextic twist of
    E_1: y^2 = x^3 + 1 and #E = q + 1 - Tr(conj(u) pi^d), pi the Frobenius
    of E_1 over F_p in Z[omega] and u the unit of Z[omega] that reduces to
    b^((q-1)/6) (_sextic_twist_trace; Ireland-Rosen, GTM 84, ch. 18 §3 and
    the Hasse-Davenport relation, ch. 11 §4; Silverman, AEC X.5, on twists
    by Aut(E) = mu_6).  Any other curve, such as a != 0 at d >= 2, which
    the pipeline never reaches, is a ValueError.
    """
    fq = Ebar.fq
    p, d, q = fq.p, fq.d, fq.q
    a, b = Ebar.a, Ebar.b
    if not any(a) and q % 3 == 2:
        return q + 1
    if d == 1:
        return count_points_fp(a[0], b[0], p)
    if any(a) or q % 6 != 1:
        raise ValueError(f"no point count for y^2 = x^3 + {a} x + {b} over F_{q}")
    return q + 1 - _sextic_twist_trace(fq, b)


def _sextic_twist_trace(fq: FqField, b) -> int:
    """Tr(conj(u) pi^d), the trace of the q-Frobenius of E_b: y^2 = x^3 + b
    over F_q, q = p^d = 1 (mod 6).

    E_1: y^2 = x^3 + 1 is defined over F_p, with Frobenius pi of trace
    t = p + 1 - #E_1(F_p).  With beta^6 = b, (x, y) -> (x/beta^2, y/beta^3)
    maps E_b onto E_1 and carries the q-Frobenius of E_b to [chi] pi^d,
    chi = beta^(q-1) = b^((q-1)/6), where [z](x, y) = (z^2 x, z^3 y)
    multiplies the invariant differential dx/y by 1/z.  Reading an
    endomorphism by its action on dx/y maps Z[omega] to F_p and pi to 0;
    so [chi] is conj(u) for the unit u that maps to chi, and
    #E_b(F_q) = deg(1 - conj(u) pi^d) = q + 1 - Tr(conj(u) pi^d).
    - p = 1 (mod 3): E_1 is ordinary, 4p = t^2 + 3s^2, pi = A + B omega with
      A = (t + s)/2 and B = s (norm p, trace t), the map is omega -> -A/B
      mod p, and chi lies in mu_6 of F_p.
    - p = 2 (mod 3): E_1 is supersingular, t = 0, pi^2 = -p and d is even,
      so pi^d = (-p)^(d/2), and only the order of chi (1, 2, 3 or 6, for
      Tr(u) = 2, -2, -1 or 1) matters.
    ArithmeticError when chi is not in mu_6 (b = 0) or 4p - t^2 is not
    three times a square."""
    p, d = fq.p, fq.d
    chi = fq.pow(b, (fq.q - 1) // 6)
    if p % 3 == 2:
        one, minus_one, cube = fq.one(), fq.elem(-1), fq.pow(chi, 3)
        if cube not in (one, minus_one):
            raise ArithmeticError(f"b^((q-1)/6) = {chi} is not in mu_6 of F_{fq.q}")
        trace_u = 2 if chi == one else -2 if chi == minus_one else -1 if cube == one else 1
        return (-p) ** (d // 2) * trace_u
    t = p + 1 - count_points_fp(0, 1, p)
    s = isqrt((4 * p - t * t) // 3)
    if 3 * s * s != 4 * p - t * t:
        raise ArithmeticError(f"4p - t^2 is not three times a square at p = {p}, t = {t}")
    A, B = (t + s) // 2, s
    w = -A * pow(B, -1, p) % p
    # u = x + y omega over the six units 1, -1, omega, -omega, omega^2, -omega^2.
    u = next((e for e in ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))
              if fq.elem(e[0] + e[1] * w) == chi), None)
    if u is None:
        raise ArithmeticError(f"b^((q-1)/6) = {chi} is not in mu_6 of F_{p}")
    x, y = u[0] - u[1], -u[1]                       # conj(u), omega -> omega^2 = -1 - omega
    for _ in range(d):                              # times pi, omega^2 = -1 - omega
        x, y = x * A - y * B, x * B + y * A - y * B
    return 2 * x - y


def all_points_fq(Ebar: FqCurve):
    elements = list(product(range(Ebar.fq.p), repeat=Ebar.fq.d))
    roots = {}
    for y in elements:
        roots.setdefault(Ebar.fq.mul(y, y), []).append(y)
    return [None] + [(x, y) for x in elements for y in roots.get(Ebar.rhs(x), ())]


def non_divisibility_sieve(points, m: int, reductions):
    """Certify that <points> + torsion has index prime to m in E(K).

    reductions: iterable of (pr, Ebar, #E(F_q)), a prime pr of K of good
    reduction, E reduced there and its point count.  True when every
    nonzero e in (Z/m)^r has, at some supplied prime, sum(e_i P_i)
    outside m*E(F_q); otherwise returns the list of surviving vectors
    (the Inconclusive outcome — never silently converted to a success).
    The primes that removed a vector are listed as (p, idx).

    Rows are read lazily, up to the one that removes the last vector (none
    for r = 0).  Vectors are summed from tables k*Q_i, k < m: Q_i = (N/m)*P_i
    against {O} when gcd(m, N/m) = 1, else Q_i = P_i against m*E(F_q).
    """
    survivors = [e for e in product(range(m), repeat=len(points)) if any(e)]
    used = []
    if not survivors:
        return True, used
    for pr, Ebar, N in reductions:
        if N % m:  # then m*E(F_q) = E(F_q): no vector leaves
            continue
        red = [reduce_point(Ebar, P, pr) for P in points]
        if gcd(m, N // m) == 1:
            red, targets = [Ebar.mul(N // m, P) for P in red], {None}
        else:
            targets = {Ebar.mul(m, Q) for Q in all_points_fq(Ebar)}
        tables = [[None, *accumulate(repeat(P, m - 1), Ebar.add)] for P in red]
        still = [e for e in survivors
                 if reduce(Ebar.add, map(list.__getitem__, tables, e)) in targets]
        if len(still) < len(survivors):
            used.append((pr.p, pr.idx))
            survivors = still
            if not survivors:
                return True, used
    return survivors, used
