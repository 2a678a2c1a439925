"""The Chabauty/sieve engine.

Given E/K: y^2 = x^3 + c with trusted generators of a finite-index
subgroup, and the degree-3 map psi = s/t : E -> P^1 defined over K,
determine every point of E(K) with psi-value in P^1(Q).

Residue classes of the generator lattice modulo simultaneous reduction
at all primes above p survive only if a single P^1(F_p)-value is
compatible with psi's reduction at every completion (coordinates above
the constant one must vanish for residue degree > 1, and the rational
values must agree across primes).  Surviving classes are then closed
p-adically.  Inside a class R0 + sum n_i B_i (B_i the lattice basis) the
rationality equations have the Newton form H(n) = sum_e Delta^e H(0)
C(n, e), whose differences of order j carry valuation >= j.  A
nondegenerate linear part pins at most one point, which must then be the
known one; a class with no known point is emptied when the form has no
zero modulo p^2, or else modulo p^3, or is left honestly unclosed.

Closing at p is sound only when the generators' index is prime to p and
to the primes dividing the local group orders.  That is certified by the
reduction sieve, which reads one table per curve: reductions_at(curve, q)
gives each prime of K above q with E reduced there and #E(F_q), computed
once per (curve, q) and read lazily, up to the row that certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from math import comb, lcm, prod

from ..arith.numberfield import NumberField
from ..arith.rationals import factorize, valuation
from ..arith.roots import small_primes
from ..ec.reduction import (BadPrime, curve_order_fq, non_divisibility_sieve,
                            primes_above, reduce_curve, reduce_point)
from ..ec.weierstrass import EcPoint, WeierstrassCurve
from ..param import STValue
from .series import PrecisionTooLow

DEFAULT_PRIMES = (11, 31)
DEFAULT_PREC = 30


class RankConditionViolated(Exception):
    pass


class CurveProblem(Exception):
    """Setup-level failure (torsion, isomorphism, or data trouble)."""


@dataclass
class RationalFunctionOnE:
    """psi(x, y) = (n0 + n1 x + n2 y) / (d0 + d1 x + d2 y) over K."""

    field: NumberField
    num: tuple
    den: tuple

    def value_pair(self, P: EcPoint):
        """Projective pair [num : den] at P (well-defined up to scaling)."""
        X, Y, Z = P.X, P.Y, P.Z
        n0, n1, n2 = self.num
        d0, d1, d2 = self.den
        return (n0 * Z + n1 * X + n2 * Y, d0 * Z + d1 * X + d2 * Y)

    def rational_value(self, P: EcPoint):
        """STValue if psi(P) lies in P^1(Q), else None."""
        num, den = self.value_pair(P)
        if not den:
            if not num:
                raise CurveProblem("psi undefined at a point")
            return STValue.infinity()
        ratio = num * den.inverse()
        if ratio.is_rational():
            return STValue(ratio.rational_value())
        return None

    def value_in_K(self, P: EcPoint):
        num, den = self.value_pair(P)
        if not den:
            return None
        return num * den.inverse()


# -- per-prime local data --------------------------------------------------


class PrimeContext:
    """Reduction and p-adic embedding data at one prime of K above p.

    row is (pr, Ebar, #E(F_q)), a row of the curve's reduction table.
    Every projective K-vector reaches the prime through pr.primitive:
    the generators as (x : y : 1) over Z_q and F_q, and psi's six
    coefficients [num : den], whose scale is free, as psi_q over Z_q
    and psi_bar = psi_q mod p over F_q.  b3 is 3b for E: y^2 = x^3 + b
    over Z_q, the one curve constant of the group law."""

    def __init__(self, row, curve: WeierstrassCurve,
                 psi: RationalFunctionOnE, gens, prec: int):
        pr, self.Ebar, self.order = row
        self.pr = pr
        self.p = pr.p
        self.gens = gens
        self.gens_bar = [reduce_point(self.Ebar, g, pr) for g in gens]
        self.ring, _ = pr.zq(prec)
        # reduce_curve refused a p in b's denominator, so v >= 0.
        b, v = pr.embed(curve.b, prec)
        self.b3 = self.ring.elem([3 * self.p**v * c for c in b])
        self.psi_q = tuple(pr.primitive(psi.num + psi.den, prec))
        self.psi_bar = tuple(tuple(c % self.p for c in u) for u in self.psi_q)

    def residue_value(self, P):
        """('inf', None) | ('val', a in F_p) | 'incompatible' | 'undefined'
        for psi_bar at P in E(F_q); a finite value is in F_p iff coords[1:] vanish."""
        E = self.Ebar
        num = E.linear_form(self.psi_bar[:3], P)
        den = E.linear_form(self.psi_bar[3:], P)
        if not any(den):
            return ("inf", None) if any(num) else "undefined"
        ratio = E.fq.mul(num, E.fq.inv(den))
        if any(ratio[1:]):
            return "incompatible"
        return ("val", ratio[0])

    def zero_point(self) -> "ZqPoint":
        ring = self.ring
        return ZqPoint(self, ring.zero(), ring.one(), ring.zero(), ring.N)

    @cached_property
    def gens_q(self):
        """The generators embedded over Z_q."""
        return [self.embed_point(g) for g in self.gens]

    def combination(self, nvec) -> "ZqPoint":
        """sum n_i g_i over Z_q."""
        acc = self.zero_point()
        for n, G in zip(nvec, self.gens_q):
            if n:
                acc = acc.add(G.mul(n))
        return acc

    def embed_point(self, P: EcPoint) -> "ZqPoint":
        if P.is_zero():
            return self.zero_point()
        X, Y, Z = self.pr.primitive((*P.affine(), self.pr.field.one()), self.ring.N)
        return ZqPoint(self, X, Y, Z, self.ring.N)


class ZqPoint:
    """Primitive projective point over Z_q with tracked reliable precision;
    X, Y and Z are coordinate tuples of ctx.ring."""

    __slots__ = ("ctx", "X", "Y", "Z", "known")

    def __init__(self, ctx, X, Y, Z, known):
        self.ctx = ctx
        self.X, self.Y, self.Z = X, Y, Z
        self.known = known
        if known <= 0:
            raise PrecisionTooLow("point has no reliable digits left")

    def add(self, other: "ZqPoint") -> "ZqPoint":
        """The complete projective sum for a = 0 (Renes-Costello-Batina,
        EUROCRYPT 2016, Alg. 7), divided by the largest p^m dividing every
        coordinate; that division costs m digits of known precision."""
        ctx = self.ctx
        ring = ctx.ring
        mul, b3, mod = ring.mul, ctx.b3, ring.mod
        X1, Y1, Z1, X2, Y2, Z2 = self.X, self.Y, self.Z, other.X, other.Y, other.Z
        t0, t1, t2 = mul(X1, X2), mul(Y1, Y2), mul(Z1, Z2)
        t3 = [s - a - b for s, a, b in zip(mul(_plus(X1, Y1), _plus(X2, Y2)), t0, t1)]
        t4 = [s - a - b for s, a, b in zip(mul(_plus(X1, Z1), _plus(X2, Z2)), t0, t2)]
        t5 = [s - a - b for s, a, b in zip(mul(_plus(Y1, Z1), _plus(Y2, Z2)), t1, t2)]
        W, V, U = mul(b3, t2), mul(b3, t4), [3 * c for c in t0]
        t1m, t1p = [a - b for a, b in zip(t1, W)], _plus(t1, W)
        X3 = tuple((a - b) % mod for a, b in zip(mul(t3, t1m), mul(t5, V)))
        Y3 = tuple((a + b) % mod for a, b in zip(mul(t1m, t1p), mul(U, V)))
        Z3 = tuple((a + b) % mod for a, b in zip(mul(t5, t1p), mul(t3, U)))
        known = min(self.known, other.known)
        m = min(ring.val(X3), ring.val(Y3), ring.val(Z3))
        if m >= known:
            raise PrecisionTooLow("projective point lost all precision")
        if m:
            pm = ctx.p**m
            X3 = tuple(c // pm for c in X3)
            Y3 = tuple(c // pm for c in Y3)
            Z3 = tuple(c // pm for c in Z3)
            known -= m
        return ZqPoint(ctx, X3, Y3, Z3, known)

    def neg(self) -> "ZqPoint":
        return ZqPoint(self.ctx, self.X, self.ctx.ring.elem([-c for c in self.Y]), self.Z,
                       self.known)

    def mul(self, n: int) -> "ZqPoint":
        if n < 0:
            return self.neg().mul(-n)
        acc = self.ctx.zero_point()
        base = self
        while n:
            if n & 1:
                acc = acc.add(base)
            base = base.add(base)
            n >>= 1
        return acc

    def in_kernel(self) -> bool:
        val = self.ctx.ring.val
        return val(self.Y) == 0 and val(self.X) >= 1 and val(self.Z) >= 1


def _plus(u, v):
    return [a + b for a, b in zip(u, v)]


# -- residue classes of the generator lattice -------------------------------


class SieveData:
    """Z^r modulo the kernel of simultaneous reduction at the primes; a
    class's images (one point of E(F_q) per prime) are a tuple and a key.

    The image of c1 g1 at prime j depends only on c1 mod ord_j(g1), so
    each prime keeps one row, its multiples c g1 for c < ord_j(g1), made
    by adding g1 until the sum is O; g1 has order o1 = lcm_j ord_j(g1) on
    the product, and the images of c1 g1 are (row_j[c1 mod len(row_j)])_j.
    For rank 2 the starts c2 g2 (c2 < k2, k2 g2 = a g1) are walked on the
    product, and each start S gets one row per prime, S_j + row_j[r]."""

    def __init__(self, contexts, rank):
        self.contexts = contexts
        self.rank = rank
        self.curves = [ctx.Ebar for ctx in contexts]
        self.gens_imgs = [tuple(ctx.gens_bar[i] for ctx in contexts) for i in range(rank)]
        self.zeros = (None,) * len(contexts)
        if rank > 2:
            raise RankConditionViolated("only rank <= 2 lattices are handled")
        self.o1, self.k2, self.a_rel, self.basis = 1, 1, 0, []
        self.rows, self.starts = [[None] for _ in contexts], [self.zeros]
        if rank:
            self.rows = [_multiples(E, g) for E, g in zip(self.curves, self.gens_imgs[0])]
            self.o1 = lcm(*map(len, self.rows))
            self.basis = [(self.o1,)]
        if rank == 2:
            seen = {_images(self.rows, c1): c1 for c1 in range(self.o1)}
            T = self.gens_imgs[1]
            while T not in seen:
                self.starts.append(T)
                T = self.step(T, 1)
            self.k2, self.a_rel = len(self.starts), seen[T]
            self.basis = [(self.o1, 0), (-self.a_rel, self.k2)]

    def step(self, T, i):
        """The images T plus generator i, at every prime."""
        return tuple(E.add(A, B) for E, A, B in zip(self.curves, T, self.gens_imgs[i]))

    def n_classes(self) -> int:
        return self.o1 * self.k2

    @cached_property
    def kernel_points(self):
        """Each lattice basis vector as a point over Z_q at every prime."""
        out = []
        for vec in self.basis:
            per_prime = [ctx.combination(vec) for ctx in self.contexts]
            if not all(P.in_kernel() for P in per_prime):
                raise AssertionError("lattice basis point not in the kernel")
            out.append(per_prime)
        return out

    def iter_classes(self):
        """(class, images), c2 outer and c1 inner: the class is
        (c1, c2)[:rank], c1 < o1, c2 < k2, and its images c1 g1 + c2 g2."""
        for c2, S in enumerate(self.starts):
            rows = self.rows if not c2 else [[E.add(s, P) for P in row] for E, s, row
                                             in zip(self.curves, S, self.rows)]
            for c1 in range(self.o1):
                yield (c1, c2)[:self.rank], _images(rows, c1)


def _multiples(E, g):
    """[O, g, 2g, ...] up to the last multiple before O: ord(g) points."""
    row, T = [None], g
    while T is not None:
        row.append(T)
        T = E.add(T, g)
    return row


def _images(rows, c1):
    """c1 times the rows' generator: one point per prime."""
    return tuple(row[c1 % len(row)] for row in rows)


def residue_sieve(contexts, rank):
    """(SieveData, survivors): classes whose psi-reductions admit one
    common P^1(F_p) value at every prime above p simultaneously.  Each
    prime's residue value is computed once per distinct image point."""
    sd = SieveData(contexts, rank)
    memos = [{} for _ in contexts]
    survivors = {}
    for cls, imgs in sd.iter_classes():
        vals = []
        for ctx, memo, P in zip(contexts, memos, imgs):
            v = memo.get(P)
            if v is None:
                v = memo[P] = ctx.residue_value(P)
            if v == "incompatible":
                break
            vals.append(v)
        else:
            if "undefined" in vals:
                survivors[cls] = {"images_key": imgs, "residue_value": "undefined"}
            elif all(v == vals[0] for v in vals[1:]):
                survivors[cls] = {"images_key": imgs, "residue_value": vals[0]}
    return sd, survivors


# -- the per-curve run -------------------------------------------------------


@dataclass
class ChabautyOutcome:
    values: list
    witnesses: dict
    status: str            # "Complete" | "Inconclusive"
    reason: str
    certificates: list

    @property
    def complete(self):
        return self.status == "Complete"

    def value_set(self):
        return set(self.values)

    def as_dict(self):
        return {
            "status": self.status,
            "reason": self.reason,
            "values": sorted(v.serialize() for v in self.values),
            "witnesses": {k: v for k, v in sorted(self.witnesses.items())},
            "certificates": self.certificates,
        }


class ChabautyRun:
    """One curve E_i/K with psi and known points, analyzed at one prime p."""

    def __init__(self, curve, psi, gens, known_points, p, prec=DEFAULT_PREC):
        if len(gens) >= 4:
            raise RankConditionViolated("rank condition rk < [K:Q] = 4 violated")
        self.curve = curve
        self.psi = psi
        self.gens = gens
        self.known = known_points    # list of (nvec or None, EcPoint, STValue)
        self.p = p
        self.prec = prec
        rows = reductions_at(curve, p)
        if sum(pr.degree for pr, _, _ in rows) != psi.field.degree:
            # The table misses a prime above p: its residue field is above
            # the cap, or it is bad, and then BadPrime reaches the caller.
            rows = _reduction_rows(curve, p, 4)
        self.contexts = [PrimeContext(row, curve, psi, gens, prec) for row in rows]

    def run(self):
        """Per-class certificates; returns (all_closed, certificates)."""
        sd, survivors = residue_sieve(self.contexts, len(self.gens))
        known_by_key = {}
        for nvec, P, val in self.known:
            key = tuple(reduce_point(ctx.Ebar, P, ctx.pr) for ctx in self.contexts)
            known_by_key.setdefault(key, []).append((nvec, P, val))
        for key, pts in known_by_key.items():
            if not any(info["images_key"] == key for info in survivors.values()):
                raise CurveProblem(f"the curve {self.curve!r} at p={self.p}: the known point "
                                   f"{pts[0][1]!r} reduces into no surviving class of the "
                                   "span of its trusted points")

        certs = []
        all_closed = True
        for cls, info in sorted(survivors.items()):
            pts_here = known_by_key.get(info["images_key"], [])
            closed, cert = self._close_class(sd, cls, info, pts_here)
            cert["n_known"] = len(pts_here)
            certs.append(cert)
            if not closed:
                all_closed = False
        summary = {
            "prime": self.p,
            "n_classes": sd.n_classes(),
            "n_survivors": len(survivors),
            "lattice_basis": [list(b) for b in sd.basis],
            "local_orders": [ctx.order for ctx in self.contexts],
            "residue_degrees": [ctx.pr.degree for ctx in self.contexts],
        }
        return all_closed, {"summary": summary, "classes": certs}

    # -- analytic pieces ---------------------------------------------------

    def _chart_values(self, pts, invert):
        """Chart value h_j at each prime for a tuple of ZqPoints."""
        out = []
        for ctx, P in zip(self.contexts, pts):
            ring = ctx.ring
            num, den = (ring.elem([sum(t) for t in zip(ring.mul(c0, P.Z), ring.mul(c1, P.X),
                                                        ring.mul(c2, P.Y))])
                        for c0, c1, c2 in (ctx.psi_q[:3], ctx.psi_q[3:]))
            if invert:
                num, den = den, num
            if ring.val(den) != 0:
                raise PrecisionTooLow("chart denominator is not a unit")
            out.append((ring.mul(num, ring.inv(den)), P.known))
        return out

    def _equations(self, values):
        """Scalar Z_p rationality equations: (residue int, known precision)."""
        eqs = []
        base = None
        for (h, known), ctx in zip(values, self.contexts):
            d = ctx.ring.d
            for ell in range(1, d):
                eqs.append((h[ell] % ctx.ring.mod, known))
            if base is None:
                base = (h[0], known)
            else:
                eqs.append(((h[0] - base[0]) % ctx.ring.mod, min(known, base[1])))
        return eqs

    def _close_class(self, sd, cls, info, pts_here):
        p = self.p
        cert = {"class": list(cls), "prime": p}
        if info["residue_value"] == "undefined":
            cert["mechanism"] = "unclosed-undefined-chart"
            return False, cert
        invert = info["residue_value"][0] == "inf"
        rank = sd.rank
        if rank == 0:
            # Torsion-free rank-0 input: the class is the single point O.
            cert["mechanism"] = "rank-zero-finite"
            cert["bound"] = len(pts_here)
            return True, cert
        if len(pts_here) > 1:
            cert["mechanism"] = "unclosed-multiple-known"
            return False, cert

        basis_pts = sd.kernel_points
        # The class values at R0 + sum e_i B_i, R0 a global integer
        # representative of the class.
        R0_pts = [ctx.combination(cls) for ctx in self.contexts]
        origin = (0,) * rank
        grid = {origin: (R0_pts, self._equations(self._chart_values(R0_pts, invert)))}
        self._extend_grid(grid, basis_pts, 1, invert)
        A = [h for h, _ in grid[origin][1]]
        n_eq = len(A)
        firsts = [_forward_difference(grid, e) for e in grid if sum(e) == 1]
        D = [[d for d, _ in row] for row in zip(*firsts)]  # n_eq x rank
        kmin = min((known for _, eqs in grid.values() for _, known in eqs), default=self.prec)
        if kmin < 6:
            raise PrecisionTooLow("precision eroded below certification level")

        def v(x, cap):
            if x % p**cap == 0:
                return cap
            return valuation(x % p**cap, p)

        cert["linear_data"] = {
            "A_valuations": [v(a, kmin) for a in A],
            "D_valuations": [[v(d, kmin) for d in row] for row in D],
        }

        bound = None
        if rank == 1:
            beta = min(v(row[0], kmin) for row in D)
            if beta <= 1:
                bound = 1
        elif rank == 2:
            best = None
            for s in range(n_eq):
                for t in range(s + 1, n_eq):
                    det = D[s][0] * D[t][1] - D[s][1] * D[t][0]
                    vd = v(det, kmin)
                    bmin = min(v(D[s][0], kmin), v(D[s][1], kmin),
                               v(D[t][0], kmin), v(D[t][1], kmin))
                    if vd <= 1 or (vd <= 2 and bmin >= 1):
                        best = (s, t, vd, bmin)
                        break
                if best:
                    break
            if best:
                bound = 1
                cert["unique_minor"] = list(best)
        if bound == 1 and len(pts_here) == 1:
            cert["mechanism"] = "closed-unique-linear"
            cert["bound"] = 1
            return True, cert
        if len(pts_here) == 0:
            for k in (2, 3):
                self._extend_grid(grid, basis_pts, k - 1, invert)
                terms = [(e, _forward_difference(grid, e)) for e in grid if sum(e) < k]
                if _empty_mod(p, k, terms):
                    cert["mechanism"] = f"closed-empty-mod-p{k}"
                    cert["bound"] = 0
                    return True, cert
            if bound == 1:
                cert["mechanism"] = "unclosed-phantom-possible"
                cert["bound"] = 1
                return False, cert
        cert["mechanism"] = "unclosed-degenerate-linear"
        return False, cert

    def _extend_grid(self, grid, basis_pts, order, invert):
        """Extend grid {e: (ZqPoints per prime, equations)} to every offset
        |e| <= order.  Offset e is reached from e - e_i by adding B_i, i the
        last nonzero entry of e, so every point is one fixed sum and its
        tracked precision does not depend on the order of the calls."""
        for size in range(1, order + 1):
            for axes in combinations_with_replacement(range(len(basis_pts)), size):
                e = tuple(map(axes.count, range(len(basis_pts))))
                if e not in grid:
                    i = axes[-1]
                    prev = grid[e[:i] + (e[i] - 1,) + e[i + 1:]][0]
                    pts = [P.add(B) for P, B in zip(prev, basis_pts[i])]
                    grid[e] = (pts, self._equations(self._chart_values(pts, invert)))


def _forward_difference(grid, e):
    """Delta^e H(0) = sum_{b <= e} (-1)^|e - b| prod_i C(e_i, b_i) H(b) for
    each equation, as (value, known precision) pairs like the grid's."""
    offsets = list(product(*(range(ei + 1) for ei in e)))
    coeffs = [(-1) ** (sum(e) - sum(b)) * prod(map(comb, e, b)) for b in offsets]
    return [(sum(c * h for c, (h, _) in zip(coeffs, col)), min(known for _, known in col))
            for col in zip(*(grid[b][1] for b in offsets))]


def _empty_mod(p, k, terms):
    """True if the class equations have no common zero modulo p^k.

    terms: (e, Delta^e H(0)) for every offset |e| < k.  In Newton form
    H(n) = sum_e Delta^e H(0) C(n, e), with C(n, e) = prod_i C(n_i, e_i),
    and a difference of order j carries valuation >= j, so the terms of
    order k and above vanish mod p^k, and H(n) mod p^j depends on n mod
    p^(j-1) only, or on n mod p^j when a first difference is a unit.  So
    the zeros mod p^j are lifted to p^(j+1) one p-adic digit of n at a time."""
    if any(known < k for _, diff in terms for _, known in diff):
        raise PrecisionTooLow(f"not enough digits for the mod-p^{k} sieve")
    lag = 0 if any(d % p for e, diff in terms if sum(e) == 1 for d, _ in diff) else 1
    offsets, rank = [e for e, _ in terms], len(terms[0][0])
    equations = list(zip(*([d for d, _ in diff] for _, diff in terms)))
    zeros = [(0,) * rank]
    for j in range(1, k + 1):
        if j > lag:  # n mod p^(j - lag): one more digit, at p^(j - 1 - lag)
            zeros = [tuple(a + p ** (j - 1 - lag) * b for a, b in zip(n, digit))
                     for n in zeros for digit in product(range(p), repeat=rank)]
        zeros = [n for n in zeros if not any(
            sum(d * prod(map(comb, n, e)) for d, e in zip(eq, offsets)) % p**j
            for eq in equations)]
    return not zeros


@lru_cache(maxsize=None)
def reductions_at(curve, q):
    """((pr, Ebar, #E(F_q)), ...) at the primes pr of K above q with a
    small residue field (degree <= 2 for q <= 60, degree 1 above), Ebar
    being E reduced at pr; () when q or one of these primes is bad.
    Each (curve, q) is reduced and counted once per process."""
    try:
        return _reduction_rows(curve, q, 2 if q <= 60 else 1)
    except BadPrime:
        return ()


def _reduction_rows(curve, q, degree_cap):
    """(pr, Ebar, #E(F_q)) at the primes above q of degree <= degree_cap;
    all are reduced, and so checked for BadPrime, before any is counted."""
    curves = [(pr, reduce_curve(curve, pr))
              for pr in primes_above(curve.b.parent, q, degree_cap=degree_cap)]
    return tuple((pr, Ebar, curve_order_fq(Ebar)) for pr, Ebar in curves)


def certify_index_coprimality(curve, gens, ells):
    """Certify [E(K) : <gens> + tors] coprime to each prime in ells via the
    reduction sieve; returns ({ell: primes used}, uncertified list).

    Only primes where ell divides #E(F_q) carry information, so the sieve
    reads just those rows of the curve's reduction table, in one lazy pass
    over the primes 5 <= q <= 5000 that stops at the prime certifying ell.
    """
    certified = {}
    failed = []
    for ell in sorted(set(ells)):
        rows = (row for q in small_primes(5000) if q >= 5
                for row in reductions_at(curve, q) if row[2] % ell == 0)
        result, used = non_divisibility_sieve(gens, ell, rows)
        if result is True:
            certified[ell] = used
        else:
            failed.append(ell)
    return certified, failed


def rational_st_values(curve, psi, gens, known_points, primes=DEFAULT_PRIMES):
    """ChabautyOutcome over the given primes (each tried until Complete),
    at DEFAULT_PREC digits and, after PrecisionTooLow, at twice as many.

    known_points: list of (nvec or None, EcPoint, STValue) with rational
    psi-values; completeness means every surviving residue class is
    closed onto exactly these points.  Soundness of a closing prime p
    additionally requires the generator-subgroup index to be coprime to
    p and to every prime dividing the local group orders.  Coprimality
    to 2 and 3 is trusted input (README), not certified here; every other
    such prime is certified by the reduction sieve (else p is skipped).
    """
    certificates = []
    last_reason = ""
    for p in primes:
        for use_prec in (DEFAULT_PREC, 2 * DEFAULT_PREC):
            try:
                run = ChabautyRun(curve, psi, gens, known_points, p, use_prec)
                ells = {p} | {ell for ctx in run.contexts for ell in factorize(ctx.order)} - {2, 3}
                certified, failed = certify_index_coprimality(curve, gens, ells)
                if failed:
                    last_reason = f"p={p}: index coprimality uncertified for {failed}"
                    break
                closed, cert = run.run()
                cert["index_coprimality"] = {str(k): v for k, v in certified.items()}
            except PrecisionTooLow as e:
                last_reason = f"p={p}: precision too low ({e})"
                continue
            except BadPrime as e:
                last_reason = f"p={p}: bad prime ({e})"
                break
            cert["closing"] = closed
            certificates.append(cert)
            if closed:
                values = sorted({val for _, _, val in known_points},
                                key=lambda v: v.sort_key())
                witnesses = {}
                for nvec, P, val in known_points:
                    witnesses.setdefault(val.serialize(),
                                         _witness_name(nvec, P))
                return ChabautyOutcome(values=values, witnesses=witnesses,
                                       status="Complete",
                                       reason=f"all classes closed at p={p}",
                                       certificates=certificates)
            last_reason = f"p={p}: unclosed classes remain"
            break
    return ChabautyOutcome(values=[], witnesses={}, status="Inconclusive",
                           reason=last_reason, certificates=certificates)


def _witness_name(nvec, P):
    if nvec is None:
        return f"constructed point {P!r}"
    terms = []
    for i, n in enumerate(nvec):
        if n:
            terms.append(f"{n}*g{i + 1}" if abs(n) != 1 else
                         (f"g{i + 1}" if n == 1 else f"-g{i + 1}"))
    return " + ".join(terms).replace("+ -", "- ") if terms else "O"
