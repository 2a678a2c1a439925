"""Curve arithmetic, flex models, torsion, reduction and sieves."""

import random
import subprocess
import sys
from fractions import Fraction as F
from functools import reduce
from itertools import product
from math import gcd

import pytest

from x3y9z2.arith.localfield import FqField, factor_quartic_mod_p, residue_degrees
from x3y9z2.arith.poly import MPoly
from x3y9z2.arith.roots import small_primes
from x3y9z2.chabauty.engine import reductions_at
from x3y9z2.ec import (BadPrime, EcPoint, PlaneCubicWithFlex, WeierstrassCurve,
                       curve_order_fq, flex_to_weierstrass, non_divisibility_sieve,
                       torsion_over_Q)
from x3y9z2.ec import reduction
from x3y9z2.ec.reduction import FqCurve, all_points_fq, primes_above, reduce_curve, reduce_point
from x3y9z2.ec.weierstrass import _classical_add

from torsion_reference import integer_roots_by_divisors, torsion_by_search
from zq_reference import ZqElem


class TestGroupLaw:
    def test_identity(self):
        E = WeierstrassCurve(F(0), F(1))
        P = E.point(F(2), F(3))
        assert P + E.zero() == P
        assert E.zero() + P == P

    def test_order_six_point(self):
        E = WeierstrassCurve(F(0), F(1))
        P = E.point(F(2), F(3))
        assert not (3 * P).is_zero()
        assert (6 * P).is_zero()

    def test_exhaustive_vs_classical_over_fq(self):
        fq = FqField(11)
        for (a, b) in [(0, 6), (2, 0), (1, 3)]:
            E = WeierstrassCurve(ZqElem(fq, a), ZqElem(fq, b))
            pts = [E.zero()]
            for x in range(11):
                for y in range(11):
                    P = EcPoint(E, ZqElem(fq, x), ZqElem(fq, y), ZqElem(fq, 1))
                    if P.on_curve():
                        pts.append(P)
            for P in pts:
                for Q in pts:
                    R = P + Q
                    assert R.on_curve()
                    assert R == _classical_add(P, Q)

    def test_associativity_200(self, rng):
        fq = FqField(101)
        E = WeierstrassCurve(ZqElem(fq, 3), ZqElem(fq, 7))
        pts = []
        x = 0
        while len(pts) < 24:
            x += 1
            rhs = fq.elem(x**3 + 3 * x + 7)
            for y in range(101):
                if fq.elem(y * y) == rhs:
                    pts.append(E.point(ZqElem(fq, x), ZqElem(fq, y)))
                    break
        for _ in range(200):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert (P + Q) + R == P + (Q + R)

    def test_mul_matches_repeated_addition(self):
        E = WeierstrassCurve(F(0), F(-2))
        P = E.point(F(3), F(5))
        acc = E.zero()
        for n in range(21):
            assert acc == n * P
            # Rebuilt from affine coordinates: the projective ones of an
            # unreduced running sum grow without bound.
            acc = E.point(*(acc + P).affine())

    def test_table2_closure_over_K(self, mw_data):
        g1, g2 = mw_data.points(1)
        S = g1 + (-g2)
        assert S.on_curve()


class TestFlexModel:
    def _diagonal(self):
        # u^3 = s^3 + t^3 with flex (u, s, t) = (0, 1, -1)
        form = MPoly(3, {(3, 0, 0): F(1), (0, 3, 0): F(-1), (0, 0, 3): F(-1)})
        return PlaneCubicWithFlex(form, (F(0), F(1), F(-1)))

    def test_diagonal_cubic_j_zero(self):
        model = flex_to_weierstrass(self._diagonal())
        assert model.curve.a == 0      # j = 6912 a^3 / (4 a^3 + 27 b^2) = 0

    def test_roundtrip_points(self):
        model = flex_to_weierstrass(self._diagonal())
        # (u, s, t) points on u^3 = s^3 + t^3
        for pt in [(F(1), F(1), F(0)), (F(1), F(0), F(1)), (F(2), F(2), F(0))]:
            P = model.push_point(pt)
            assert P.on_curve()
            u, s, t = model.pull_point(P)
            # projectively equal
            assert u * pt[1] == s * pt[0] and s * pt[2] == t * pt[1]

    def test_flex_validation(self):
        form = MPoly(3, {(3, 0, 0): F(1), (0, 3, 0): F(-1), (0, 0, 3): F(-1)})
        with pytest.raises(ValueError):
            PlaneCubicWithFlex(form, (F(1), F(1), F(1)))  # not on the curve

    def test_group_structure_collinear_sum(self):
        # On u^3 = s^3 + 8t^3 the points (1:0:1), (0:1:2) and the flex
        # origin are collinear, so the Weierstrass images must sum to O.
        form = MPoly(3, {(3, 0, 0): F(1), (0, 3, 0): F(-1), (0, 0, 3): F(-8)})
        cubic = PlaneCubicWithFlex(form, (F(0), F(-2), F(1)))
        model = flex_to_weierstrass(cubic)
        P = model.push_point((F(1), F(1), F(0)))   # (u,s,t) with s/t = inf
        Q = model.push_point((F(2), F(0), F(1)))   # (u,s,t) = (2, 0, 1)
        assert (P + Q).is_zero()


class TestTorsion:
    def test_mordell_curves(self):
        assert torsion_over_Q(WeierstrassCurve(F(0), F(1)))[0] == "Z/6"
        assert torsion_over_Q(WeierstrassCurve(F(0), F(-432)))[0] == "Z/3"
        assert torsion_over_Q(WeierstrassCurve(F(0), F(16)))[0] == "Z/3"
        assert torsion_over_Q(WeierstrassCurve(F(0), F(7)))[0] == "trivial"

    def test_two_torsion(self):
        structure, pts = torsion_over_Q(WeierstrassCurve(F(0), F(-1728)))
        assert structure == "Z/2"
        assert pts[0].affine() == (F(12), F(0))

    # (a, b, structure): y^2 = x^3 + a x + b, one curve per torsion group
    # of Mazur's list but Z/2 x Z/8, whose smallest short model (from
    # 210e2) has |disc| ~ 1e20.  Z/5 and Z/8 are Kubert family members and
    # Z/2 x Z/4 a Legendre curve, each with a small discriminant; Z/7, Z/9,
    # Z/10, Z/12 and Z/2 x Z/6 are the short models of 26b1, 54b3, 66c1,
    # 90c3 and 30a2.
    MAZUR = [(1, 0, "Z/2"), (0, 16, "Z/3"), (4, 0, "Z/4"), (-432, 8208, "Z/5"),
             (0, 1, "Z/6"), (-43, 166, "Z/7"), (1269, 127386, "Z/8"), (-219, 1654, "Z/9"),
             (-58347, 3954150, "Z/10"), (-1947, 108214, "Z/12"), (-1, 0, "Z/2 x Z/2"),
             (-351, 1890, "Z/2 x Z/4"), (-24003, 1296702, "Z/2 x Z/6"),
             (-1386747, 368636886, "Z/2 x Z/8")]

    def test_divisor_walk_matches_the_search_by_y(self, monkeypatch):
        """torsion_over_Q, which tries the divisors y of the largest r with
        r^2 | disc, gives the structure and points of the reference that
        tries every y with y^2 <= |disc|: on the Mordell curves of the
        equation 5 quotients, and on one curve per torsion group.  The
        reference takes sqrt|disc| steps, so it is skipped on Z/10,
        Z/2 x Z/6 and Z/2 x Z/8 (7.7e7, 1.3e7 and 1.1e10 steps), where the
        structure is checked against the tables instead.  The Z/2 x Z/8
        curve is the short model of 210e2, whose squared-divisor part of
        disc has 727 divisors y, each with a large b - y^2."""
        from x3y9z2 import verify
        from x3y9z2.dataio import load_descent_data
        seen = []
        monkeypatch.setattr(verify, "torsion_over_Q",
                            lambda E: seen.append(E) or torsion_over_Q(E))
        forms = verify._quotient_forms(load_descent_data())
        for label, cs in (("E1,delta", (1, 2, 3, 4, 18, 36)),
                          ("E2,delta", (1, 2, 3, 4, 6, 9, 12))):
            for c in cs:
                verify._quotient_torsion(forms[label], F(c), {})
        assert sorted({int(E.b) for E in seen}) == [-3888, -432, -108, -48, -27, -12, -3]
        for E in seen:
            assert torsion_over_Q(E) == torsion_by_search(E)
        for a, b, structure in self.MAZUR:
            E = WeierstrassCurve(F(a), F(b))
            found = torsion_over_Q(E)
            assert found[0] == structure
            if structure not in ("Z/10", "Z/2 x Z/6", "Z/2 x Z/8"):
                assert found == torsion_by_search(E)

    def test_integer_roots_by_bisection_match_the_divisor_search(self, rng):
        """_integer_roots_cubic, bisection on the monotone pieces of
        x^3 + a x + b, against the divisors of b (tests/torsion_reference.py):
        on 2,000 seeded cubics with a and b up to 10^4, most of them
        without an integer root, and on 1,000 cubics built from three
        integer roots r, s, -r - s, repeated roots and roots at the turning
        points +-sqrt(-a/3) among them."""
        from x3y9z2.ec.torsion import _integer_roots_cubic
        cubics = [(rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4))
                  for _ in range(2000)]
        for _ in range(1000):
            r, s = rng.randint(-60, 60), rng.randint(-60, 60)
            if rng.random() < 0.2:
                s = r             # a double root, at a turning point
            t = -r - s
            cubics.append((r * s + r * t + s * t, -r * s * t))
        rooted = 0
        for a, b in cubics:
            roots = _integer_roots_cubic(a, b)
            assert roots == integer_roots_by_divisors(a, b), (a, b)
            rooted += bool(roots)
        assert rooted >= 1000

    def test_torsion_injects_at_good_primes(self):
        from x3y9z2.ec.torsion import count_points_fp
        structure, pts = torsion_over_Q(WeierstrassCurve(F(0), F(1)))
        order = len(pts) + 1
        for p in (5, 7, 11, 13):
            assert count_points_fp(0, 1, p) % order == 0


class TestReduction:
    def test_f_mod_11_shape_frozen(self):
        assert factor_quartic_mod_p([1, -2, 0, -2, 1], 11) == [[7, 1], [8, 1], [1, 5, 1]]

    def test_f_mod_31_two_quadratics(self):
        shape = [len(f) - 1 for f in factor_quartic_mod_p([1, -2, 0, -2, 1], 31)]
        assert shape == [2, 2]

    def test_primes_above_factors_each_prime_once(self, K, monkeypatch):
        """The curves over K share its primes: a second call with the same
        (field, p, degree_cap) factors nothing and hands out the same
        tuple of primes."""
        calls = []
        factor = reduction.factor_quartic_mod_p
        monkeypatch.setattr(reduction, "factor_quartic_mod_p",
                            lambda *args: calls.append(args) or factor(*args))
        reduction.primes_above.cache_clear()
        first = primes_above(K, 43, 2)
        assert isinstance(first, tuple) and primes_above(K, 43, 2) is first
        assert primes_above(K, 43, 1) != first and len(calls) == 2

    def test_residue_degrees_match_factoring(self, K):
        """residue_degrees, which factors nothing, against the residue
        degrees of the primes that primes_above factors out."""
        f = K.minpoly.integer_coeffs()
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
            degrees = tuple(sorted(pr.degree for pr in primes_above(K, p)))
            assert residue_degrees(f, p) == degrees, p
        assert residue_degrees(f, 1009) == (2, 2)
        assert residue_degrees(f, 101) == (4,)

    def test_bad_primes_refused(self, mw_data, K):
        E = mw_data.curve(1)
        for p in (2, 3):                     # both divide disc(f) = -1728
            with pytest.raises(BadPrime):
                reduce_curve(E, primes_above(K, p)[0])

    def test_reduced_g1_order_frozen(self, mw_data, K):
        E = mw_data.curve(1)
        g1 = mw_data.points(1)[0]
        prs = primes_above(K, 11)
        pr = next(p for p in prs if p.degree == 1 and p.factor == [8, 1])  # alpha -> 3
        Ebar = reduce_curve(E, pr)
        assert curve_order_fq(Ebar) == 12
        Pbar = reduce_point(Ebar, g1, pr)
        order = next(d for d in range(1, 13) if Ebar.mul(d, Pbar) is None)
        assert order == 12

    def test_homomorphism_200(self, mw_data, K, rng):
        E = mw_data.curve(1)
        g1, g2 = mw_data.points(1)
        pr = primes_above(K, 11)[0]
        Ebar = reduce_curve(E, pr)
        r1 = reduce_point(Ebar, g1, pr)
        r2 = reduce_point(Ebar, g2, pr)
        combos = {}
        for a in range(-4, 5):
            for b in range(-4, 5):
                combos[(a, b)] = (a * g1 + b * g2) if (a or b) else E.zero()
        for _ in range(200):
            a1, b1 = rng.randint(-2, 2), rng.randint(-2, 2)
            a2, b2 = rng.randint(-2, 2), rng.randint(-2, 2)
            lhs = reduce_point(Ebar, combos[(a1 + a2, b1 + b2)], pr)
            rhs = Ebar.add(reduce_point(Ebar, combos[(a1, b1)], pr),
                           reduce_point(Ebar, combos[(a2, b2)], pr))
            assert lhs == rhs

    def test_kernel_point_reduces_to_zero(self, mw_data, K):
        E = mw_data.curve(1)
        g1 = mw_data.points(1)[0]
        pr = next(p for p in primes_above(K, 11) if p.degree == 1)
        Ebar = reduce_curve(E, pr)
        V = 12 * g1
        assert reduce_point(Ebar, V, pr) is None


# Every prime of K above 11 (residue degrees 1, 1, 2) and 31 (2, 2).
PRIMES = [(11, 0), (11, 1), (11, 2), (31, 0), (31, 1)]


class TestPrimitive:
    """NfPrime.primitive, the one map of a K-vector to a prime, against
    NfPrime.embed at a higher precision."""

    @pytest.mark.parametrize("prec", [1, 12])
    @pytest.mark.parametrize("p, idx", PRIMES)
    def test_scales_by_one_power_of_p(self, K, p, idx, prec):
        pr = primes_above(K, p)[idx]
        high = prec + 30
        # pi = h(alpha), h the factor of the minimal polynomial, lies in
        # the prime; the denominators include p and p^2, so an entry
        # pi^(prec+1) * x can have a numerator that vanishes mod p^prec
        # and a valuation below prec.
        pi = K(pr.factor + [0] * (4 - len(pr.factor)))
        rng = random.Random(f"primitive/{p}/{idx}/{prec}")

        def entry():
            if rng.random() < 0.2:
                return K.zero()
            x = K([F(rng.randint(-30, 30), rng.choice([1, 2, 7, p, p * p, 6 * p]))
                   for _ in range(4)])
            return x * pi ** rng.choice([0, 1, 2, prec + 1]) * p ** rng.randint(0, 2)

        checked = refused = 0
        for _ in range(60):
            k = rng.choice([0, 0, 2])   # a common p^2: every entry divisible by p
            vec = [entry() * p**k for _ in range(rng.choice([3, 6]))]
            embedded = [pr.embed(x, high) for x in vec]
            ring = pr.zq(prec)[0]
            # embed: a unit exact to p^prec, or zero when x is 0 mod p^prec.
            assert [pr.embed(x, prec) for x in vec] == [
                (ring.elem(u), v) if v < prec else (ring.zero(), prec)
                for u, v in embedded]
            m = min(v for u, v in embedded)   # a zero entry has v = high
            if m >= prec:
                with pytest.raises(BadPrime):
                    pr.primitive(vec, prec)
                refused += 1
                continue
            out = pr.primitive(vec, prec)
            assert len(out) == len(vec) and all(u == ring.elem(u) for u in out)
            assert min(ring.val(u) for u in out) == 0
            assert all(not any(u) for u, x in zip(out, vec) if not x)
            # out = p^-m vec exactly: the higher-precision embedding,
            # scaled by the same power of p, agrees mod p^prec.
            big = pr.zq(high)[0]
            assert out == [ring.elem(big.mul(u, big.elem(p ** (v - m))) if any(u) else u)
                           for u, v in embedded]
            checked += 1
        assert checked >= 30 and refused >= 1 and checked + refused == 60

    @pytest.mark.parametrize("p, idx", PRIMES)
    def test_zero_vector_refused(self, K, p, idx):
        pr = primes_above(K, p)[idx]
        with pytest.raises(BadPrime):
            pr.primitive([K.zero(), K.zero(), K.zero()], 12)

    @pytest.mark.parametrize("p, idx", PRIMES)
    def test_reduce_point_is_the_residue_away_from_p(self, mw_data, K, p, idx):
        """For a point whose coordinates have denominators prime to p,
        the reduction is (x mod the prime : y mod the prime : 1)."""
        E = mw_data.curve(1)
        g1, g2 = mw_data.points(1)
        pr = primes_above(K, p)[idx]
        Ebar = reduce_curve(E, pr)
        checked = 0
        for a in range(-3, 4):
            for b in range(-3, 4):
                P = a * g1 + b * g2
                if P.is_zero():
                    continue
                x, y = P.affine()
                if x.den % p == 0 or y.den % p == 0:
                    continue
                oracle = (pr.residue(x), pr.residue(y))
                assert reduce_point(Ebar, P, pr) == oracle
                checked += 1
        assert checked >= 20


# One prime of K of each residue degree the group law writes out or
# falls back for: degree 1 and 2 above 11, degree 2 above 31, and the
# degree-4 prime above 5.
LAW_PRIMES = [(11, 0, 1), (11, 2, 2), (31, 0, 2), (31, 1, 2), (5, 0, 4)]


class TestFqGroupLaw:
    """FqCurve's chord-tangent law on coordinate tuples, with the generic
    projective EcPoint law over the same F_q, on the operators of
    tests/zq_reference.py, as the oracle."""

    @staticmethod
    def _curves(mw_data, K, p, idx, rng):
        """Two reductions of trusted curves (a = 0), and a curve with
        a != 0 through a point (x0, 0) of order 2."""
        pr = primes_above(K, p)[idx]
        fq = pr.fq()
        curves = [reduce_curve(mw_data.curve(i), pr) for i in (1, 4)]
        while True:
            a = tuple(rng.randrange(p) for _ in range(fq.d))
            x0 = tuple(rng.randrange(p) for _ in range(fq.d))
            if not any(a):
                continue
            b = tuple(-c % p for c in FqCurve(fq, a, (0,) * fq.d).rhs(x0))
            E = FqCurve(fq, a, b)
            A, B = ZqElem(fq, a), ZqElem(fq, b)
            if 4 * A * A * A + 27 * B * B:
                return fq, curves + [E], (x0, (0,) * fq.d)

    @staticmethod
    def _oracle(fq, E):
        W = WeierstrassCurve(ZqElem(fq, E.a), ZqElem(fq, E.b))

        def lift(P):
            return (W.zero() if P is None
                    else EcPoint(W, ZqElem(fq, P[0]), ZqElem(fq, P[1]), ZqElem(fq, 1)))
        return lift

    @pytest.mark.parametrize("p, idx, degree", LAW_PRIMES)
    def test_matches_projective_law(self, mw_data, K, p, idx, degree):
        rng = random.Random(f"fq-law/{p}/{idx}")
        fq, curves, two_torsion = self._curves(mw_data, K, p, idx, rng)
        assert fq.d == degree
        for E in curves:
            lift = self._oracle(fq, E)
            pts = all_points_fq(E)
            # curve_order_fq counts a != 0 only at d = 1 (TestPointCount).
            N = curve_order_fq(E) if fq.d == 1 or not any(E.a) else len(pts)
            assert len(pts) == N and pts[0] is None
            sample = rng.sample(pts[1:], min(12, N - 1))
            if E is curves[-1]:
                sample.append(two_torsion)
            for P in sample:
                assert E.on_curve(P) and lift(P).on_curve()
                assert E.add(None, P) == E.add(P, None) == P
                assert E.add(P, E.neg(P)) is None
                assert lift(E.add(P, P)) == lift(P) + lift(P)
                for Q in rng.sample(sample, 4):
                    R = E.add(P, Q)
                    assert E.on_curve(R) and lift(R) == lift(P) + lift(Q)
                for n in (0, 1, -1, N, N - 1, N + 1, rng.randrange(2, N)):
                    assert lift(E.mul(n, P)) == n * lift(P)
                assert E.mul(N, P) is None and E.mul(N + 1, P) == P
                assert E.mul(N - 1, P) == E.neg(P) == E.mul(-1, P)
            assert E.add(None, None) is None and E.mul(5, None) is None
        E = curves[-1]
        assert E.add(two_torsion, two_torsion) is None
        assert E.neg(two_torsion) == two_torsion

    @pytest.mark.parametrize("p, idx, degree", LAW_PRIMES)
    def test_reduce_point_refuses_a_point_off_the_curve(self, mw_data, K, p, idx, degree):
        E = mw_data.curve(1)
        g1 = mw_data.points(1)[0]
        pr = primes_above(K, p)[idx]
        Ebar = reduce_curve(E, pr)
        x, y = g1.affine()
        assert Ebar.on_curve(reduce_point(Ebar, g1, pr))
        off = EcPoint(E, x, y + 1, K.one())          # Z != 0 after reduction
        with pytest.raises(BadPrime):
            reduce_point(Ebar, off, pr)
        at_infinity = EcPoint(E, K(F(1, p)), K.one(), K.one())   # (1 : 0 : 0) mod p
        with pytest.raises(BadPrime):
            reduce_point(Ebar, at_infinity, pr)


def _reductions(E, K, qs):
    """(pr, Ebar, #E(F_q)) at every prime of K above each q in qs."""
    rows = []
    for q in qs:
        for pr in primes_above(K, q):
            Ebar = reduce_curve(E, pr)
            rows.append((pr, Ebar, curve_order_fq(Ebar)))
    return rows


class TestSieve:
    def test_table2_generators_not_3_divisible(self, mw_data, K):
        E = mw_data.curve(1)
        pts = mw_data.points(1)
        rows = _reductions(E, K, (5, 7, 11, 13, 23, 37, 59, 61))
        result, used = non_divisibility_sieve(pts, 3, rows)
        assert result is True
        assert used  # the certifying prime set is recorded

    def test_constructed_counterexample(self, mw_data, K):
        E = mw_data.curve(1)
        g1 = mw_data.points(1)[0]
        thrice = [3 * g1]
        rows = _reductions(E, K, (5, 7, 11, 13, 23, 37))
        result, used = non_divisibility_sieve(thrice, 3, rows)
        assert result is not True  # 3*g1 is 3-divisible everywhere

    def test_one_multiple_path_matches_enumeration(self, mw_data, K):
        """Where 3 || #E(F_q), the sieve tests S in 3E(F_q) as (N/3)S = O;
        its survivors must be those of enumerating 3E(F_q)."""
        E = mw_data.curve(1)
        g1, g2 = mw_data.points(1)
        points = [g1, g2, 3 * g1 + g2]
        checked = 0
        for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            try:
                prs = primes_above(K, q, degree_cap=1)
            except BadPrime:
                continue
            for pr in prs:
                Ebar = reduce_curve(E, pr)
                N = curve_order_fq(Ebar)
                if N % 3 or (N // 3) % 3 == 0:
                    continue
                triple = [reduce_point(Ebar, P, pr) for P in points]
                mult = {Ebar.mul(3, Q) for Q in all_points_fq(Ebar)}
                expected = [e for e in product(range(3), repeat=3) if any(e)
                            and reduce(Ebar.add, (Ebar.mul(k, P) for k, P in zip(e, triple)))
                            in mult]
                result, _ = non_divisibility_sieve(points, 3, [(pr, Ebar, N)])
                assert (result is True and not expected) or result == expected
                checked += 1
        assert checked >= 3

    def test_reads_rows_up_to_the_one_that_certifies(self, mw_data):
        """Rows are pulled one at a time, up to the one that removes the
        last vector and no further; with no points no row is pulled."""
        E = mw_data.curve(1)
        gens = mw_data.points(1)
        for m in (3, 5, 7):
            rows = [row for q in small_primes(600) if q >= 5
                    for row in reductions_at(E, q) if row[2] % m == 0]
            read = []
            result, used = non_divisibility_sieve(gens, m, (read.append(row) or row
                                                            for row in rows))
            k = len(read)
            assert result is True and k < len(rows)
            assert used[-1] == (rows[k - 1][0].p, rows[k - 1][0].idx)
            # rows[k - 1] is needed: the rows before it leave a vector.
            assert non_divisibility_sieve(gens, m, rows[:k - 1])[0] is not True
            read.clear()
            assert non_divisibility_sieve([], m, (read.append(row) or row
                                                  for row in rows)) == (True, [])
            assert read == []

    @pytest.mark.parametrize("i", range(1, 7))
    def test_linear_tables_match_brute_force(self, mw_data, i):
        """On E_i, for m in {3, 5, 7, 11} and r = 1, 2, 3 points, the
        survivors at one row are the e with sum e_j P_j in mE(F_q), the sum
        made by scalar multiplications.  Rows (N <= 1000, which bounds the
        enumeration of mE(F_q)): the first with gcd(m, N/m) = 1, where the
        sieve tabulates k (N/m) P_j, and the first with m^2 | N, where it
        tabulates k P_j against mE(F_q)."""
        E = mw_data.curve(i)
        g1, g = mw_data.points(i)[0], mw_data.points(i)[-1]
        points = [g1, g + g1, 3 * g + 2 * g1]
        paths = set()
        rows = (row for q in small_primes(400) if q >= 5 for row in reductions_at(E, q))
        for pr, Ebar, N in rows:
            for m in (3, 5, 7, 11):
                if N % m or N > 1000 or (m, gcd(m, N // m)) in paths:
                    continue
                paths.add((m, gcd(m, N // m)))
                red = [reduce_point(Ebar, P, pr) for P in points]
                mE = {Ebar.mul(m, Q) for Q in all_points_fq(Ebar)}
                for r in (1, 2, 3):
                    expected = [e for e in product(range(m), repeat=r) if any(e)
                                and reduce(Ebar.add, map(Ebar.mul, e, red[:r])) in mE]
                    result, used = non_divisibility_sieve(points[:r], m, [(pr, Ebar, N)])
                    assert (result is True and not expected) or result == expected
                    assert used == ([] if len(expected) == m**r - 1 else [(pr.p, pr.idx)])
        assert paths == {(m, c) for m in (3, 5, 7, 11) for c in (1, m)}


class TestPointCount:
    """curve_order_fq counts on coordinate integers; all_points_fq, which
    enumerates E(F_q) with field elements, is the oracle."""

    # Degree-1 primes of K above 11 (q = 2 mod 3) and 37 (q = 1 mod 3),
    # degree-2 primes above 7 and 13, and the degree-4 prime above 5.
    @pytest.mark.parametrize("p, degree", [(11, 1), (37, 1), (7, 2), (13, 2), (5, 4)])
    def test_trusted_curves_match_enumeration(self, mw_data, K, p, degree):
        prs = [pr for pr in primes_above(K, p) if pr.degree == degree]
        assert prs
        for i in range(1, 7):
            E = mw_data.curve(i)
            for pr in prs:
                Ebar = reduce_curve(E, pr)
                N = curve_order_fq(Ebar)
                assert N == len(all_points_fq(Ebar)), (i, pr)
                if pr.fq().q % 3 == 2:
                    assert N == pr.fq().q + 1

    @pytest.mark.parametrize("p, modulus", [(11, None), (37, [35, 1]), (7, [3, 2, 1]),
                                            (13, [1, 3, 1])])
    def test_nonzero_a_matches_enumeration(self, p, modulus, rng):
        """a != 0: counted by count_points_fp at d = 1, refused at d >= 2,
        where no curve the pipeline reduces has a != 0."""
        fq = FqField(p, modulus)
        checked = 0
        while checked < 4:
            a = tuple(rng.randrange(p) for _ in range(fq.d))
            b = tuple(rng.randrange(p) for _ in range(fq.d))
            if not any(a):
                continue
            Ebar = FqCurve(fq, a, b)
            if fq.d == 1:
                assert curve_order_fq(Ebar) == len(all_points_fq(Ebar)), (fq, a, b)
            else:
                with pytest.raises(ValueError, match="no point count"):
                    curve_order_fq(Ebar)
            checked += 1

    # The sextic-twist closed form: every y^2 = x^3 + b at q = p^2 for two
    # primes p = 2 (mod 3) (E_1 supersingular, only the order of
    # b^((q-1)/6) counts) and two p = 1 (mod 3) (E_1 ordinary, pi in
    # Z[omega]); seeded b at d = 3 and 4, where pi^d is not pi^2.  Only
    # odd d pins the sign of t: -t gives -conj(pi) and the conjugate
    # reduction map, which change Tr(conj(u) pi^d) by (-1)^d.

    @staticmethod
    def _field(p, d):
        """F_(p^d) by the first monic irreducible h of degree d mod p."""
        for tail in product(range(p), repeat=d):
            h = [*tail, 1]
            if residue_degrees(h, p) == (d,):
                return FqField(p, h)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_closed_form_matches_enumeration_at_degree_2(self, p):
        fq = self._field(p, 2)
        for b in product(range(p), repeat=2):
            if any(b):
                Ebar = FqCurve(fq, (0, 0), b)
                assert curve_order_fq(Ebar) == len(all_points_fq(Ebar)), b

    @pytest.mark.parametrize("p, d", [(7, 3), (13, 3), (5, 4), (7, 4)])
    def test_closed_form_matches_enumeration_at_degree_3_and_4(self, p, d):
        fq = self._field(p, d)
        rng = random.Random(f"sextic/{p}/{d}")
        for _ in range(6):
            b = tuple(rng.randrange(p) for _ in range(d))
            Ebar = FqCurve(fq, (0,) * d, b)
            assert curve_order_fq(Ebar) == len(all_points_fq(Ebar)), b

    def test_closed_form_matches_every_degree_2_row(self, mw_data):
        """The rows the index sieve and the Chabauty primes read: every
        prime of degree 2 of reductions_at(E_i, q), q <= 60."""
        checked = 0
        for i in range(1, 7):
            for q in small_primes(60):
                for pr, Ebar, N in reductions_at(mw_data.curve(i), q):
                    if pr.degree == 2:
                        assert N == len(all_points_fq(Ebar)), (i, pr)
                        checked += 1
        assert checked == 6 * 14

    def test_closed_form_refuses_an_impossible_state(self, monkeypatch):
        """b = 0 (b^((q-1)/6) not in mu_6), at p = 2 and 1 (mod 3), and a
        trace t of E_1 with 4p - t^2 not three times a square, raise."""
        for p in (5, 7):
            with pytest.raises(ArithmeticError, match="is not in mu_6"):
                curve_order_fq(FqCurve(self._field(p, 2), (0, 0), (0, 0)))
        monkeypatch.setattr(reduction, "count_points_fp", lambda a, b, p: p + 1)
        with pytest.raises(ArithmeticError, match="4p - t"):
            curve_order_fq(FqCurve(self._field(7, 2), (0, 0), (1, 0)))

    def test_closed_form_tests_hold_under_optimize(self):
        """python -O strips assert statements; the closed form has none,
        and its tests pass there too."""
        out = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              f"{__file__}::TestPointCount", "-k", "closed_form and not optimize"],
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stdout[-2000:]
        assert out.stdout.splitlines()[-1].startswith("10 passed"), out.stdout[-2000:]
