"""The Chabauty machinery: formal log, sieve, and per-curve runs."""

import math
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from fractions import Fraction as F

import pytest
from chabauty_reference import empty_mod_box, known_points_direct
from zq_reference import ZqElem

from x3y9z2.arith.localfield import ZqRing
from x3y9z2.arith.rationals import valuation
from x3y9z2.arith.roots import small_primes
from x3y9z2.chabauty.engine import (ChabautyRun, CurveProblem, PrimeContext, _empty_mod,
                                    rational_st_values, reductions_at, residue_sieve)
from x3y9z2.chabauty.series import PrecisionTooLow, formal_log
from x3y9z2.chabauty.setup import (_known_points, chabauty_setup_for_row,
                                   find_primitive_solution, trivial_torsion_certificate)
from x3y9z2.ec.reduction import FqCurve, all_points_fq, primes_above
from x3y9z2.ec.weierstrass import WeierstrassCurve, _complete_add
from x3y9z2.param import STValue


@pytest.fixture(scope="module")
def setup_eq1_row0(descent_data, mw_data, tables):
    row = tables["quartic_field_table"]["eq1"]["rows"][0]
    return chabauty_setup_for_row(descent_data, mw_data, 1, row)


class TestFormalLog:
    def test_zero_parameter(self):
        R = ZqRing(11, [0, 1], 8)
        lg, ring = formal_log(0, 1, R, R.zero())
        assert not any(lg)
        assert ring.N == 8

    def test_requires_kernel(self):
        R = ZqRing(11, [0, 1], 10)
        with pytest.raises(PrecisionTooLow):
            formal_log(0, 1, R, R.one())
        R = ZqRing(7, [1, 0, 1], 10)
        with pytest.raises(ValueError, match="degree-1"):
            formal_log(0, 1, R, R.elem(7))

    def test_frozen_regression_g1_over_11(self, mw_data, K):
        """log of (order of reduction) * g1 at the alpha -> 3 prime of 11
        on E_1; cross-checked at two precisions."""
        E = mw_data.curve(1)
        g1 = mw_data.points(1)[0]
        V = 12 * g1
        x, y = V.affine()
        pr = next(p for p in primes_above(K, 11)
                  if p.degree == 1 and p.factor == [8, 1])
        digits = []
        for prec in (24, 40):
            ux, vx = pr.embed(x, prec)
            uy, vy = pr.embed(y, prec)
            R = ZqRing(11, [0, 1], prec)
            t = R.mul(R.elem(-ux[0] * 11**(vx - vy)), R.inv(R.elem(uy[0])))
            bu, bv = pr.embed(E.b, prec)
            lg, ring = formal_log(0, bu[0] * 11**bv, R, t, terms=20)
            assert ring.N == 21      # the tail after 20 terms: 21 * v(t)
            v = ring.val(lg)
            digits.append((v, [lg[0] // 11**v // 11**i % 11 for i in range(10)]))
        assert digits[0] == digits[1]
        assert digits[0] == (1, [9, 7, 9, 9, 7, 3, 1, 6, 4, 8])

    def test_additivity_smoke(self):
        """Small additivity check; the 200-case suite runs in the
        acceptance module (criterion 7e)."""
        E = WeierstrassCurve(F(0), F(-2))
        P = E.point(F(3), F(5))
        from x3y9z2.ec.torsion import count_points_fp
        V = count_points_fp(0, -2, 11) * P
        mults = {m: m * V for m in range(1, 7)}
        R = ZqRing(11, [0, 1], 24)

        def log_of(m):
            x, y = mults[m].affine()
            return formal_log(0, -2, R, R.from_fraction(-x / y), terms=18)

        logs = {m: log_of(m) for m in range(1, 7)}
        assert min(ring.N for _, ring in logs.values()) >= 12
        for m1, m2 in [(1, 1), (1, 2), (2, 3), (3, 3), (2, 2)]:
            d = logs[m1 + m2][0][0] - logs[m1][0][0] - logs[m2][0][0]
            assert d % 11**12 == 0


class TestSieve:
    def test_survivor_count_frozen(self, setup_eq1_row0):
        run = ChabautyRun(setup_eq1_row0.curve, setup_eq1_row0.psi,
                          setup_eq1_row0.gens, setup_eq1_row0.known_points, 11)
        sd, survivors = residue_sieve(run.contexts, len(setup_eq1_row0.gens))
        assert sd.n_classes() == 144
        assert len(survivors) == 3

    @pytest.mark.parametrize("eq, delta, p, n_classes, adds, values",
                             [(1, 3, 11, 444, 124, 127), (1, 3, 31, 84, 124, 46),
                              (2, 1, 11, 144, 390, 60)],
                             ids=["1-3-11-444", "1-3-31-84", "2-1-11-144"])
    def test_classes_walk_each_orbit_once(self, descent_data, mw_data, tables, monkeypatch,
                                          eq, delta, p, n_classes, adds, values):
        """iter_classes yields, c2 outer and c1 inner, the class
        (c1, c2)[:rank] and the images c1 g1 + c2 g2 at every prime, as
        FqCurve.mul makes them.  The images are distinct.  Each prime's row
        holds ord_j(g1) multiples and o1 is their lcm, so residue_sieve
        adds points per prime and row, at most o1 k2 #primes times (one
        step per class and prime), and evaluates each image once."""
        from x3y9z2.chabauty import engine
        row = tables["quartic_field_table"][f"eq{eq}"]["rows"][delta]
        s = chabauty_setup_for_row(descent_data, mw_data, eq, row)
        run = ChabautyRun(s.curve, s.psi, s.gens, s.known_points, p)
        rank = len(s.gens)
        counted = Counter()
        add, value = FqCurve.add, engine.PrimeContext.residue_value
        monkeypatch.setattr(FqCurve, "add",
                            lambda E, P, Q: counted.update(["add"]) or add(E, P, Q))
        monkeypatch.setattr(engine.PrimeContext, "residue_value",
                            lambda ctx, P: counted.update(["value"]) or value(ctx, P))
        sd, _ = residue_sieve(run.contexts, rank)
        assert (counted["add"], counted["value"]) == (adds, values)
        assert sd.n_classes() == n_classes
        assert adds <= n_classes * len(run.contexts)    # 1,332 / 168 / 432
        monkeypatch.undo()
        for ctx, mults in zip(run.contexts, sd.rows):
            g = ctx.gens_bar[0]
            assert ctx.Ebar.mul(len(mults), g) is None
            assert all(ctx.Ebar.mul(k, g) is not None for k in range(1, len(mults)))
        assert sd.o1 == math.lcm(*map(len, sd.rows))
        classes = list(sd.iter_classes())
        expected = [((c1, c2)[:rank],
                     tuple(ctx.Ebar.add(ctx.Ebar.mul(c1, ctx.gens_bar[0]),
                                        ctx.Ebar.mul(c2, ctx.gens_bar[-1]))
                           for ctx in run.contexts))
                    for c2 in range(sd.k2) for c1 in range(sd.o1)]
        assert classes == expected
        assert len({imgs for _, imgs in classes}) == len(classes)

    @staticmethod
    def _projective_residue_value(fq, coeffs, P):
        """The projective rule that residue_value replaced, kept as its
        oracle: [num : den] over F_q at (X : Y : Z) for the coefficient
        coordinates coeffs, with the Frobenius test num^p den = den^p num
        for a value in P^1(F_p)."""
        n0, n1, n2, d0, d1, d2 = (ZqElem(fq, c) for c in coeffs)
        X, Y, Z = ((ZqElem(fq, 0), ZqElem(fq, 1), ZqElem(fq, 0)) if P is None
                   else (ZqElem(fq, P[0]), ZqElem(fq, P[1]), ZqElem(fq, 1)))
        num = n0 * Z + n1 * X + n2 * Y
        den = d0 * Z + d1 * X + d2 * Y
        if not num and not den:
            return "undefined"
        if num**fq.p * den != den**fq.p * num:
            return "incompatible"
        if not den:
            return ("inf", None)
        ratio = den.inverse() * num
        if any(ratio.coords[1:]):
            return "incompatible"
        return ("val", ratio.coords[0])

    @pytest.mark.parametrize("p", [11, 31])
    def test_residue_value_matches_projective_rule(self, setup_eq1_row0, p):
        """Every point of E(F_q) at every degree-2 prime above p, for psi
        and for three more coefficient vectors: [x - x0 : x - x0], which
        is undefined where x = x0, [1 : x - x0], which is oo there, and a
        seeded random one."""
        s = setup_eq1_row0
        rng = random.Random(f"residue-value/{p}")
        seen = set()
        for row in reductions_at(s.curve, p):
            pr = row[0]
            if pr.degree != 2:
                continue
            ctx = PrimeContext(row, s.curve, s.psi, s.gens, 8)
            pts = all_points_fq(ctx.Ebar)
            assert len(pts) == ctx.order
            one, zero, minus_x0 = (1, 0), (0, 0), tuple(-c % p for c in pts[1][0])
            vectors = [ctx.psi_q, (minus_x0, one, zero) * 2,
                       (one, zero, zero, minus_x0, one, zero),
                       tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(6))]
            for coeffs in vectors:
                if coeffs is not vectors[0]:
                    ctx.psi_bar = coeffs
                for P in pts:
                    got = ctx.residue_value(P)
                    assert got == self._projective_residue_value(pr.fq(), coeffs, P), (pr, P)
                    seen.add(got if isinstance(got, str) else got[0])
        assert seen == {"incompatible", "val", "inf", "undefined"}

    def test_monotone_in_primes(self, setup_eq1_row0):
        """Survivors at all primes above 11 are a subset of the survivors
        computed with any subset of those primes."""
        run = ChabautyRun(setup_eq1_row0.curve, setup_eq1_row0.psi,
                          setup_eq1_row0.gens, setup_eq1_row0.known_points, 11)
        _, all_p = residue_sieve(run.contexts, 2)
        sd_one, one_p = residue_sieve(run.contexts[:1], 2)

        def class_of(sd, nvec):
            """The rank-2 class (c1, c2) of nvec in the lattice basis
            (o1, 0), (-a, k2) of sd."""
            c2 = nvec[1] % sd.k2
            mu = (nvec[1] - c2) // sd.k2
            return ((nvec[0] + mu * sd.a_rel) % sd.o1, c2)

        # class labels recomputed in the coarser lattice for comparison
        assert {class_of(sd_one, cls) for cls in all_p} <= set(one_p)

    def test_rank_zero_and_empty_values(self, setup_eq1_row0):
        outcome = rational_st_values(setup_eq1_row0.curve, setup_eq1_row0.psi,
                                     [], [], primes=(11,))
        assert outcome.complete
        assert outcome.values == []


def _reference_add(ctx, W, P, Q):
    """ZqPoint.add written on the generic law: _complete_add over Z_q with
    the operators of tests/zq_reference.py, the sum divided by the largest
    p^m dividing every coordinate, and m digits taken off the known
    precision.  ((X, Y, Z), known), or PrecisionTooLow."""
    ring, p = ctx.ring, ctx.p
    out = _complete_add(W, *(ZqElem(ring, c) for c in (P[0] + Q[0])))
    known = min(P[1], Q[1])
    m = min((valuation(c, p) for u in out for c in u.coords if c), default=ring.N)
    if m >= known:
        raise PrecisionTooLow("projective point lost all precision")
    return tuple(tuple(c // p**m for c in u.coords) for u in out), known - m


def _reference_mul(ctx, W, P, n):
    """n P by the double-and-add walk of ZqPoint.mul, on _reference_add."""
    if n < 0:
        (X, Y, Z), known = P
        P, n = ((X, ctx.ring.elem([-c for c in Y]), Z), known), -n
    acc = ((ctx.ring.zero(), ctx.ring.one(), ctx.ring.zero()), ctx.ring.N)
    while n:
        if n & 1:
            acc = _reference_add(ctx, W, acc, P)
        P = _reference_add(ctx, W, P, P)
        n >>= 1
    return acc


@pytest.mark.parametrize("p", [11, 31])
def test_zq_point_law_matches_the_generic_law(setup_eq1_row0, p):
    """ZqPoint.add and mul, the a = 0 law on coordinate tuples with 3b
    precomputed, against _reference_add on every PrimeContext ring at p
    (d = 1 and 2 at 11, d = 2 at 31): the coordinates and the known
    precision of sums and multiples of points i g1 + j g2.  The points
    include pairs whose difference reduces to a point of order 2, where
    the sum's coordinates share a factor p and the rescale takes a digit."""
    s = setup_eq1_row0
    run = ChabautyRun(s.curve, s.psi, s.gens, s.known_points, p)
    degrees, rescaled = set(), 0
    for ctx in run.contexts:
        ring = ctx.ring
        b, v = ctx.pr.embed(s.curve.b, ring.N)
        W = WeierstrassCurve(ZqElem(ring, 0), ZqElem(ring, b) * p**v)
        order = next(k for k in range(1, ctx.order + 1)
                     if ctx.Ebar.mul(k, ctx.gens_bar[0]) is None)
        assert order % 2 == 0
        half = ctx.gens_q[0].mul(order // 2)
        pts = [ctx.combination((i, j)) for i in range(-2, 3) for j in range(-1, 2)]
        pts += [P.add(half) for P in pts[::3]]
        as_ref = {id(P): ((P.X, P.Y, P.Z), P.known) for P in pts}
        for P in pts:
            for Q in pts:
                R = P.add(Q)
                assert ((R.X, R.Y, R.Z), R.known) == _reference_add(ctx, W, as_ref[id(P)],
                                                                 as_ref[id(Q)])
                rescaled += R.known < min(P.known, Q.known)
        for P in pts[::4]:
            for n in (0, 1, 2, 3, -5, order // 2, order, ctx.order + 1):
                R = P.mul(n)
                assert ((R.X, R.Y, R.Z), R.known) == _reference_mul(ctx, W, as_ref[id(P)], n)
        degrees.add(ring.d)
    assert degrees == ({1, 2} if p == 11 else {2})
    assert rescaled >= 5 * len(run.contexts)


class TestClosing:
    def test_mechanisms_at_13(self, setup_eq1_row0):
        """At p = 13, eq 1 delta 0 closes six classes only modulo p^3, by
        the Newton form with its second differences."""
        s = setup_eq1_row0
        closed, cert = ChabautyRun(s.curve, s.psi, s.gens, s.known_points, 13).run()
        assert not closed
        assert Counter(c["mechanism"] for c in cert["classes"]) == {
            "closed-empty-mod-p2": 6, "closed-empty-mod-p3": 6,
            "unclosed-phantom-possible": 2, "closed-unique-linear": 1}

    def test_empty_mod_on_hand_made_differences(self):
        """The Newton form sum_e Delta^e C(n, e) at p = 5: an empty case and
        one with a zero for k = 2 and k = 3.  Each k = 3 verdict flips when
        the second differences (C(n, 2) and the mixed n1 n2) are dropped."""
        def terms(pairs, known=10):
            return [(e, [(d, known) for d in diff]) for e, diff in pairs]

        assert _empty_mod(5, 2, terms([((0,), [5]), ((1,), [25])]))
        assert not _empty_mod(5, 2, terms([((0,), [5]), ((1,), [5])]))
        # A unit first difference: the zero 1 + 24 lies beyond n < 5.
        assert not _empty_mod(5, 2, terms([((0,), [1]), ((1,), [1])]))
        # 25 (2 + n + 2 C(n, 2)) = 25 (n^2 + 2): -2 is not a square mod 5.
        assert _empty_mod(5, 3, terms([((0,), [50]), ((1,), [25]), ((2,), [50])]))
        # 25 (4 + C(n, 2)) vanishes mod 125 at n = 2.
        assert not _empty_mod(5, 3, terms([((0,), [100]), ((1,), [0]), ((2,), [25])]))
        # 25 (4 + n1 n2) vanishes mod 125 at n = (1, 1).
        second = [((2, 0), [0]), ((1, 1), [25]), ((0, 2), [0])]
        assert not _empty_mod(5, 3, terms([((0, 0), [100]), ((1, 0), [0]), ((0, 1), [0])]
                                          + second))
        # 25 (n1 - 1) and 25 (1 + n2 - n1 n2): n1 = 1 leaves 25 in the second.
        second = [((2, 0), [0, 0]), ((1, 1), [0, -25]), ((0, 2), [0, 0])]
        assert _empty_mod(5, 3, terms([((0, 0), [-25, 25]), ((1, 0), [25, 0]),
                                       ((0, 1), [0, 25])] + second))
        with pytest.raises(PrecisionTooLow, match=r"mod-p\^3 sieve"):
            _empty_mod(5, 3, terms([((0,), [50]), ((1,), [25]), ((2,), [50])], known=2))

    def test_empty_mod_agrees_with_the_box_scan_on_the_runs(self, descent_data, mw_data,
                                                            tables, setup_eq1_row0,
                                                            monkeypatch):
        """Each _empty_mod call on every class of the default run (the rows
        of equations 1 and 2 at the default primes) and of eq 1 delta 0 at
        p = 13, where closed-empty-mod-p3 occurs, decides what the scan of
        the whole box decides."""
        from x3y9z2.chabauty import engine
        calls = []
        monkeypatch.setattr(engine, "_empty_mod", lambda *call: calls.append(call)
                            or _empty_mod(*call))
        for eq in (1, 2):
            for row in tables["quartic_field_table"][f"eq{eq}"]["rows"]:
                s = chabauty_setup_for_row(descent_data, mw_data, eq, row)
                assert rational_st_values(s.curve, s.psi, s.gens, s.known_points).complete
        s = setup_eq1_row0
        ChabautyRun(s.curve, s.psi, s.gens, s.known_points, 13).run()
        assert all(_empty_mod(*call) == empty_mod_box(*call) for call in calls)
        assert Counter((p, k, _empty_mod(p, k, terms)) for p, k, terms in calls) == {
            (11, 2, True): 10, (11, 2, False): 4, (11, 3, False): 4,
            (13, 2, True): 6, (13, 2, False): 8, (13, 3, True): 6, (13, 3, False): 2}

    def test_empty_mod_agrees_with_the_box_scan_on_random_tables(self):
        """Seeded Newton-form tables at p = 3, 5, 7, 11, k = 2, 3 and ranks 1
        and 2, with one to three equations: a difference of order j >= 1 is
        p^j times a random residue, a first difference a unit in about a
        third of the tables, and H(0) has a random valuation up to k."""
        rng = random.Random(2718)
        outcomes = Counter()
        for p, k, rank in product((3, 5, 7, 11), (2, 3), (1, 2)):
            for _ in range(8 if p**k * rank > 700 else 25):
                unit, n_eq = rng.random() < 0.3, rng.randint(1, 3)
                terms = []
                for e in product(range(k), repeat=rank):
                    order = sum(e)
                    if order < k:
                        v = rng.randint(0, k) if not order else (
                            rng.randint(0, 1) if order == 1 and unit else order)
                        terms.append((e, [(p**v * rng.randrange(p**k), k)
                                          for _ in range(n_eq)]))
                empty = _empty_mod(p, k, terms)
                assert empty == empty_mod_box(p, k, terms), (p, k, terms)
                outcomes[empty] += 1
        assert min(outcomes.values()) >= 100


def test_reduction_orders_count_each_prime_once(mw_data, monkeypatch):
    """reductions_at reduces and counts each (curve, q) once: a wider scan
    repeats the narrower one's rows from the same counts.  The trivial-
    torsion certificate reads the same table, so it counts no point for
    a q the table holds; it is made once per curve, and handed out again."""
    from x3y9z2.chabauty import engine, setup
    E = mw_data.curve(1)

    def table(bound):
        return [row for q in small_primes(bound) if q >= 5
                for row in engine.reductions_at(E, q)]

    engine.reductions_at.cache_clear()
    counted = []
    count = engine.curve_order_fq
    monkeypatch.setattr(engine, "curve_order_fq",
                        lambda Ebar: counted.append(Ebar) or count(Ebar))
    small, wide = table(100), table(200)
    assert wide[:len(small)] == small and small[-1][0].p < 100 < wide[-1][0].p
    assert table(100) == small and len(counted) == len(wide)

    setup.trivial_torsion_certificate.cache_clear()
    first = setup.trivial_torsion_certificate(E)
    second = setup.trivial_torsion_certificate(E)
    assert first["primes"] and len(counted) == len(wide)
    assert second is first


def test_chabauty_run_reads_the_reduction_table(setup_eq1_row0, K, monkeypatch):
    """At 11 and 31 the table's rows cover every prime above p (degrees
    summing to [K:Q] = 4), so a run reduces and counts nothing itself.
    At 5, whose one prime has degree 4, the run reduces and counts there;
    at 2 BadPrime reaches rational_st_values."""
    from x3y9z2.chabauty import engine
    s = setup_eq1_row0
    for p in (11, 31):
        rows = reductions_at(s.curve, p)
        monkeypatch.setattr(engine, "curve_order_fq", None)
        run = ChabautyRun(s.curve, s.psi, s.gens, s.known_points, p)
        monkeypatch.undo()
        assert [(ctx.pr, ctx.Ebar, ctx.order) for ctx in run.contexts] == list(rows)
        assert sum(ctx.pr.degree for ctx in run.contexts) == K.degree
    ctx, = ChabautyRun(s.curve, s.psi, s.gens, s.known_points, 5).contexts
    assert reductions_at(s.curve, 5) == () and ctx.pr.degree == 4
    assert ctx.order == len(all_points_fq(ctx.Ebar))
    outcome = rational_st_values(s.curve, s.psi, s.gens, s.known_points, primes=(2,))
    assert outcome.reason == "p=2: bad prime (2 divides disc of the defining polynomial)"


def test_index_certificate_factors_each_prime_once(mw_data, monkeypatch):
    """certify_index_coprimality calls primes_above once per scanned q,
    also for an ell that needs primes above 600 (17 here: no prime below
    600 has 17 | #E(F_q)): each ell is one lazy pass over the reduction
    table, which factors each q once.  The pass ends at 1019, the prime
    that certifies 17, not at the bound 5000.
    The curve is E1 twisted by u = 2, which no other test reduces."""
    from x3y9z2.chabauty import engine
    from x3y9z2.ec import reduction
    E1 = mw_data.curve(1)
    E = WeierstrassCurve(E1.a, E1.b * 64)
    gens = [E.point(4 * x, 8 * y) for x, y in (g.affine() for g in mw_data.points(1))]
    calls = []
    factor = reduction.primes_above

    def counted(field, q, *args, **kwargs):
        calls.append(q)
        return factor(field, q, *args, **kwargs)

    monkeypatch.setattr(reduction, "primes_above", counted)
    monkeypatch.setattr(engine, "primes_above", counted)
    certified, failed = engine.certify_index_coprimality(E, gens, {5, 17})
    assert failed == [] and sorted(certified) == [5, 17]
    assert certified[17] == [(1019, 0), (1019, 1)]
    assert calls == [q for q in small_primes(2000) if 5 <= q <= 1019]


def test_torsion_claims_refuted_by_characters(mw_data, monkeypatch):
    """On each of the six E_i, "-c is not a cube", "c is not a square" and
    "-4c is not a cube or -3c is not a square" are each proven by a
    power-residue symbol != 1, so the root search is never asked."""
    from x3y9z2.chabauty import setup

    def no_root_search(*args):
        raise RuntimeError("nf_nth_root was called")

    monkeypatch.setattr(setup, "nf_nth_root", no_root_search)
    trivial_torsion_certificate.cache_clear()
    for i in range(1, 7):
        assert trivial_torsion_certificate(mw_data.curve(i))["primes"]
    trivial_torsion_certificate.cache_clear()


# c in K, a = alpha, and the torsion point it makes.
TORSION_CURVES = {
    "c = (a + 1)^2": (lambda K: (K.gen() + 1) ** 2, r"3-torsion \(x = 0\)"),     # (0, a + 1)
    "-c = (a + 1)^3": (lambda K: -(K.gen() + 1) ** 3, "2-torsion"),              # (a + 1, 0)
    "c = -432": (lambda K: K(-432), r"3-torsion \(x\^3 = -4c\)"),                 # (12, 36)
}


@pytest.mark.parametrize("name", TORSION_CURVES)
def test_torsion_found_on_curves_with_torsion(K, name):
    """Where c makes a torsion point, no symbol refutes its claim, and the
    root search finds the point's coordinate: CurveProblem."""
    c_of, torsion = TORSION_CURVES[name]
    E = WeierstrassCurve(K.zero(), c_of(K))
    with pytest.raises(CurveProblem, match=f"curve has K-rational {torsion}"):
        trivial_torsion_certificate(E)


def test_soundness_checks_hold_under_optimize():
    """The zero inverse in F_q and the torsion refusal are exceptions, not
    asserts: python -O keeps them."""
    for code, error in [
            ("from x3y9z2.arith.localfield import _fqinv; _fqinv((0, 7), [3, 2, 1], 7)",
             "ZeroDivisionError: [0, 7] is not invertible mod 7, [3, 2, 1]"),
            ("from x3y9z2.dataio import quartic_field; "
             "from x3y9z2.ec.weierstrass import WeierstrassCurve; "
             "from x3y9z2.chabauty.setup import trivial_torsion_certificate; "
             "K = quartic_field(); a = K.gen(); "
             "trivial_torsion_certificate(WeierstrassCurve(K.zero(), (a + 1) * (a + 1)))",
             "CurveProblem: curve has K-rational 3-torsion (x = 0)")]:
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert error in out.stderr


def test_known_points_match_direct_sums(descent_data, mw_data, tables):
    """On the rank-2 row eq 2 delta 1, the box walk finds the same
    (nvec, psi-value) list as evaluating each sum n_i g_i afresh
    (tests/chabauty_reference.py), with equal points."""
    row = tables["quartic_field_table"]["eq2"]["rows"][1]
    s = chabauty_setup_for_row(descent_data, mw_data, 2, row)
    assert len(s.gens) == 2
    P0 = s.known_points[-1][1]
    got = _known_points(s.curve, s.psi, s.gens, P0, 3)
    ref = known_points_direct(s.curve, s.psi, s.gens, P0, 3)
    assert [(nvec, val) for nvec, _, val in got] == [(nvec, val) for nvec, _, val in ref]
    assert all(P == Q for (_, P, _), (_, Q, _) in zip(got, ref))


class TestSetup:
    def test_row0_checks(self, setup_eq1_row0):
        checks = setup_eq1_row0.checks
        assert checks["st_map_matches_table"]
        assert checks["psi_p0_matches_table"]
        assert checks["isomorphic_to_table_curve"]
        assert "trivial_torsion" in checks

    def test_known_points_have_rational_values(self, setup_eq1_row0):
        for nvec, P, val in setup_eq1_row0.known_points:
            got = setup_eq1_row0.psi.rational_value(P)
            assert got == val

    def test_find_primitive_solution(self):
        s, t, y = find_primitive_solution(1, STValue(1))
        from x3y9z2.param import equation_rhs
        assert y**3 == equation_rhs(1)((s, t))
        assert s / t == 1

    def test_complete_run_eq1_delta1(self, setup_eq1_row0):
        outcome = rational_st_values(setup_eq1_row0.curve, setup_eq1_row0.psi,
                                     setup_eq1_row0.gens,
                                     setup_eq1_row0.known_points, primes=(11, 31))
        assert outcome.complete
        assert [v.serialize() for v in outcome.values] == ["oo"]
        # certificate audit: the closing prime has every class closed with
        # bound = witness count
        closing = [c for c in outcome.certificates if c.get("closing")]
        assert len(closing) == 1
        for cls in closing[0]["classes"]:
            assert cls["mechanism"].startswith("closed") or \
                cls["mechanism"] == "rank-zero-finite"
            if "bound" in cls:
                assert cls["bound"] == cls["n_known"]
