"""Parametrizations, the six equations, transfers, and lifting."""

import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import product

import pytest

from param_reference import (eq5_eq6_transfer, eq5_eq6_transfer_inverse, lift_by_scalings,
                             weighted_rescale)
from x3y9z2.param import (INF, STValue, SolutionTriple, equation_rhs, lift_to_ninth,
                          mordell_families, transfer_st_value)


def fam(n, swapped=False, sign=1):
    return next(p for p in mordell_families()
                if p.family == n and p.swapped == swapped and p.z_sign == sign)


class TestFamilies:
    def test_twelve_variants(self):
        assert len(mordell_families()) == 12

    def test_family3_values(self):
        f3 = fam(3)
        assert f3.evaluate(4, 1) == (288, -252, 2808)
        assert f3.evaluate(-2, 1) == (0, 36, 216)
        assert f3.evaluate(1, 0) == (1, 0, 1)

    def test_identities_random(self, rng):
        for par in mordell_families():
            for _ in range(20):
                s, t = F(rng.randint(-9, 9)), F(rng.randint(-9, 9))
                x, v, z = par.evaluate(s, t)
                assert x**3 + v**3 == z**2


class TestSixEquations:
    def test_displayed_forms(self):
        # id 5 -> s(s^3 + 8t^3), unit constant 1
        assert equation_rhs(5)((F(1), F(1))) == 9
        assert equation_rhs(5)((F(1), F(0))) == 1
        # id 6 -> 4t(t^3 - s^3), unit constant 4
        assert equation_rhs(6)((F(1), F(1))) == 0
        assert equation_rhs(6)((F(0), F(1))) == 4
        # id 2 -> -s^4 + 6s^2t^2 + 3t^4
        assert equation_rhs(2)((F(1), F(1))) == 8
        assert equation_rhs(2)((F(1), F(0))) == -1


class TestTransfer:
    def test_explicit_point(self):
        s2, t2, y2 = eq5_eq6_transfer(1, 0, 1)
        assert (s2, t2, y2) == (F(0), F(1, 4), F(1, 4))
        # eq6: y^3 = 4 t (t^3 - s^3)
        assert y2**3 == 4 * t2 * (t2**3 - s2**3)

    def test_induced_map(self):
        assert transfer_st_value(STValue(-2)) == STValue(1)
        assert transfer_st_value(STValue(4)) == STValue(F(-1, 2))
        assert transfer_st_value(STValue(0)) == INF
        assert transfer_st_value(INF) == STValue(0)

    def test_roundtrip_and_involution(self, rng):
        rhs5 = equation_rhs(5)
        for _ in range(80):
            s, t = F(rng.randint(-6, 6)), F(rng.randint(-6, 6))
            v = STValue(s, t) if (s, t) != (0, 0) else STValue(1)
            assert transfer_st_value(transfer_st_value(v)) == v
            y3 = rhs5((s, t))
            triple = (s, t, y3)  # cube not needed for the bijection test
            back = eq5_eq6_transfer_inverse(*eq5_eq6_transfer(*triple))
            assert back == (s, t, y3)

    def test_transfer_preserves_validity(self):
        # (2, 1, 2) solves eq5: 2^3 = 8 = 2*(8+8)? no — use (1, 0, 1) and (2, -1, y)
        s, t = F(2), F(-1)
        y3 = equation_rhs(5)((s, t))
        assert y3 == 2 * (8 - 8)  # = 0, cube of 0
        s2, t2, y2 = eq5_eq6_transfer(s, t, 0)
        assert y2**3 == equation_rhs(6)((s2, t2))


class TestRescale:
    def test_identity(self):
        assert weighted_rescale(1, 1, 7, 1) == (1, 1, 7)

    def test_eq1_to_eq3(self):
        # A solution of equation 1 yields (s/2, t/2, y/4) on equation 3:
        # with lam = 1/2, f1(lam s, lam t) = lam^4 f1(s, t) = 4 * f3-scale.
        s, t = F(2), F(2)
        y3 = equation_rhs(1)((s, t))
        assert y3 == 64  # y = 4 solves equation 1 at (2, 2)
        s2, t2, y2 = s / 2, t / 2, F(4) / 4
        assert y2**3 == equation_rhs(3)((s2, t2))

    def test_st_invariance_200(self, rng):
        for _ in range(200):
            s = F(rng.randint(-9, 9), rng.randint(1, 4))
            t = F(rng.randint(1, 9), rng.randint(1, 4))
            y = F(rng.randint(-9, 9), rng.randint(1, 4))
            lam = F(rng.randint(1, 9), rng.randint(1, 9))
            s2, t2, y2 = weighted_rescale(s, t, y, lam)
            assert s2 / t2 == s / t
            # equation validity is preserved for every quartic rhs
            for eq in (1, 2, 5, 6):
                rhs = equation_rhs(eq)
                if y**3 == rhs((s, t)):
                    assert y2**3 == rhs((s2, t2))


class TestLift:
    def test_paper_rows(self):
        assert [(s.x, s.y, s.z) for s in lift_to_ninth(32, -28, 104)] == [(-7, 2, 13)]
        assert [(s.x, s.y, s.z) for s in lift_to_ninth(4, 8, 24)] == [(2, 1, 3)]
        assert lift_to_ninth(132, -24, 1512) == []
        assert lift_to_ninth(-3, 3, 0) == []
        zset = {(s.x, s.y, s.z) for s in lift_to_ninth(1, -1, 0)}
        assert zset == {(1, -1, 0), (-1, 1, 0)}

    def test_output_invariant(self):
        for (x, v, z) in [(0, 36, 216), (9, 0, 27), (-63, 72, 351), (288, -252, 2808)]:
            for sol in lift_to_ninth(x, v, z):
                from math import gcd
                assert sol.x**3 + sol.y**9 == sol.z**2
                assert gcd(gcd(abs(sol.x), abs(sol.y)), sol.z) == 1

    def test_lift_matches_every_scaling(self):
        """The one primitivity check after content removal against trying all
        625 scalings 2^a 3^b (tests/param_reference.py), on 1,200 seeded
        solutions of x^3 + v^3 = z^2: values of the twelve families and
        known solutions, with zeros, scaled by 2^a 3^b 5^c, with x and v
        swapped and z of either sign."""
        rng = random.Random(17)
        pool = [(-7, 8, 13), (2, 1, 3), (2, 2, 4), (65, 56, 671), (1, 0, 1), (0, 1, 1),
                (1, -1, 0), (0, 0, 0), (4, 0, 8), (0, 9, 27), (5, -5, 0)]
        for family, (s, t) in product(mordell_families(), product(range(-4, 5), repeat=2)):
            x, v, z = family.evaluate(s, t)
            lam = next(m for m in (1, 2, 4) if all((m * m * c).denominator == 1
                                                   for c in (x, v, z * m)))
            pool.append((int(lam**2 * x), int(lam**2 * v), int(lam**3 * z)))
        lifted = 0
        for _ in range(1200):
            x, v, z = rng.choice(pool)
            lam = 2**rng.randrange(6) * 3**rng.randrange(5) * 5**rng.randrange(3)
            x, v, z = lam**2 * x, lam**2 * v, rng.choice((1, -1)) * lam**3 * z
            if rng.randrange(2):
                x, v = v, x
            got = lift_to_ninth(x, v, z)
            assert got == lift_by_scalings(x, v, z), (x, v, z)
            lifted += bool(got)
        assert lifted > 300

    def test_triple_validation(self):
        with pytest.raises(ValueError, match="does not satisfy"):
            SolutionTriple(1, 1, 0)

    def test_triple_validation_survives_optimize(self):
        """The check is an exception, not an assert: python -O keeps it."""
        out = subprocess.run(
            [sys.executable, "-O", "-c",
             "from x3y9z2.param import SolutionTriple; SolutionTriple(1, 1, 1)"],
            capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert "triple does not satisfy x^3+y^9=z^2" in out.stderr
