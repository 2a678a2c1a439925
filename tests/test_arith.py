"""Exact-arithmetic substrate: factorization, algebras, F_q, roots."""

import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from math import gcd, lcm

import pytest
from fq_reference import (factor_by_trial_division, fermat_inverse, is_irreducible_quartic,
                          polmod, polmul)
from nf_reference import (discriminant, minimal_polynomial, norm_resultant, ref_mul,
                          ref_norm, ref_power_table)
from zq_reference import ZqElem

from x3y9z2.arith import (
    EtaleAlgebra, NumberField, ZeroDivisorError, factor_deg_le4,
)
from x3y9z2.arith.localfield import (FqField, ZqRing, _fqinv, _fqmul, factor_quartic_mod_p,
                                     residue_degrees)
from x3y9z2.arith.poly import UPoly
from x3y9z2.arith.rationals import factorize, rational_reconstruct, valuation
from x3y9z2.arith.roots import (_inert_prime_rings, _residue_nth_roots,
                                degree_one_character_data, nf_cubic_character, nf_nth_root,
                                small_primes)

F5 = UPoly([0, 8, 0, 0, 1])          # x^4 + 8x (the split quartic)
FK = UPoly([1, -2, 0, -2, 1])        # x^4 - 2x^3 - 2x + 1 (irreducible)


def test_valuation_refuses_p_below_2():
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            valuation(12, p)
    assert valuation(F(-36, 5), 3) == 2


def test_factor_split_quartic():
    factors = factor_deg_le4(F5)
    assert [(f.coeffs, m) for f, m in factors] == [
        ((F(0), F(1)), 1),             # x
        ((F(2), F(1)), 1),             # x + 2
        ((F(4), F(-2), F(1)), 1),      # x^2 - 2x + 4
    ]


def test_factor_irreducible_quartic():
    factors = factor_deg_le4(FK)
    assert len(factors) == 1 and factors[0][1] == 1
    assert factors[0][0] == FK


def test_factor_difference_of_squares():
    factors = factor_deg_le4(UPoly([-1, 0, 1]))
    assert [(f.coeffs, m) for f, m in factors] == [
        ((F(-1), F(1)), 1), ((F(1), F(1)), 1)]


def test_factor_multiplicities_and_roundtrip(rng):
    irreducibles = [UPoly([1, 1]), UPoly([-2, 0, 1]), UPoly([3, -1]), UPoly([1, 0, 1])]
    for _ in range(60):
        lead = F(rng.randint(1, 5), rng.randint(1, 3))
        f = UPoly([lead])
        deg = 0
        while True:
            h = rng.choice(irreducibles)
            if deg + h.degree > 4:
                break
            f = f * h
            deg += h.degree
            if deg == 4 or rng.random() < 0.3:
                break
        if f.degree < 1:
            continue
        factors = factor_deg_le4(f)
        prod = UPoly([f.leading])
        for h, m in factors:
            prod = prod * h**m
        assert prod == f


def test_quartic_two_quadratic_split():
    f = UPoly([-2, 0, 1]) * UPoly([1, 0, 1])  # (x^2-2)(x^2+1)
    factors = factor_deg_le4(f)
    assert sorted((tuple(h.coeffs), m) for h, m in factors) == [
        ((F(-2), F(0), F(1)), 1), ((F(1), F(0), F(1)), 1)]


def test_rat_canonical():
    assert F(6, -4) == F(-3, 2)
    assert F(6, -4).denominator == 2


class TestEtaleAlgebra:
    def setup_method(self):
        self.A = EtaleAlgebra(F5, "th")

    def test_component_maps(self):
        th = self.A.gen()
        assert self.A.component_map(0, th) == F(0)
        assert self.A.component_map(1, th) == F(-2)

    def test_norm_identity(self):
        one = self.A.one()
        assert one.norm() == 1
        assert one.inverse() == one

    def test_generator_norm_vs_resultant_oracle(self):
        g3 = self.A([1, F(1, 6), F(1, 6), F(1, 24)])
        assert g3.norm() == 1
        assert norm_resultant(g3) == 1

    def test_norm_multiplicativity_200(self, rng):
        for _ in range(200):
            a = self.A([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            b = self.A([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            assert (a * b).norm() == a.norm() * b.norm()

    def test_mul_associative_commutative(self, rng):
        for _ in range(100):
            a, b, c = (self.A([rng.randint(-3, 3) for _ in range(4)]) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a

    def test_zero_divisor_reports_component(self):
        th = self.A.gen()
        with pytest.raises(ZeroDivisorError) as exc:
            th.inverse()  # theta vanishes on component 0 (theta -> 0)
        assert 0 in exc.value.components

    def test_norm_agrees_with_resultant_random(self, rng):
        for _ in range(50):
            a = self.A([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)])
            assert a.norm() == norm_resultant(a)


# The component degrees of the descent algebras of equations 5, 1 and 2.
DESCENT_SHAPES = {5: (1, 1, 2), 1: (4,), 2: (4,)}


@pytest.mark.parametrize("eq", sorted(DESCENT_SHAPES))
def test_descent_algebra_components_are_number_fields(eq, descent_data):
    A = descent_data.specs[eq].algebra
    assert all(isinstance(field, NumberField) for field in A.components)
    assert tuple(field.degree for field in A.components) == DESCENT_SHAPES[eq]


def _component_image_by_polynomials(field, coords):
    """m_i by UPoly arithmetic: the value at the root on a field of
    degree 1, the coordinates of the remainder mod its polynomial
    otherwise."""
    p, h = UPoly(coords), field.minpoly
    if field.degree == 1:
        return [p(-h[0])]
    rem = p % h
    return [rem[k] for k in range(field.degree)]


@pytest.mark.parametrize("eq", sorted(DESCENT_SHAPES))
def test_component_images_match_polynomial_reference(eq, descent_data):
    """component_images (an integer table times the numerators) against
    evaluation and polynomial remainders, with the product of the
    component norms equal to the norm in the algebra."""
    A = descent_data.specs[eq].algebra
    rng = random.Random(f"component-images/{eq}")
    for _ in range(200):
        coords = [F(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(4)]
        elem = A(coords)
        images = A.component_images(elem)
        assert all(img.parent is field for img, field in zip(images, A.components))
        assert [list(img.coords) for img in images] == [
            _component_image_by_polynomials(field, coords) for field in A.components]
        norm = F(1)
        for img in images:
            norm *= img.norm()
        assert norm == elem.norm()


def test_rational_roots_never_reach_the_inert_primes(monkeypatch):
    """On a field of degree 1 nf_nth_root answers from Q alone, for cubes,
    squares, sixth powers and non-powers: _inert_prime_rings is never
    called."""
    def refuse(*args):
        raise AssertionError("_inert_prime_rings reached")
    monkeypatch.setattr("x3y9z2.arith.roots._inert_prime_rings", refuse)
    for Q in (NumberField(UPoly([0, 1])), NumberField(UPoly([2, 1]))):    # roots 0, -2
        for b in (F(2), F(-3, 5), F(7, 4)):
            for n in (2, 3, 6):
                r = nf_nth_root(Q(b**n), n)
                assert r.parent is Q and r**n == Q(b**n)
        for x, n in ((2, 3), (F(3, 4), 3), (-1, 2), (2, 2), (4, 6), (8, 6), (-64, 6)):
            assert nf_nth_root(Q(x), n) is None, (x, n)
        assert nf_nth_root(Q(0), 3) == Q(0)


class TestNumberField:
    def test_unit_norms(self, K):
        al = K.gen()
        assert al.norm() == 1
        assert (al + 1).norm() == 6
        assert (al - 2).norm() == -3

    def test_theta_minimal_polynomials(self, K):
        al = K.gen()
        assert minimal_polynomial(al * al - 2 * al) == UPoly([-3, 0, 6, 0, 1])
        assert minimal_polynomial(al**3 - al**2 - al - 2) == UPoly([-3, 0, -6, 0, 1])

    def test_discriminant_matches_sylvester_oracle(self, K):
        """(-1)^(n(n-1)/2) N(f'(alpha)) by the integer determinant equals
        the Sylvester-resultant discriminant: -1728 = -2^6 3^3."""
        assert K.discriminant() == discriminant(K.minpoly) == -1728

    def test_inverse_roundtrip(self, K, rng):
        for _ in range(50):
            a = K([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)])
            if not a:
                continue
            assert a * a.inverse() == K.one()


# K and the eq5, eq1 and eq2 descent algebras.
PARENTS = [("K", FK), ("A5", F5), ("A1", UPoly([-3, 0, 6, 0, 1])),
           ("A2", UPoly([-3, 0, -6, 0, 1]))]


def _parent(poly):
    return NumberField(poly) if poly == FK else EtaleAlgebra(poly)


def _assert_canonical(e):
    """num / den in lowest terms, den > 0, and one representation of zero."""
    assert isinstance(e.den, int) and e.den > 0
    assert all(isinstance(c, int) for c in e.num)
    assert gcd(e.den, *e.num) == 1
    if not e:
        assert e.num == (0,) * len(e.num) and e.den == 1


class TestIntegerRepresentation:
    """The integer-vector arithmetic against a Fraction reference: the
    schoolbook product reduced by a Fraction power table (tests/nf_reference.py)."""

    @pytest.mark.parametrize("name, poly", PARENTS, ids=[n for n, _ in PARENTS])
    def test_matches_fraction_reference(self, name, poly):
        A = _parent(poly)
        table = ref_power_table(poly.monic())
        one = [F(1), F(0), F(0), F(0)]
        rng = random.Random(f"int-repr/{name}")

        def rand():
            return [F(rng.randint(-30, 30), rng.randint(1, 24)) if rng.random() < 0.8
                    else F(0) for _ in range(4)]

        for _ in range(300):
            u, v = rand(), rand()
            a, b = A(u), A(v)
            assert a.coords == tuple(u) and b.coords == tuple(v)
            assert (a + b).coords == tuple(x + y for x, y in zip(u, v))
            assert (a - b).coords == tuple(x - y for x, y in zip(u, v))
            assert (a * b).coords == tuple(ref_mul(u, v, table))
            s = F(rng.randint(-9, 9), rng.randint(1, 24))
            assert (a * s).coords == tuple(x * s for x in u)
            assert (s * a).coords == (a * s).coords
            k = rng.randint(0, 4)
            power = one
            for _ in range(k):
                power = ref_mul(power, u, table)
            assert (a**k).coords == tuple(power)
            norm = ref_norm(u, table)
            assert a.norm() == norm
            if norm:
                assert ref_mul(u, list(a.inverse().coords), table) == one
                assert (b / a).coords == tuple(ref_mul(v, list(a.inverse().coords), table))
            for e in (a, b, a + b, a - b, a * b, a * s, a**k, a - a, a * 0, (a + b) - b):
                _assert_canonical(e)
            c = (a + b) - b
            assert c == a and hash(c) == hash(a)
            assert A([x * 6 / 6 for x in u]) == a
            assert (a == b) == (u == v)
            assert a - a == 0 and hash(a - a) == hash(A.zero())
            assert a.denominator_lcm() == lcm(*(x.denominator for x in u))
            assert a.is_rational() == (not any(u[1:]))

    def test_scalar_forms_agree(self):
        A = EtaleAlgebra(F5)
        for s in (0, 7, -3, F(5, 12), F(-8, 3)):
            e = A(s)
            _assert_canonical(e)
            assert e == s and e == A([s, 0, 0, 0]) and e == A([str(s), "0", "0", "0"])
            assert hash(e) == hash(A([s, 0, 0, 0]))
            assert (e * 6) / 6 == e and hash((e * 6) / 6) == hash(e)
            _assert_canonical(e * 6)
        with pytest.raises(ZeroDivisionError):
            A.gen() / 0

    def test_non_integral_defining_polynomial_refused_under_optimize(self):
        """The integrality check is an exception, not an assert: python -O keeps it."""
        for make in ("NumberField(UPoly([F(1, 2), 0, 0, 0, 1]))",
                     "EtaleAlgebra(UPoly([0, 1, 0, 0, 2]))"):
            out = subprocess.run(
                [sys.executable, "-O", "-c",
                 "from fractions import Fraction as F; "
                 "from x3y9z2.arith.numberfield import EtaleAlgebra, NumberField; "
                 f"from x3y9z2.arith.poly import UPoly; {make}"],
                capture_output=True, text=True, timeout=60)
            assert out.returncode != 0
            assert "ValueError: defining polynomial" in out.stderr
            assert "is not integral" in out.stderr


def test_rational_reconstruct_roundtrip(rng):
    m = 10**12 + 39
    for _ in range(100):
        num = rng.randint(-10**4, 10**4)
        den = rng.randint(1, 10**4)
        from math import gcd
        if gcd(num, den) != 1 or gcd(den, m) != 1:
            continue
        u = num * pow(den, -1, m) % m
        assert rational_reconstruct(u, m) == F(num, den)


class TestRoots:
    def test_cube_root_roundtrip(self, K, rng):
        for _ in range(10):
            b = K([rng.randint(-2, 2) for _ in range(4)])
            if not b:
                continue
            cube = b**3
            r = nf_nth_root(cube, 3)
            assert r is not None and r**3 == cube

    def test_generator_not_cube(self, K):
        assert nf_nth_root(K.gen(), 3) is None
        # A nonzero cubic character proves the generator is not a cube.
        assert any(nf_cubic_character(K.gen(), q, r)
                   for q, r in degree_one_character_data(K, 400, 3))

    def test_characters_kill_cubes(self, K):
        al = K.gen()
        cube = (al + 1) ** 3
        for q, r in degree_one_character_data(K, 80, 3):
            assert nf_cubic_character(cube, q, r) in (0, None)

    # x -> the square root of x^2 that nf_nth_root returns (+x or -x).
    SQRT_PINS = [
        ([F(-3, 2), 0, 0, 0], -1),
        ([0, 1, 0, 0], 1),
        ([0, -1, 0, 0], -1),
        ([1, F(-1, 2), 0, 0], 1),
        ([2, 0, -1, 0], 1),
        ([5, -3, 2, -1], 1),
        ([F(3, 5), 0, F(-1, 5), F(1, 7)], 1),
        ([F(-2, 3), F(5, 6), F(1, 4), F(-7, 12)], 1),
        ([F(1, 24), F(-1, 24), F(5, 8), F(-1, 3)], -1),
        ([F(-7, 9), F(2, 9), F(-1, 18), F(4, 3)], 1),
        ([F(1, 6), F(-5, 4), F(-3, 2), F(7, 10)], 1),
    ]

    @pytest.mark.parametrize("coords, sign", SQRT_PINS)
    def test_square_root_choice_is_pinned(self, K, coords, sign):
        """Which square root comes back (it follows the residue-root order
        and the inert primes tried) was recorded before the integer
        representation of K; a change would move generator signs."""
        x = K(coords)
        assert nf_nth_root(x * x, 2) == sign * x

    def test_roots_past_the_first_inert_primes(self, K):
        """b = (alpha + 2) 17/5 is a non-unit at 5 and 17, the inert primes
        below 250000^(1/4), so its square and cube lift at 29 and beyond."""
        b = (K.gen() + 2) * F(17, 5)
        assert nf_nth_root(b * b, 2) == b
        assert nf_nth_root(b**3, 3) == b

    def test_sixth_root(self, K):
        x = (K.gen() + 2)
        r = nf_nth_root(x**6, 6)
        assert r is not None and r**6 == x**6


# q - 1 = 10, 12, 16, 288, 624, 2400: 3 does not divide 10 or 16, divides
# 12, 624 and 2400 once and 288 twice; 2 divides 10 once, the rest twice or more.
ROOT_FIELDS = [(11, None), (13, None), (17, None), (17, [14, 0, 1]),
               (5, [2, 0, 0, 0, 1]), (7, [1, 1, 0, 0, 1])]


class TestResidueRoots:
    """_residue_nth_roots returns exactly the brute-force list, in
    FqField.elements() order: which global root nf_nth_root picks (and
    so the report's generator signs) rests on that order."""

    @pytest.mark.parametrize("p, modulus", ROOT_FIELDS)
    def test_matches_enumeration(self, p, modulus, rng):
        fq = FqField(p, modulus)
        if fq.d == 4:
            assert residue_degrees(modulus, p) == (4,)
        units = [y for y in fq.elements() if any(y)]
        for n in (2, 3, 6):
            by_power = {}
            for y in units:
                by_power.setdefault(fq.pow(y, n), []).append(y)
            if fq.q < 300:
                targets = units
            else:   # n-th powers and random targets, most of them not powers
                targets = ([fq.pow(y, n) for y in rng.sample(units, 60)]
                           + rng.sample(units, 60))
            # Every unit is an n-th power exactly when gcd(n, q - 1) = 1.
            assert any(t not in by_power for t in targets) == (gcd(n, fq.q - 1) > 1)
            for t in targets:
                assert _residue_nth_roots(fq, t, n) == by_power.get(t, []), (fq, n, t)

    def test_spot_check_f17_4(self, rng):
        fq = FqField(17, [1, 3, 0, 0, 1])
        assert residue_degrees(fq.h, 17) == (4,)
        q = fq.q
        units = [fq.elem([rng.randrange(17) for _ in range(4)]) for _ in range(12)]
        for n in (2, 3, 6):
            k = gcd(n, q - 1)
            for t in [fq.pow(y, n) for y in units if any(y)] + [y for y in units if any(y)]:
                roots = _residue_nth_roots(fq, t, n)
                is_power = fq.pow(t, (q - 1) // k) == fq.one()
                # k distinct roots of y^n = t are all of them.
                assert len(roots) == (k if is_power else 0)
                assert len(set(roots)) == len(roots)
                assert all(fq.pow(y, n) == t for y in roots)
                assert roots == sorted(roots)


def test_small_primes_matches_trial_division():
    def trial(bound):
        out = []
        for n in range(2, bound + 1):
            if all(n % p for p in out if p * p <= n):
                out.append(n)
        return out
    # Out of order, and 400 twice, so that some answers come from the memo.
    for bound in (400, 1, 2, 3, 10, 97, 5000, 600, 2000, 10_000, 0, 400):
        assert small_primes(bound) == tuple(trial(bound))


# d = 1, 2 and 4: a split prime, and the residue fields of K above 7 and 5.
MUL_FIELDS = [(11, [8, 1]), (7, [3, 2, 1]), (5, [1, 3, 0, 3, 1])]


def _random_elem(ring, rng):
    return ring.elem([rng.randrange(ring.mod) for _ in range(ring.d)])


class TestFqProduct:
    """Products and powers in F_q and in Z_q mod p^5 against polynomial
    multiplication and long division (tests/fq_reference.py)."""

    @pytest.mark.parametrize("p, modulus", MUL_FIELDS)
    def test_matches_polynomial_division(self, p, modulus, rng):
        for ring in (FqField(p, modulus), ZqRing(p, modulus, 5)):
            m = ring.mod
            for _ in range(300):
                u, v = _random_elem(ring, rng), _random_elem(ring, rng)
                ref = polmod(polmul(list(u), list(v), m), ring.h, m)
                assert ring.mul(u, v) == tuple(ref + [0] * (ring.d - len(ref))), ring

    @pytest.mark.parametrize("p, modulus", MUL_FIELDS)
    def test_powers_match_repeated_products(self, p, modulus, rng):
        for ring in (FqField(p, modulus), ZqRing(p, modulus, 5)):
            m = ring.mod
            for _ in range(20):
                u = _random_elem(ring, rng)
                ref = [1]
                for e in range(40):
                    assert ring.pow(u, e) == tuple(ref + [0] * (ring.d - len(ref))), (ring, e)
                    ref = polmod(polmul(ref, list(u), m), ring.h, m)

    # The residue fields of K above 11 and 31 (h1 != 0), w^2 = -1 over 11
    # (h1 = 0), and moduli of degree 1, 3 and 4 (K's minimal polynomial),
    # whose products take the other paths of _fqmul.
    PRODUCT_MODULI = [(11, [1, 5, 1]), (31, [23, 11, 1]), (31, [27, 18, 1]), (11, [1, 0, 1]),
                      (11, [8, 1]), (31, [3, 1]), (11, [1, 1, 0, 1]), (31, [5, 0, 2, 1]),
                      (11, [1, -2, 0, -2, 1]), (31, [1, -2, 0, -2, 1])]

    @pytest.mark.parametrize("p, modulus", PRODUCT_MODULI)
    @pytest.mark.parametrize("prec", [1, 30])
    def test_written_out_product_matches_schoolbook(self, p, modulus, prec):
        """_fqmul on seeded pairs, reduced tuples and unreduced lists (the
        point sums pass both), against polmul and polmod."""
        ring = ZqRing(p, modulus, prec)
        m, d = ring.mod, ring.d
        rng = random.Random(f"fqmul/{p}/{modulus}/{prec}")
        for k in range(200):
            if k % 2:
                u, v = ([rng.randrange(-m * m, m * m) for _ in range(d)] for _ in "uv")
            else:
                u, v = _random_elem(ring, rng), _random_elem(ring, rng)
            ref = polmod(polmul(list(u), list(v), m), ring.h, m)
            assert _fqmul(u, v, ring.h, m) == tuple(ref + [0] * (d - len(ref))), (u, v)

    def test_non_monic_modulus_refused(self):
        with pytest.raises(ValueError, match="not monic"):
            FqField(7, [3, 2, 2])
        with pytest.raises(ValueError, match="not monic"):
            FqField(5, [1, 0, 0, 0, 5])     # leading coefficient 0 mod 5


@pytest.mark.parametrize("p, modulus", MUL_FIELDS)
def test_reduction_to_fq_is_a_homomorphism(p, modulus, rng):
    """Z_q mod p^5 -> F_q: the reduction of each sum, difference,
    product, power and inverse is that of the reductions, and every
    F_q element is a tuple of the precision-1 ring.  Sums and differences
    are the test reference's (tests/zq_reference.py); products, powers
    and inverses are the rings' methods."""
    R = ZqRing(p, modulus, 5)
    fq = R.residue_field
    assert fq.N == 1 and fq.mod == p and fq.q == p**R.d

    def red(x):
        y = fq.elem(x)
        assert isinstance(y, tuple) and len(y) == fq.d and all(0 <= c < p for c in y)
        return y

    for _ in range(100):
        x, y = _random_elem(R, rng), _random_elem(R, rng)
        e = rng.randrange(1, 3 * fq.q)
        X, Y = ZqElem(R, x), ZqElem(R, y)
        assert red((X + Y).coords) == (ZqElem(fq, red(x)) + ZqElem(fq, red(y))).coords
        assert red((X - Y).coords) == (ZqElem(fq, red(x)) - ZqElem(fq, red(y))).coords
        assert red(R.mul(x, y)) == fq.mul(red(x), red(y))
        assert red(R.pow(x, e)) == fq.pow(red(x), e)
        if any(red(x)):
            assert red(R.inv(x)) == fq.inv(red(x))
            assert fq.mul(red(x), fq.inv(red(x))) == fq.one()
            assert R.mul(x, R.inv(x)) == R.one()


def _first_irreducible(p, d):
    """The first monic h of degree d mod p, in product() order of
    (h_(d-1), ..., h_0), with no monic factor of lower degree."""
    for high in product(range(p), repeat=d):
        h = [*reversed(high), 1]
        if factor_by_trial_division(h, p) == [(h, 1)]:
            return h


@pytest.mark.parametrize("p, d", [(p, d) for p in (2, 3, 5, 7, 11, 31) for d in (1, 2, 3, 4)])
def test_fq_inverse_matches_fermat(p, d, rng):
    """_fqinv, extended Euclid in F_p[w] (pow mod p at d = 1), against
    u^(q - 2) written with tests/fq_reference.py: on every unit when
    q <= 1000, else on 200 seeded ones.  ZqRing.inv returns it at
    N = 1 and lifts it at N = 4; zero and multiples of p are refused."""
    h = _first_irreducible(p, d)
    fq, R = FqField(p, h), ZqRing(p, h, 4)
    if fq.q <= 1000:
        units = [u for u in product(range(p), repeat=d) if any(u)]
    else:
        units = [u for u in (tuple(rng.randrange(p) for _ in range(d)) for _ in range(200))
                 if any(u)]
    for u in units:
        inv = fermat_inverse(u, h, p)
        assert _fqinv(u, h, p) == inv, (h, u)
        assert fq.inv(fq.elem(u)) == inv
        x = R.elem([c + p * rng.randrange(p**3) for c in u])
        y = R.inv(x)
        assert R.mul(x, y) == R.one() and tuple(c % p for c in y) == inv
    for zero in ((0,) * d, (p,) * d):
        with pytest.raises(ZeroDivisionError):
            _fqinv(zero, h, p)
    for ring, zero in ((fq, fq.zero()), (R, R.elem([p] * d))):
        with pytest.raises(ZeroDivisionError):
            ring.inv(zero)


def test_degree_two_inverse_at_the_primes_of_k(K, rng):
    """The closed-form inverse at d = 2, ((a - b h1) - b w) / (a^2 - a b h1
    + b^2 h0), against u^(q - 2) (tests/fq_reference.py) on every unit at
    each degree-2 prime of K above 11 and 31, with h given mod p and mod
    p^4.  Zero and multiples of p raise ZeroDivisionError, under python -O
    too."""
    f = K.minpoly.integer_coeffs()
    moduli = [(p, h) for p in (11, 31)
              for h in factor_quartic_mod_p(f, p) if len(h) == 3]
    assert moduli == [(11, [1, 5, 1]), (31, [23, 11, 1]), (31, [27, 18, 1])]
    for p, h in moduli:
        lifted = [c + p * rng.randrange(p**3) for c in h[:2]] + [1]
        for u in product(range(p), repeat=2):
            if any(u):
                inv = fermat_inverse(u, h, p)
                assert _fqinv(u, h, p) == _fqinv(u, lifted, p) == inv, (h, u)
        for zero in ((0, 0), (p, 0), (0, p), (p, 3 * p)):
            with pytest.raises(ZeroDivisionError):
                _fqinv(zero, lifted, p)
    out = subprocess.run([sys.executable, "-O", "-c",
                          "from x3y9z2.arith.localfield import _fqinv; "
                          "_fqinv((31, 62), [23, 11, 1], 31)"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "ZeroDivisionError: [31, 62] is not invertible mod 31, [23, 11, 1]" in out.stderr


def _roots_by_evaluation(f, p):
    return [x for x in range(p) if sum(c * x**i for i, c in enumerate(f)) % p == 0]


def _monic_without_roots(degree, p, rng, irreducible=lambda g: True):
    while True:
        g = [rng.randrange(p) for _ in range(degree)] + [1]
        if not _roots_by_evaluation(g, p) and irreducible(g):
            return g


def _check_factors_against_trial_division(f, p):
    """factor_quartic_mod_p(f, p, cap) at caps 1, 2 and 4: the factors of
    degree <= cap that trial division finds, without multiplicities, when
    f is squarefree mod p; ValueError when it is not."""
    ref = factor_by_trial_division(f, p)
    for cap in (1, 2, 4):
        if any(m > 1 for _, m in ref):
            with pytest.raises(ValueError):
                factor_quartic_mod_p(f, p, degree_cap=cap)
        else:
            expected = [g for g, _ in ref if len(g) - 1 <= cap]
            assert factor_quartic_mod_p(f, p, degree_cap=cap) == expected, (f, p, cap)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_factor_quartic_with_repeated_roots_matches_trial_division(p, rng):
    """On seeded quartics with repeated roots, and on two distinct
    quadratics, each with a unit leading coefficient, factor_quartic_mod_p
    raises ValueError exactly when trial division finds a repeated factor,
    and otherwise agrees with it at every degree cap.  Then squarefree
    quartics of each shape (1,1,1,1), (1,1,2), (2,2), (1,3) and (4)."""
    def lin(a):
        return [-a % p, 1]

    def with_unit_lead(parts):
        f = [rng.randrange(1, p)]
        for g in parts:
            f = polmul(f, g, p)
        return f

    quads = [[c, b, 1] for b in range(p) for c in range(p)
             if all((x * x + b * x + c) % p for x in range(p))]
    for _ in range(20):
        a, b, c = (rng.randrange(p) for _ in range(3))
        quad, quad2 = rng.sample(quads, 2)
        for parts in ([lin(a)] * 4, [lin(a)] * 2 + [lin(b)] * 2, [lin(a)] * 3 + [lin(b)],
                      [lin(a), lin(a), lin(b), lin(c)], [lin(a), lin(a), quad],
                      [lin(a), lin(b), quad], [lin(a), lin(a), lin(b)], [quad, quad2]):
            _check_factors_against_trial_division(with_unit_lead(parts), p)
    shapes = set()
    for _ in range(20):
        a, b, c, e = (lin(r) for r in rng.sample(range(p), 4))
        quad, quad2 = rng.sample(quads, 2)
        cubic = _monic_without_roots(3, p, rng)
        quartic = _monic_without_roots(4, p, rng, lambda g: is_irreducible_quartic(g, p))
        for parts in ([a, b, c, e], [a, b, quad], [quad, quad2], [a, cubic], [quartic]):
            f = with_unit_lead(parts)
            _check_factors_against_trial_division(f, p)
            shapes.add(tuple(len(g) - 1 for g in factor_quartic_mod_p(f, p)))
    assert shapes == {(1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)}


def test_factor_quartic_at_every_prime_below_400(K):
    """K's quartic at every prime 5 <= q < 400 (none divides its
    discriminant -1728), at caps 1, 2 and 4: monic factors of degree <=
    cap, whose product at cap 4 is f mod q; the linear factors are the
    roots found by evaluating f at every residue; no quadratic factor has
    a root; a smaller cap drops the larger factors and keeps the order;
    and for q < 100 the list is trial division's."""
    f = K.minpoly.integer_coeffs()
    for q in small_primes(400):
        if q < 5:
            continue
        full = factor_quartic_mod_p(f, q)
        product_ = [1]
        for g in full:
            product_ = polmul(product_, g, q)
        assert product_ == [c % q for c in f], q
        ref = factor_by_trial_division(f, q) if q < 100 else None
        for cap in (1, 2, 4):
            factors = factor_quartic_mod_p(f, q, degree_cap=cap)
            assert factors == [g for g in full if len(g) - 1 <= cap], (q, cap)
            assert all(g[-1] == 1 and len(g) - 1 <= cap for g in factors), (q, cap)
            assert sorted(-g[0] % q for g in factors if len(g) == 2) == _roots_by_evaluation(f, q)
            assert not any(_roots_by_evaluation(g, q) for g in factors if len(g) == 3), q
            if ref is not None:
                assert factors == [g for g, _ in ref if len(g) - 1 <= cap], (q, cap)


def test_factor_quartic_refuses_p_2_under_optimize():
    """factor_quartic_mod_p's split needs an odd p: p = 2 raises ValueError,
    an exception and not an assert, so python -O keeps it."""
    with pytest.raises(ValueError):
        factor_quartic_mod_p([1, 1, 0, 0, 1], 2)
    out = subprocess.run(
        [sys.executable, "-O", "-c",
         "from x3y9z2.arith.localfield import factor_quartic_mod_p; "
         "factor_quartic_mod_p([1, 1, 0, 0, 1], 2)"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "ValueError: factor_quartic_mod_p needs an odd p" in out.stderr


@pytest.mark.parametrize("p", [3, 5, 7])
def test_split_separates_every_pair_at_small_p(p):
    """Below 11 the Weil bound does not promise that some x + a, a in F_p,
    separates two factors of equal degree; at p = 3, 5 and 7 every product
    of two distinct monic linear, or two distinct monic irreducible
    quadratic, factors comes back as its two factors."""
    lins = [[c, 1] for c in range(p)]
    quads = [[c, b, 1] for b in range(p) for c in range(p)
             if not _roots_by_evaluation([c, b, 1], p)]
    for same_degree in (lins, quads):
        for i, g in enumerate(same_degree):
            for h in same_degree[i + 1:]:
                assert factor_quartic_mod_p(polmul(g, h, p), p) == sorted([g, h]), (g, h)


def _character_primes_by_evaluation(field, bound, n):
    """degree_one_character_data's (q, r) sequence, by scanning every
    residue r in ascending order for a root of the defining polynomial."""
    f = field.minpoly.integer_coeffs()
    disc = field.discriminant()
    return [(q, r) for q in small_primes(bound)
            if q >= 5 and (q - 1) % n == 0 and disc.numerator % q
            for r in _roots_by_evaluation(f, q)]


# The eq-5 algebra's components: Q (theta -> 0), Q (theta -> -2), Q(sqrt -3).
EQ5_COMPONENT = {"root0": 0, "root-2": 1, "sqrt-3": 2}


@pytest.mark.parametrize("where, bound, n", [("K", 400, 2), ("K", 400, 3),
                                             ("sqrt-3", 250, 3), ("root0", 250, 3),
                                             ("root-2", 250, 3)])
def test_degree_one_character_data_order(where, bound, n, K, descent_data):
    """The degree-1 primes come in order of q and then of the root r, as a
    scan by evaluation gives them: descent._character_rank takes the first
    24 usable characters, so this order is part of the report.  On a
    rational component those are the 24 primes q = 1 mod 3 from 7 to 229."""
    field = (K if where == "K"
             else descent_data.specs[5].algebra.components[EQ5_COMPONENT[where]])
    got = list(degree_one_character_data(field, bound, n))
    assert got == _character_primes_by_evaluation(field, bound, n)
    # Some q has two roots, except on a field of degree 1.
    assert any(b[0] == a[0] for a, b in zip(got, got[1:])) == (field.degree > 1)
    if field.degree == 1:
        assert [q for q, _ in got][:24] == [q for q in small_primes(229) if q % 3 == 1]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_quartic_irreducibility_matches_trial_division(p, rng):
    """residue_degrees(f, p) == (4,) on seeded squarefree quartics, against
    trial division by every monic linear and quadratic polynomial."""
    outcomes = set()
    checked = 0
    while checked < 150:
        f = [rng.randrange(-50, 51) for _ in range(4)] + [rng.randrange(1, p)]
        if discriminant(UPoly(f)).numerator % p == 0:
            continue            # the test is for squarefree quartics
        expected = is_irreducible_quartic(f, p)
        assert (residue_degrees(f, p) == (4,)) == expected, (f, p)
        # Record the rootless reducible case: two irreducible quadratics.
        rootless = all(polmod(f, [c, 1], p) for c in range(p))
        outcomes.add((expected, rootless))
        checked += 1
    assert outcomes == {(True, True), (False, True), (False, False)}


def _factoring_rule_primes(xi):
    """The primes at which nf_nth_root may lift, by the rule it used before
    residue_degrees: factor_quartic_mod_p finds one factor of full
    degree, and q avoids the prime factors of xi's denominator and of
    both parts of its norm (and the root order n, never a candidate)."""
    field = xi.parent
    f = field.minpoly.integer_coeffs()
    disc = field.discriminant()
    nrm = xi.norm()
    avoid = set().union(*(factorize(m) for m in (xi.den, nrm.numerator, nrm.denominator)))
    out = []
    for q in range(5, 400):
        if (factorize(q) != {q: 1} or q in avoid
                or disc.numerator % q == 0 or disc.denominator % q == 0):
            continue
        factors = factor_quartic_mod_p(f, q)
        if len(factors) == 1 and len(factors[0]) == field.degree + 1:
            out.append(q)
    return out


# (field, coordinates, scale, the first primes): 5, 17, 29, 41, 53 and 89
# are the first inert primes of K; in Q(sqrt -3), the eq-5 algebra's field
# component, the inert primes are those = 2 mod 3.
@pytest.mark.parametrize("where, coords, scale, head", [
    ("K", [2, 1, 0, 0], F(1), [5, 17, 29, 41]),
    ("K", [2, 1, 0, 0], F(1, 5), [17, 29, 41, 53]),        # 5 in the denominator
    ("K", [2, 1, 0, 0], F(17), [5, 29, 41, 53]),           # 17^4 in the norm
    ("K", [2, 1, 0, 0], F(17, 5), [29, 41, 53, 89]),
    ("sqrt-3", [1, 1], F(1), [5, 11, 17, 23]),
    ("sqrt-3", [1, 1], F(11, 23), [5, 17, 29, 41]),
])
def test_inert_prime_rings_match_the_factoring_rule(where, coords, scale, head, K,
                                                    descent_data):
    """_inert_prime_rings yields the same primes, in the same order, as the
    factoring rule: which root nf_nth_root returns depends on them."""
    field = K if where == "K" else descent_data.specs[5].algebra.components[2]
    xi = field([F(c) * scale for c in coords])
    qs = [ring.p for ring in _inert_prime_rings(xi, 24)]
    assert qs == _factoring_rule_primes(xi)
    assert qs[:4] == head


def test_cubic_character_exhaustive(K):
    """For every q = 1 mod 3 below 200 and every x mod q: the character
    is 0 exactly on the nonzero cubes, adds under products, is 1 at the
    first y >= 2 with y^((q-1)/3) != 1, and is None on non-units (x read
    in Q as the field of degree 1 with root 0).  At a root r of K's
    polynomial mod q it is the character of xi(r)."""
    Q = NumberField(UPoly([0, 1]))
    f = K.minpoly.integer_coeffs()
    # A denominator divisible by 37, and an image 0 at (37, 7).
    elements = [K([F(1, 2), 3, -1, F(2, 37)]), K([-7, 1, 0, 0])]
    for q in range(7, 200, 6):
        if factorize(q) != {q: 1}:
            continue
        chi = [nf_cubic_character(Q(x), q, 0) for x in range(q)]
        cubes = {x**3 % q for x in range(1, q)}
        assert chi[0] is None and nf_cubic_character(Q(F(2, q)), q, 0) is None
        assert [x for x in range(1, q) if chi[x] == 0] == sorted(cubes)
        for x in range(1, q):
            for y in range(x, q):
                assert chi[x * y % q] == (chi[x] + chi[y]) % 3, (q, x, y)
        first = next(y for y in range(2, q) if pow(y, (q - 1) // 3, q) != 1)
        assert chi[first] == 1
        for r in (x for x in range(q) if sum(c * x**i for i, c in enumerate(f)) % q == 0):
            for xi in elements:
                num = sum(c * r**i for i, c in enumerate(xi.num))
                expected = (None if xi.den % q == 0 or num % q == 0
                            else chi[num * pow(xi.den, -1, q) % q])
                assert nf_cubic_character(xi, q, r) == expected, (q, r, xi)
    with pytest.raises(ValueError):
        nf_cubic_character(Q(2), 11, 0)


def test_zq_non_monic_modulus_refused_under_optimize():
    """ZqRing's monic check is an exception, not an assert: python -O keeps it."""
    out = subprocess.run(
        [sys.executable, "-O", "-c",
         "from x3y9z2.arith.localfield import ZqRing; ZqRing(7, [3, 2, 2], 5)"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "ValueError: modulus [3, 2, 2] is not monic mod 7^5" in out.stderr
