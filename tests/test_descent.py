"""Descent-class enumeration, cubic forms, quotients."""

from fractions import Fraction as F

from descent_reference import direct_deltas, mpoly_descent_forms
from x3y9z2.descent import (IndeterminatePoint, SelmerSetSpec,
                            build_descent_forms, cubic_norm_filter,
                            enumerate_delta, genus1_quotients, plane_cubic, st_map)
from x3y9z2.local import ProjectiveSystem
from x3y9z2.param import INF, equation_rhs
from x3y9z2.verify import cube_free_part


class TestEnumeration:
    def test_eq5_243(self, descent_data):
        cands = enumerate_delta(descent_data.specs[5])
        assert len(cands) == 243
        assert cands[0][0] == (0, 0, 0, 0, 0)
        assert cands[0][1] == descent_data.specs[5].algebra.one()

    def test_k_81(self, descent_data):
        for eq in (1, 2):
            assert len(enumerate_delta(descent_data.specs[eq])) == 81

    def test_prefix_products_match_direct_powers(self, descent_data):
        """Each class built from its prefix by one multiplication equals the
        product of generator powers multiplied out afresh, in the same
        order, on equations 5, 1 and 2."""
        for eq in (5, 1, 2):
            spec = descent_data.specs[eq]
            assert enumerate_delta(spec) == direct_deltas(spec)

    def test_empty_generators(self, descent_data):
        spec = SelmerSetSpec(algebra=descent_data.specs[5].algebra, S=(2, 3),
                             generators=[], leading_coeff=F(1))
        out = enumerate_delta(spec)
        assert len(out) == 1 and out[0][1] == spec.algebra.one()

    def test_cubic_norm_filter(self, descent_data):
        spec5 = descent_data.specs[5]
        assert len(cubic_norm_filter(enumerate_delta(spec5), F(1))) == 243
        for eq in (1, 2):
            spec = descent_data.specs[eq]
            kept = cubic_norm_filter(enumerate_delta(spec), spec.leading_coeff)
            assert len(kept) == 9

    def test_trusted_data_verifies(self, descent_data):
        assert descent_data.verify() == []

    def test_distinct_classes_by_exponent(self, descent_data):
        # independence was certified by characters; the 243 exponent
        # vectors are therefore pairwise inequivalent classes
        cands = enumerate_delta(descent_data.specs[5])
        assert len({e for e, _ in cands}) == 243


class TestForms:
    def test_identity_and_evaluation_at_unit(self, descent_data):
        spec = descent_data.specs[5]
        for expo, delta in enumerate_delta(spec)[:9]:
            sysd = build_descent_forms(spec.algebra, delta)
            assert sysd.verify_identity()
            unit = (F(1), F(0), F(0), F(0))
            assert tuple(f(unit) for f in sysd.forms) == delta.coords

    def test_delta_one_point(self, descent_data):
        spec = descent_data.specs[5]
        sysd = build_descent_forms(spec.algebra, spec.algebra.one())
        assert sysd.is_on_curve([1, 0, 0, 0])
        assert st_map(sysd, [1, 0, 0, 0]) == INF
        # s = Q0 = 1, t = -Q1 = 0 reproduces the solution (1, 0, 1)
        assert sysd.forms[0]((F(1), F(0), F(0), F(0))) == 1
        assert sysd.forms[1]((F(1), F(0), F(0), F(0))) == 0

    def test_st_scale_invariance(self, descent_data, rng):
        spec = descent_data.specs[5]
        sysd = build_descent_forms(spec.algebra, spec.algebra.one())
        for _ in range(40):
            y = [rng.randint(-5, 5) for _ in range(4)]
            lam = F(rng.randint(1, 7), rng.randint(1, 7))
            try:
                v1 = st_map(sysd, y)
            except IndeterminatePoint:
                continue
            v2 = st_map(sysd, [lam * c for c in y])
            assert v1 == v2

    def test_algebra_evaluation_oracle(self, descent_data, rng):
        """Independent numeric route: at random integer y-vectors the
        algebra element delta * beta(y)^3 must equal sum Q_i(y) theta^i."""
        spec = descent_data.specs[5]
        A = spec.algebra
        theta = A.gen()
        for expo, delta in [enumerate_delta(spec)[i] for i in (1, 57, 200)]:
            sysd = build_descent_forms(A, delta)
            for _ in range(8):
                y = [rng.randint(-6, 6) for _ in range(4)]
                beta = sum((theta**i * c for i, c in enumerate(y)), A.zero())
                lhs = delta * beta * beta * beta
                args = tuple(F(v) for v in y)
                rhs = A.zero()
                for i in range(4):
                    rhs = rhs + theta**i * sysd.forms[i](args)
                assert lhs == rhs

    def test_integer_combinations_match_mpoly_construction(self, descent_data, tables):
        """Each class's forms and local system, built as integer combinations
        of the algebra's cube-form tables, against the MPoly-over-Fraction
        construction (tests/descent_reference.py) and from_mpolys: on all
        261 classes of eq 5, 1 and 2, on the table rows' delta_A (with
        denominators 2 and 4), and on deltas whose delta t^m have smaller
        denominators than delta."""
        cases = []
        for eq in (5, 1, 2):
            spec = descent_data.specs[eq]
            cases += [(spec.algebra, delta) for _, delta in
                      cubic_norm_filter(enumerate_delta(spec), spec.leading_coeff)]
        assert len(cases) == 261
        for eq in (1, 2):
            A, iso = descent_data.specs[eq].algebra, descent_data.iso[eq]
            for row in tables["quartic_field_table"][f"eq{eq}"]["rows"]:
                delta = descent_data.K([F(c) for c in row["delta"]])
                cases.append((A, A(list(iso.inverse_apply(delta).coords))))
        A5 = descent_data.specs[5].algebra
        cases += [(A5, A5([0, 0, F(1, 2), F(1, 2)])), (A5, A5([F(1, 3), F(2, 9), 0, F(5, 6)]))]
        assert {delta.den for _, delta in cases} == {1, 2, 4, 18}
        assert (cases[-2][1] * A5.gen() ** 2).den == 1
        for A, delta in cases:
            sysd = build_descent_forms(A, delta)
            ref = mpoly_descent_forms(A, delta)
            assert sysd.forms == ref
            got = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
            want = ProjectiveSystem.from_mpolys(ref[2:])
            assert got == want
            assert got._degrees == want._degrees == [3, 3]
            assert got._coeffs == want._coeffs
            assert got._partials == want._partials
            assert got._hessians == want._hessians

    def test_identity_rejects_tampered_forms(self, descent_data):
        spec = descent_data.specs[5]
        sysd = build_descent_forms(spec.algebra, spec.algebra.one())
        from x3y9z2.arith.poly import MPoly
        sysd.forms[2] = sysd.forms[2] + MPoly(4, {(3, 0, 0, 0): F(1)})
        assert not sysd.verify_identity()


class TestQuotients:
    def test_delta_one_constants(self, descent_data):
        spec = descent_data.specs[5]
        quots = genus1_quotients(equation_rhs(5), F(1), spec.algebra, spec.algebra.one())
        assert [q.constant for q in quots] == [F(1), F(1)]
        # E1: u^3 = s^3 + 8t^3 and E2: u^3 = s(s^2 - 2st + 4t^2)
        e1, e2 = quots
        assert e1.form((F(1), F(0))) == 1 and e1.form((F(0), F(1))) == 8
        assert e2.form((F(2), F(1))) == 2 * (4 - 4 + 4)

    def test_table_row3_constants(self, descent_data):
        spec = descent_data.specs[5]
        delta = spec.algebra([1, -3, 0, F(1, 8)])
        quots = genus1_quotients(equation_rhs(5), F(1), spec.algebra, delta)
        assert [cube_free_part(q.constant) for q in quots] == [F(1), F(36)]

    def test_base_points_on_curves(self, descent_data):
        spec = descent_data.specs[5]
        e1, e2 = genus1_quotients(equation_rhs(5), F(1), spec.algebra, spec.algebra.one())
        c1, c2 = (plane_cubic(q.constant, q.form) for q in (e1, e2))
        assert not c1((F(0), F(-2), F(1)))   # (s:t:u1) = (-2:1:0)
        assert not c2((F(0), F(0), F(1)))    # (s:t:u2) = (0:1:0)
        assert c1((F(0), F(2), F(1)))        # the printed (2:1:0) fails
