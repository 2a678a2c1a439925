"""Acceptance criteria, each with its stated tolerance and time budget.

Run with -s to see the per-criterion PASS lines.  Criteria 4-6 share one
pipeline execution (a session fixture); its stage timings are asserted
against the budgets of the criteria they implement.
"""

import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import x3y9z2.pipeline as pipeline_mod
from param_reference import weighted_rescale
from x3y9z2.dataio import load_descent_data
from x3y9z2.descent import build_descent_forms, cubic_norm_filter, enumerate_delta
from x3y9z2.local import ProjectiveSystem, Undecided, is_locally_soluble
from x3y9z2.param import equation_rhs, mordell_families
from x3y9z2.pipeline import brute_search, report_to_json, run_pipeline, signed_triples

FINAL_SET = [(-7, 2, -13), (-7, 2, 13), (-1, 1, 0), (0, 1, -1), (0, 1, 1),
             (1, -1, 0), (1, 0, -1), (1, 0, 1), (2, 1, -3), (2, 1, 3)]

EXPECTED_CORRECTED = {
    "eq5 quotient E1 right-hand side",
    "eq5 quotient E1 base point",
    "eq5 E1 c=2 torsion point (2, 1, 8)",
    "eq5 E2 c=3 torsion point (2, -1, 8)",
    "value set eq2",
    "assembly family3 row (s,t)=(1,0)",
    "theorem1 entry (1,1,0)",
}


def _line(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def pipeline_run():
    t0 = time.monotonic()
    report = run_pipeline()
    wall = time.monotonic() - t0
    return report, wall, dict(pipeline_mod.LAST_TIMINGS)


def test_criterion_1_parametrization_identities():
    t0 = time.monotonic()
    fams = mordell_families()
    ok = len(fams) == 12 and all(
        not (p.x_poly**3 + p.v_poly**3 - p.z_poly**2).terms for p in fams)
    dt = time.monotonic() - t0
    _line("criterion 1: 12 parametrization identities, symbolic, exact",
          ok and dt < 1.0, f"({dt:.2f}s)")


def test_criterion_2_descent_form_identities():
    t0 = time.monotonic()
    dd = load_descent_data()
    n = 0
    ok = True
    for eq in (5, 1, 2):
        spec = dd.specs[eq]
        for expo, delta in enumerate_delta(spec):
            sysd = build_descent_forms(spec.algebra, delta)
            ok &= sysd.verify_identity()
            unit = (F(1), F(0), F(0), F(0))
            ok &= tuple(f(unit) for f in sysd.forms) == delta.coords
            n += 1
    dt = time.monotonic() - t0
    _line(f"criterion 2: algebra identity symbolic for all {n} systems",
          ok and n == 243 + 81 + 81 and dt < 10.0, f"({dt:.2f}s)")


def test_criterion_3_local_filter_counts():
    t0 = time.monotonic()
    dd = load_descent_data()
    counts = {}
    undecided = 0
    for eq in (5, 1, 2):
        spec = dd.specs[eq]
        kept = cubic_norm_filter(enumerate_delta(spec), spec.leading_coeff)
        n = 0
        for expo, delta in kept:
            sysd = build_descent_forms(spec.algebra, delta)
            system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
            try:
                v = is_locally_soluble(system, 3, max_depth=12)
            except Undecided:
                undecided += 1
                continue
            n += v.soluble
        counts[eq] = n
    dt = time.monotonic() - t0
    ok = counts == {5: 22, 1: 4, 2: 4} and undecided == 0
    _line("criterion 3: Q3 filter counts 22/243 and 4 + 4, zero Undecided",
          ok and dt < 300.0, f"(counts {counts}, {dt:.1f}s)")


def test_criterion_4_table_verification(pipeline_run):
    report, _, timings = pipeline_run
    claims = {c["id"]: c["verdict"] for c in report["claims"]}
    problems = []
    for cid, verdict in claims.items():
        if verdict == "FAIL":
            problems.append((cid, verdict))
        elif verdict == "CORRECTED" and cid not in EXPECTED_CORRECTED:
            problems.append((cid, verdict))
    for cid in EXPECTED_CORRECTED:
        if claims.get(cid) != "CORRECTED":
            problems.append((cid, claims.get(cid)))
    # Table-claim verification time (constants, memberships, s/t(p0),
    # torsion claims) excluding the heavy stage computation they audit.
    verify_time = timings["static_tables"] + timings["table_claims"]
    _line("criterion 4: table claims 100% PASS with the recorded corrections",
          not problems and verify_time < 60.0,
          f"(problems {problems}, verification {verify_time:.1f}s)")


def test_criterion_5_chabauty_outcomes(pipeline_run):
    report, _, timings = pipeline_run
    ok = True
    detail = []
    expected = {
        "eq1": {"oo", "0", "1", "-1"},
        "eq2": {"oo", "0", "-3", "3", "1", "-1"},
    }
    for eq in ("eq1", "eq2"):
        got = set(report["st_values"][eq])
        ok &= got == expected[eq]
    # the rank-2 curve's set is exactly {0, -3, 3}
    star = [v for k, v in report["chabauty"].items() if k.startswith("eq2 11.")]
    ok &= len(star) == 1 and sorted(star[0]["values"]) == ["-3", "0", "3"]
    for key, outcome in report["chabauty"].items():
        if outcome["status"] != "Complete":
            ok = False
            detail.append((key, outcome["status"]))
            continue
        closing = [c for c in outcome["certificates"] if c.get("closing")]
        if len(closing) != 1:
            ok = False
            detail.append((key, "no unique closing certificate"))
            continue
        # audit the closing prime: every class closed with bound = witnesses
        for cls in closing[0]["classes"]:
            mech = cls["mechanism"]
            if not (mech.startswith("closed") or mech == "rank-zero-finite"):
                ok = False
                detail.append((key, cls))
            if "bound" in cls and cls["bound"] != cls["n_known"]:
                ok = False
                detail.append((key, "bound != witness count", cls))
    dt = timings["chabauty_stage"]
    _line("criterion 5: 8 Complete Chabauty outcomes with audited certificates",
          ok and dt < 600.0, f"({dt:.1f}s; {detail})")


def test_criterion_6_end_to_end(pipeline_run, tmp_path):
    report, wall, _ = pipeline_run
    ok = [tuple(t) for t in report["final_solutions"]] == FINAL_SET
    oracle = signed_triples(brute_search(3, 10_000))
    ok &= oracle == FINAL_SET
    # The second run is a fresh process with another hash seed, so that no
    # module-level cache of the first run can answer for it.  An unset or
    # "random" seed here means this process drew a random one.
    here = os.environ.get("PYTHONHASHSEED", "")
    seed = str((int(here) + 1) % 2**32) if here.isdigit() else "1"
    out_path = tmp_path / "report.json"
    out = subprocess.run([sys.executable, "-m", "x3y9z2.cli", "--json-out", str(out_path),
                          "pipeline", "run"],
                         env={**os.environ, "PYTHONHASHSEED": seed},
                         capture_output=True, text=True, timeout=600)
    ok &= out.returncode == 0 and out_path.read_text() == report_to_json(report)
    _line("criterion 6: pipeline = oracle = the 10 signed triples, byte-identical runs",
          ok and wall < 300.0, f"(first run {wall:.1f}s)")


# sha256 of the canonical report; a change to it must be a deliberate one.
REPORT_SHA256 = "d152e33853b9629bb42460f46935cc23bf8f039c352dcc89fecde389da8d8ee3"


def test_report_regression_oracle(pipeline_run):
    report, _, _ = pipeline_run
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    _line("regression oracle: report sha256 unchanged", digest == REPORT_SHA256,
          f"({digest})")


class TestCriterion7Properties:
    """Randomized, seed-fixed property suites, >= 200 cases each.

    Group-law associativity, reduction homomorphism and formal-log
    additivity live in their dedicated modules (test_ec, test_chabauty);
    the two remaining suites run here, and this summary asserts the
    counts stay at 200+.
    """

    def test_norm_multiplicativity_200(self, descent_data, rng):
        A = descent_data.specs[5].algebra
        for _ in range(200):
            a = A([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            b = A([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            assert (a * b).norm() == a.norm() * b.norm()
        _line("criterion 7a: norm multiplicativity, 200 randomized cases", True)

    def test_weighted_rescale_invariance_200(self, rng):
        for _ in range(200):
            s = F(rng.randint(-9, 9), rng.randint(1, 4))
            t = F(rng.randint(1, 9), rng.randint(1, 4))
            y = F(rng.randint(-9, 9), rng.randint(1, 4))
            lam = F(rng.randint(1, 9), rng.randint(1, 9))
            s2, t2, y2 = weighted_rescale(s, t, y, lam)
            assert s2 / t2 == s / t
            for eq in (1, 2, 5, 6):
                rhs = equation_rhs(eq)
                if y**3 == rhs((s, t)):
                    assert y2**3 == rhs((s2, t2))
        _line("criterion 7b: weighted-rescale s/t invariance, 200 randomized cases", True)

    def test_group_law_associativity_200(self, rng):
        from zq_reference import ZqElem

        from x3y9z2.arith.localfield import FqField
        from x3y9z2.ec.weierstrass import WeierstrassCurve
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
        _line("criterion 7c: group-law associativity, 200 randomized cases", True)

    def test_reduction_homomorphism_200(self, mw_data, K, rng):
        from x3y9z2.ec.reduction import primes_above, reduce_curve, reduce_point
        E = mw_data.curve(1)
        g1, g2 = mw_data.points(1)
        pr = primes_above(K, 11)[0]
        Ebar = reduce_curve(E, pr)
        combos = {}
        for a in range(-4, 5):
            for b in range(-4, 5):
                combos[(a, b)] = (a * g1 + b * g2) if (a or b) else E.zero()
        for _ in range(200):
            a1, b1, a2, b2 = (rng.randint(-2, 2) for _ in range(4))
            lhs = reduce_point(Ebar, combos[(a1 + a2, b1 + b2)], pr)
            rhs = Ebar.add(reduce_point(Ebar, combos[(a1, b1)], pr),
                           reduce_point(Ebar, combos[(a2, b2)], pr))
            assert lhs == rhs
        _line("criterion 7d: reduction homomorphism, 200 randomized cases", True)

    def test_formal_log_additivity_200(self, rng):
        from x3y9z2.arith.localfield import ZqRing
        from x3y9z2.chabauty.series import formal_log
        from x3y9z2.ec.torsion import count_points_fp
        from x3y9z2.ec.weierstrass import WeierstrassCurve
        cases = 0
        for (b, pt, p) in [(-2, (3, 5), 11), (-2, (3, 5), 7), (3, (1, 2), 5),
                           (3, (1, 2), 13), (17, (2, 5), 7)]:
            E = WeierstrassCurve(F(0), F(b))
            P = E.point(F(pt[0]), F(pt[1]))
            V = count_points_fp(0, b, p) * P
            R = ZqRing(p, [0, 1], 24)
            mults = {}
            acc = E.zero()
            for m in range(1, 15):
                # Rebuilt from affine coordinates: the projective ones of
                # an unreduced running sum grow without bound.
                acc = E.point(*(acc + V).affine())
                mults[m] = acc

            def log_of(m):
                x, y = mults[m].affine()
                return formal_log(0, b, R, R.from_fraction(-x / y), terms=18)

            logs = {m: log_of(m) for m in range(1, 15)}
            assert min(ring.N for _, ring in logs.values()) >= 12
            for m1 in range(1, 8):
                for m2 in range(1, 8):
                    d = logs[m1 + m2][0][0] - logs[m1][0][0] - logs[m2][0][0]
                    assert d % p**12 == 0
                    cases += 1
        _line(f"criterion 7e: formal-log additivity, {cases} randomized cases",
              cases >= 200)
