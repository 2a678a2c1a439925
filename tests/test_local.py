"""3-adic solubility of the descent curves."""

import hashlib
import json
import random
from fractions import Fraction as F
from itertools import product

import pytest

from x3y9z2.arith.poly import MPoly
from x3y9z2.descent import build_descent_forms, cubic_norm_filter, enumerate_delta
from x3y9z2.local import (NodeBudgetExceeded, ProjectiveSystem, enumerate_points_mod_p,
                          is_locally_soluble)


def brute_points_mod_p(system, p):
    """Independent double-loop oracle over all primitive classes."""
    seen = set()
    for vec in product(range(p), repeat=4):
        if not any(vec):
            continue
        if any(system.evaluate(i, list(vec), p) for i in range(len(system.forms))):
            continue
        # normalize: first nonzero coordinate scaled to 1
        lead = next(v for v in vec if v)
        inv = pow(lead, -1, p)
        seen.add(tuple(v * inv % p for v in vec))
    return seen


def test_empty_system_counts():
    empty = ProjectiveSystem(forms=[])
    assert len(enumerate_points_mod_p(empty, 3)) == 40
    assert len(enumerate_points_mod_p(empty, 5)) == 156


def test_linear_system_single_point():
    sys3 = ProjectiveSystem(forms=[{(1, 0, 0, 0): 1}, {(0, 1, 0, 0): 1}, {(0, 0, 1, 0): 1}])
    assert enumerate_points_mod_p(sys3, 3) == [(0, 0, 0, 1)]


def test_point_enumeration_matches_brute_oracle(descent_data):
    spec = descent_data.specs[5]
    for expo, delta in enumerate_delta(spec)[:6]:
        sysd = build_descent_forms(spec.algebra, delta)
        system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
        assert set(enumerate_points_mod_p(system, 3)) == brute_points_mod_p(system, 3)


def test_delta_one_soluble_with_checkable_witness(descent_data):
    spec = descent_data.specs[5]
    sysd = build_descent_forms(spec.algebra, spec.algebra.one())
    system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
    verdict = is_locally_soluble(system, 3)
    assert verdict.soluble
    assert verdict.recheck(system)
    # frozen regression: residue points on the delta = 1 curve
    assert len(enumerate_points_mod_p(system, 3)) == 4


def test_global_point_never_insoluble(descent_data):
    # Any curve with a rational point must come back soluble
    # (anti-symmetry with the global oracle).
    spec = descent_data.specs[1]
    sysd = build_descent_forms(spec.algebra, spec.algebra.one())
    system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
    assert system.evaluate(0, [1, 0, 0, 0]) == 0
    assert system.evaluate(1, [1, 0, 0, 0]) == 0
    assert is_locally_soluble(system, 3).soluble


def test_determinism(descent_data):
    spec = descent_data.specs[5]
    _, delta = enumerate_delta(spec)[7]
    sysd = build_descent_forms(spec.algebra, delta)
    system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
    v1 = is_locally_soluble(system, 3)
    v2 = is_locally_soluble(system, 3)
    assert v1.soluble == v2.soluble and v1.witness == v2.witness


def test_budget_exhaustion_raises(descent_data):
    spec = descent_data.specs[5]
    sysd = build_descent_forms(spec.algebra, spec.algebra.one())
    system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
    with pytest.raises(NodeBudgetExceeded):
        is_locally_soluble(system, 3, node_budget=0)


def test_content_cleared():
    m = MPoly(4, {(3, 0, 0, 0): F(6), (0, 3, 0, 0): F(9, 2)})
    system = ProjectiveSystem.from_mpolys([m, m])
    assert sorted(system.forms[0].values()) == [3, 4]


def test_dense_evaluation_matches_mpoly(descent_data):
    """evaluate / jacobian_entry against direct MPoly evaluation of the
    cleared forms and their partials: the eq5 delta = 1 pair, plus one
    form of each degree 1..3 with every monomial present."""
    rng = random.Random(5)
    spec = descent_data.specs[5]
    sysd = build_descent_forms(spec.algebra, spec.algebra.one())
    systems = [ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))]
    for degree in (1, 2, 3):
        form = {e: rng.choice([-1, 1]) * rng.randint(1, 50)
                for e in product(range(degree + 1), repeat=4) if sum(e) == degree}
        systems.append(ProjectiveSystem(forms=[form]))
    for system in systems:
        polys = [MPoly(4, {e: F(c) for e, c in f.items()}) for f in system.forms]
        for _ in range(200):
            vec = [rng.randint(-10**6, 10**6) for _ in range(4)]
            for i, f in enumerate(polys):
                assert system.evaluate(i, vec) == f(vec)
                for var in range(4):
                    assert system.jacobian_entry(i, var, vec) == f.partial(var)(vec)


@pytest.fixture(scope="module")
def pipeline_verdicts(descent_data):
    """(eq, exponents, verdict) for every class the pipeline sends to the
    Q_3 filter: 243 for equation 5, 9 each for equations 1 and 2."""
    out = []
    for eq in (5, 1, 2):
        spec = descent_data.specs[eq]
        for expo, delta in cubic_norm_filter(enumerate_delta(spec), spec.leading_coeff):
            sysd = build_descent_forms(spec.algebra, delta, eq_id=eq, expo=expo)
            system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
            out.append((eq, list(expo), is_locally_soluble(system, 3, max_depth=12)))
    return out


def test_node_totals(pipeline_verdicts):
    totals = {5: 0, 1: 0, 2: 0}
    for eq, _, v in pipeline_verdicts:
        totals[eq] += v.nodes
    assert totals == {5: 149_527, 1: 190, 2: 227}


def test_witness_digest(pipeline_verdicts):
    """Verdicts, depths and witness dicts of all 261 classes, frozen as the
    sha256 of their canonical JSON."""
    rows = [[eq, expo, v.soluble, v.depth_searched, v.witness]
            for eq, expo, v in pipeline_verdicts]
    assert len(rows) == 261
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "4b7b8a1d28191b307cb9a24287f4a4bfbbd472892a701db543f1d17dbd41bcec")


@pytest.mark.parametrize("p, max_depth", [(1, 12), (4, 12), (9, 12), (103, 12), (3, 0)])
def test_bad_prime_or_depth_refused(descent_data, p, max_depth):
    spec = descent_data.specs[1]
    sysd = build_descent_forms(spec.algebra, spec.algebra.one())
    system = ProjectiveSystem.from_mpolys(list(sysd.curve_forms()))
    with pytest.raises(ValueError):
        is_locally_soluble(system, p, max_depth=max_depth)
