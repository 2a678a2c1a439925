"""3-adic solubility of the descent curves."""

import gc
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest

from x3y9z2.arith.poly import MPoly
from x3y9z2.arith.rationals import valuation
from x3y9z2.descent import build_descent_forms, cubic_norm_filter, enumerate_delta
from x3y9z2.arith.poly import PAIRS, monomials
from x3y9z2 import cli
from x3y9z2.local import (LEAF_FRAMES, NodeBudgetExceeded, ProjectiveSystem, Undecided,
                          _child_key, _frames_left, _passing_children, enumerate_points_mod_p,
                          is_locally_soluble)

from local_reference import _taylor, exhaustive_search


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
def class_systems(descent_data):
    """{eq: [(exponents, system)]} for every class the pipeline sends to the
    local filter: 243 for equation 5, 9 each for equations 1 and 2."""
    out = {}
    for eq in (5, 1, 2):
        spec = descent_data.specs[eq]
        out[eq] = [(list(expo), ProjectiveSystem.from_mpolys(
                        list(build_descent_forms(spec.algebra, delta).curve_forms())))
                   for expo, delta in cubic_norm_filter(enumerate_delta(spec), spec.leading_coeff)]
    return out


@pytest.fixture(scope="module")
def pipeline_verdicts(class_systems):
    """(eq, exponents, verdict) for every class of the Q_3 filter."""
    return [(eq, expo, is_locally_soluble(system, 3, max_depth=12))
            for eq in (5, 1, 2) for expo, system in class_systems[eq]]


def test_search_leaves_no_cyclic_garbage(class_systems):
    """A search's recursive closure refers to itself; the search drops it
    when it returns or raises, so its tables are freed at once and not
    left to the cyclic collector (whose timing would set the peak memory).
    The raising search runs out of nodes in a pass after its first."""
    systems = [system for eq in (1, 2) for _, system in class_systems[eq]]
    gc.collect()
    gc.disable()
    try:
        verdicts = {is_locally_soluble(system, 3).soluble for system in systems}
        with pytest.raises(NodeBudgetExceeded) as raised:
            is_locally_soluble(class_systems[5][11][1], 2, max_depth=2, node_budget=2000)
        assert raised.value.depth > 2
        assert verdicts == {True, False}
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def _outcome(search, system, p, **kw):
    """(soluble, witness, nodes, depth_searched), or the Undecided raised."""
    try:
        v = search(system, p, **kw)
    except Undecided as exc:
        return type(exc).__name__, exc.depth, str(exc)
    return v.soluble, v.witness, v.nodes, v.depth_searched


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("eq", [1, 2])
def test_search_matches_exhaustive_reference(class_systems, eq, p):
    """Children judged at their parent give the verdicts, witnesses and
    node counts of the search that visits every child, on every class of
    equations 1 and 2."""
    for _, system in class_systems[eq]:
        assert _outcome(is_locally_soluble, system, p) == _outcome(exhaustive_search, system, p)


@pytest.mark.parametrize("p, max_depth", [(2, 12), (3, 12), (2, 5)])
def test_search_matches_exhaustive_reference_on_eq5_sample(class_systems, p, max_depth):
    """The same on a seeded sample of equation 5 classes; at p = 2 some of
    them still have live branches at depth 5, and both searches must
    decide them in a second pass at twice the depth, with the same node
    count over both passes."""
    systems = class_systems[5]
    outcomes = []
    for i in random.Random(13).sample(range(len(systems)), 6):
        outcome = _outcome(is_locally_soluble, systems[i][1], p, max_depth=max_depth)
        assert outcome == _outcome(exhaustive_search, systems[i][1], p, max_depth=max_depth)
        outcomes.append(outcome)
    assert max_depth == 12 or any(o[3] > max_depth for o in outcomes)


def test_p2_sweep_decides_every_class_by_deepening(tmp_path, monkeypatch):
    """`local sweep --eq 5 --p 2`, in process: exit 0 with 63 soluble and 180
    insoluble classes.  Each witness passes recheck, and exactly classes
    11, 23, 86 and 98 keep live branches at depth 12 and are decided in a
    second pass, at depth 24, with witnesses at depths 21, 19, 20 and 20."""
    searched = []

    def search(system, p):
        searched.append((system, is_locally_soluble(system, p)))
        return searched[-1][1]

    monkeypatch.setattr(cli, "is_locally_soluble", search)
    out = tmp_path / "sweep.json"
    assert cli.main(["--json-out", str(out), "local", "sweep", "--eq", "5", "--p", "2"]) == 0
    report = json.loads(out.read_text())
    assert Counter(v["soluble"] for v in report["verdicts"]) == {True: 63, False: 180}
    assert report["survivors"] == 63 and len(searched) == 243
    assert all(v.recheck(system) for system, v in searched)
    assert {i: v.depth_searched for i, (_, v) in enumerate(searched)
            if v.depth_searched > 12} == {11: 21, 23: 19, 86: 20, 98: 20}


# y1^2 - 2 y2^2 and y3^2 - 2 y2^2: 2 is no square mod 3, so over Q_3 their
# one common zero is (1:0:0:0), where the Jacobian vanishes.  The branch
# at (1, 0, 0, 0) mod 3^k stays alive at every depth, and no other does.
SINGULAR_ONLY = ProjectiveSystem(forms=[{(0, 2, 0, 0): 1, (0, 0, 2, 0): -2},
                                        {(0, 0, 0, 2): 1, (0, 0, 2, 0): -2}])


def _search_below(frames, system, p):
    """The search's outcome and the frames it had left, called `frames`
    frames below here."""
    if frames:
        return _search_below(frames - 1, system, p)
    try:
        is_locally_soluble(system, p)
    except Undecided as exc:
        return exc, _frames_left()
    return None, _frames_left()


@pytest.mark.parametrize("frames", [0, 600, 900])
def test_deepening_stops_before_the_recursion_limit(frames):
    """A branch that no depth settles: the passes double from depth 12 while
    the next one fits in the frames left, then Undecided (not a
    RecursionError) names the last depth and its one live branch, however
    deep in the stack the search was called."""
    exc, room = _search_below(frames, SINGULAR_ONLY, 3)
    assert type(exc) is Undecided and str(exc) == (
        f"undecided after depth {exc.depth} 1 branch(es) alive")
    assert exc.depth in (12 * 2**i for i in range(10))
    # the search's own frame is one below the caller's
    assert exc.depth == 12 or exc.depth + LEAF_FRAMES <= room - 1
    assert 2 * exc.depth + LEAF_FRAMES > room - 1
    assert frames or exc.depth >= 384


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_taylor_expansion_at_a_child(degree):
    """The reference _taylor's F(c) equals evaluate(c) exactly, and its J(c) is
    jacobian_entry(c) mod p^(k+1), at c = v + p^k e for random integer
    forms with every monomial present, with J and H at v taken from MPoly
    partials."""
    rng = random.Random(degree)
    for _ in range(60):
        form = {e: rng.choice([-1, 1]) * rng.randint(1, 50)
                for e in product(range(degree + 1), repeat=4) if sum(e) == degree}
        system = ProjectiveSystem(forms=[form])
        poly = MPoly(4, {e: F(c) for e, c in form.items()})
        for _ in range(5):
            p, k, patch = rng.choice([2, 3, 5, 7]), rng.randint(1, 4), rng.randrange(4)
            free = [j for j in range(4) if j != patch]
            v = [rng.randint(-10**4, 10**4) for _ in range(4)]
            e = tuple(rng.randrange(p) for _ in range(3))
            pk = p**k
            c, spot = list(v), [0] * 4
            for pos, x in zip(free, e):
                c[pos] += pk * x
                spot[pos] = x
            j = [system.jacobian_entry(0, a, v) for a in free]
            h = [poly.partial(free[a]).partial(free[b])(v)
                 for a, b in ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))]
            z = system.evaluate(0, spot) if degree == 3 else 0
            fc, jc = _taylor(system.evaluate(0, v), j, h, z, e, pk)
            assert fc == system.evaluate(0, c)
            for a, x in zip(free, jc):
                assert (x - system.jacobian_entry(0, a, c)) % (pk * p) == 0


def _node_with_gap(rng, degree, p, k, patch, mode):
    """A random form of the given degree and a vector v (1 on the patch
    coordinate) at which it passes the gap test mod p^k, or None when
    clearing the content breaks that.  mode "generic" puts random values on
    the free coordinates; mode t >= 1 keeps only monomials with two or more
    free factors and puts multiples of p^t there (all zero for t = k + 2),
    so that p^min(t, k) divides J and J = 0 at t = k + 2."""
    free = [j for j in range(4) if j != patch]
    form = {e: rng.choice([-1, 1]) * rng.randint(1, 50)
            for e in product(range(degree + 1), repeat=4) if sum(e) == degree}
    v = [0] * 4
    v[patch] = 1
    if mode == "generic":
        for a in free:
            v[a] = rng.randint(-10**3, 10**3)
    else:
        form = {e: c for e, c in form.items() if e[patch] <= degree - 2}
        for a in free:
            v[a] = 0 if mode == k + 2 else p**mode * rng.randint(-50, 50)
    top = tuple(degree if j == patch else 0 for j in range(4))
    form[top] = 0
    if not any(form.values()):
        return None
    pk = p**k
    system = ProjectiveSystem(forms=[form])
    j = [system.jacobian_entry(0, a, v) for a in free]
    ps = gcd(*j, pk)
    # the top monomial moves F(v) alone: J and H on the free coordinates
    # do not see it; F(v) becomes p^(k+s) u
    form[top] = -system.evaluate(0, v) + pk * ps * rng.choice([1, -1, p, 5 * p * p, 0])
    system = ProjectiveSystem(forms=[form])
    f = system.evaluate(0, v)
    j = [system.jacobian_entry(0, a, v) for a in free]
    if f % (pk * gcd(*j, pk)):
        return None
    return system, v, f, j


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_child_memo_matches_gap_test_at_the_child(degree):
    """The parent-side verdict is exact: at nodes v mod p^k that pass their
    own gap test, a child c = v + p^k e passes the memo (and, at k = 1, the
    residue check with F(e) that the search adds) exactly when the gap test
    judged at c, from evaluate and jacobian_entry, accepts it.  p runs over
    {2, 3, 5, 7} and k over 1..4, with s = 0, 0 < s < k, s = k and J = 0
    all covered at degrees 2 and 3, and the k = 1 residue path taken by
    children that pass and children that fail.  A linear form of content 1
    has s = 0 at every node that passes, so degree 1 covers s = 0 alone.
    Pairs of keys: each node's children pass both forms exactly when they
    pass each form alone."""
    rng = random.Random(180 + degree)
    cases = {"s=0": 0, "0<s<k": 0, "s=k": 0, "J=0": 0}
    wanted = ["s=0"] if degree == 1 else list(cases)
    residue = {True: 0, False: 0}
    accepted_total = rejected_total = 0
    previous = {}
    while (min(cases[c] for c in wanted) < 60
           or degree > 1 and min(residue.values()) < 20) and sum(cases.values()) < 5000:
        p, k, patch = rng.choice([2, 3, 5, 7]), rng.randint(1, 4), rng.randrange(4)
        mode = rng.choice(["generic", "generic"] + list(range(1, k + 3)))
        node = _node_with_gap(rng, degree, p, k, patch, mode)
        if node is None:
            continue
        system, v, f, j = node
        free = [a for a in range(4) if a != patch]
        pk, pk1 = p**k, p**(k + 1)
        hess = [system._hessians[0][free[a], free[b]] for a, b in PAIRS[:6]]
        key = _child_key(p, pk, f, j, gcd(*j, pk), hess, monomials(v)[max(degree - 2, 0)])
        memo = {i: r for i, r, _ in _passing_children(p, key, key, k == 1)}
        s = valuation(gcd(*j, pk), p)
        cases["J=0" if not any(j) else "s=k" if s == k else "s=0" if s == 0 else "0<s<k"] += 1
        for i, e in enumerate(product(range(p), repeat=3)):
            c, spot = list(v), [0] * 4
            for a, x in zip(free, e):
                c[a] += pk * x
                spot[a] = x
            jc = [system.jacobian_entry(0, a, c) for a in free]
            exact = system.evaluate(0, c) % (pk1 * gcd(*jc, pk1)) == 0
            passes = i in memo
            if passes and memo[i] is not None:
                z = system.evaluate(0, spot) if degree == 3 else 0
                passes = (memo[i] + p * z) % (p * p) == 0
                residue[passes] += 1
            assert passes == exact, (p, k, v, system.forms, e)
            accepted_total += exact
            rejected_total += not exact
        other = previous.get((p, k == 1))
        if other is not None:
            both = {i: (r0, r1) for i, r0, r1 in _passing_children(p, key, other[0], k == 1)}
            assert both == {i: (memo[i], other[1][i]) for i in memo.keys() & other[1]}
        previous[p, k == 1] = key, memo
    assert min(cases[c] for c in wanted) >= 60, cases
    assert degree == 1 or min(residue.values()) >= 20, residue
    assert accepted_total and rejected_total


def test_budget_boundary_at_a_child_judged_by_its_parent(class_systems):
    """An insoluble equation 5 class whose last visited node is a child its
    parent rejected: with one node less the budget runs out at depth >= 2,
    and a node that is not a start point and not rejected by its parent is
    a witness, a leaf at the depth limit or expanded further, so it is never
    the last node of an insoluble verdict.  A budget of exactly `nodes` gives
    the same verdict, and the exhaustive reference runs out at the same
    node."""
    for _, system in class_systems[5]:
        verdict = is_locally_soluble(system, 3)
        short = _outcome(is_locally_soluble, system, 3, node_budget=verdict.nodes - 1)
        if not verdict.soluble and short[0] == "NodeBudgetExceeded" and short[1] >= 2:
            break
    else:
        pytest.fail("no insoluble class ends on a child rejected at its parent")
    assert is_locally_soluble(system, 3, node_budget=verdict.nodes) == verdict
    assert short == _outcome(exhaustive_search, system, 3, node_budget=verdict.nodes - 1)


@pytest.mark.parametrize("eq, p", [(5, 2), (5, 3), (1, 2), (1, 3), (2, 2), (2, 3)])
def test_budget_runs_out_inside_runs_of_rejected_children(class_systems, eq, p):
    """The rejected children between two passing ones are counted at once,
    and the budget still runs out at the same child, depth and message as
    in the exhaustive reference.  Per class: a seeded sample of budgets
    below `nodes`, and budgets whose last node is a rejected child right
    after a rejected sibling, that is inside a run counted at once (found
    from the reference's trail).  Equation 5 uses a seeded sample of its
    decided classes."""
    rng = random.Random(1800 + 10 * eq + p)
    systems = [system for _, system in class_systems[eq]]
    if eq == 5:
        systems = [systems[i] for i in rng.sample(range(len(systems)), 3)]
    inside = 0
    for system in systems:
        trail = []
        try:
            verdict = exhaustive_search(system, p, trail=trail)
        except Undecided:
            continue
        assert _outcome(is_locally_soluble, system, p)[2] == verdict.nodes == len(trail)
        runs = [b for b in range(1, len(trail))
                if trail[b][0] >= 2 and trail[b][1] and trail[b - 1] == [trail[b][0], True]]
        budgets = set(rng.sample(range(verdict.nodes), min(verdict.nodes, 5)))
        budgets |= set(rng.sample(runs, min(len(runs), 3)))
        inside += len(budgets & set(runs))
        for b in sorted(budgets):
            short = _outcome(is_locally_soluble, system, p, node_budget=b)
            assert short[0] == "NodeBudgetExceeded"
            assert short == _outcome(exhaustive_search, system, p, node_budget=b)
    assert inside >= 3
