"""Local solubility of pairs of cubic forms in P^3 over Q_p.

Exhaustive residue enumeration plus quantitative Hensel certificates: a
branch is certified liftable when both forms vanish beyond twice the
valuation of some 2x2 Jacobian minor in the free coordinates of its
affine patch; insolubility requires exhausting every branch.  Branches
still alive at the depth limit surface as an Undecided error, never as
a boolean.

Refinement is exhaustive: a live branch v mod p^k has all p^3 children
v + p^k e, e ranging over F_p^3 on the free coordinates of its patch, and
each child is judged by the valuation-gap test at its own node.  The
linear shortcut, keeping only the F_p-solutions e of
F(v)/p^k + J(v) e = 0 (mod p), is not used: at p = 3 the Jacobian of the
descent forms is almost always divisible by 3, and then that system
admits every child.

A node computes the monomials of its vector once and evaluates each form
and partial as a dot product with a dense coefficient list.  Form 0 is
tested first, and form 1 only where form 0 leaves the branch alive; the
valuation-gap test is one divisibility check per form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

from .arith.poly import MPoly
from .arith.rationals import valuation


class Undecided(Exception):
    def __init__(self, depth, detail=""):
        self.depth = depth
        super().__init__(f"undecided after depth {depth} {detail}")


class NodeBudgetExceeded(Undecided):
    pass


def _monomials(vec):
    """Values at vec of the monomials of degrees 0..3 in y0..y3, one list
    per degree.  Degree d + 1 is grouped by last variable k: group k is
    each degree-d monomial in y0..yk, in its own order, times yk."""
    y0, y1, y2, y3 = vec
    q00, q01, q11, q02, q12, q22, q03, q13, q23, q33 = quad = [
        y0 * y0, y0 * y1, y1 * y1, y0 * y2, y1 * y2, y2 * y2,
        y0 * y3, y1 * y3, y2 * y3, y3 * y3]
    cubic = [q00 * y0,
             q00 * y1, q01 * y1, q11 * y1,
             q00 * y2, q01 * y2, q11 * y2, q02 * y2, q12 * y2, q22 * y2,
             q00 * y3, q01 * y3, q11 * y3, q02 * y3, q12 * y3, q22 * y3,
             q03 * y3, q13 * y3, q23 * y3, q33 * y3]
    return [[1], [y0, y1, y2, y3], quad, cubic]


# Position of each monomial in the lists of _monomials, keyed by its value
# at the primes (2, 3, 5, 7), which fixes its exponents.
_POSITION = [{m: i for i, m in enumerate(level)} for level in _monomials((2, 3, 5, 7))]


def _dense(form, degree):
    """{expo: coeff} of the given degree -> coefficient list in _monomials order."""
    coeffs = [0] * len(_POSITION[degree])
    for (a, b, c, d), coeff in form.items():
        coeffs[_POSITION[degree][2**a * 3**b * 5**c * 7**d]] = coeff
    return coeffs


@dataclass
class ProjectiveSystem:
    """Homogeneous integer forms in y0..y3 with content 1, of degree 1 to 3.
    Each form and its four partials are also kept as dense coefficient lists."""

    forms: list          # list of {expo: int}

    def __post_init__(self):
        degs = [{sum(e) for e in f} for f in self.forms]
        if any(len(d) != 1 or not d <= {1, 2, 3} for d in degs):
            raise ValueError("forms must be nonzero, homogeneous and of degree 1 to 3")
        self._degrees = [min(d) for d in degs]
        self._coeffs = [_dense(f, d) for f, d in zip(self.forms, self._degrees)]
        self._partials = [[_dense(MPoly(4, f).partial(v).terms, d - 1) for v in range(4)]
                          for f, d in zip(self.forms, self._degrees)]

    @classmethod
    def from_mpolys(cls, mpolys):
        forms = []
        for f in mpolys:
            if not f.is_homogeneous():
                raise ValueError("forms must be homogeneous")
            den = lcm(*(Fraction(c).denominator for c in f.terms.values()))
            ints = {e: int(c * den) for e, c in f.terms.items()}
            g = gcd(*ints.values()) or 1
            forms.append({e: v // g for e, v in ints.items()})
        return cls(forms=forms)

    def evaluate(self, i, vec, mod=None):
        v = sum(map(mul, self._coeffs[i], _monomials(vec)[self._degrees[i]]))
        return v % mod if mod else v

    def jacobian_entry(self, i, var, vec):
        return sum(map(mul, self._partials[i][var], _monomials(vec)[self._degrees[i] - 1]))


@dataclass
class LocalVerdict:
    prime: int
    soluble: bool
    witness: dict | None
    depth_searched: int
    nodes: int           # branch nodes the search visited

    def recheck(self, system: ProjectiveSystem) -> bool:
        """Independent re-evaluation of the stored certificate."""
        if not self.soluble:
            return True
        w = self.witness
        vec = w["vector"]
        p, m = self.prime, w["minor_valuation"]
        vals = [system.evaluate(i, vec) for i in range(len(system.forms))]
        if any(v % p ** (2 * m + 1) for v in vals):
            return False
        i, j = w["minor_columns"]
        det = (system.jacobian_entry(0, i, vec) * system.jacobian_entry(1, j, vec)
               - system.jacobian_entry(0, j, vec) * system.jacobian_entry(1, i, vec))
        return det != 0 and valuation(det, p) == m


def enumerate_points_mod_p(system: ProjectiveSystem, p: int):
    """All primitive classes of P^3(F_p) killing every form, in canonical
    (patch, lexicographic) order; vectors are normalized with their first
    nonzero coordinate equal to 1."""
    if p > 101:
        raise ValueError("residue enumeration is limited to p <= 101")
    out = []
    for patch in range(4):
        for rest in product(range(p), repeat=3 - patch):
            vec = (0,) * patch + (1,) + rest
            if all(system.evaluate(i, vec, p) == 0 for i in range(len(system.forms))):
                out.append(vec)
    return out


def is_locally_soluble(system: ProjectiveSystem, p: int, max_depth: int = 12,
                       node_budget: int = 1_000_000) -> LocalVerdict:
    """Decide solubility over Q_p by certified branch refinement.

    A branch fixes the point modulo p^k in an affine patch.  Inside it,
    F_i can only move at valuation >= min(k + v(J_i), 2k), with v(J_i) the
    least valuation in F_i's Jacobian row, so the branch is dead unless
    p^k * gcd(J_i, p^k) divides F_i; a branch certifies through the
    2x2-minor Hensel criterion.  This prunes hard even when the whole
    Jacobian is divisible by p (the cube-structure of the descent forms
    makes that the typical case at p = 3).

    soluble=True carries a re-checkable witness; soluble=False is only
    returned once every branch died; anything else raises Undecided.
    `nodes` counts the branch nodes visited; p must be a prime <= 101.
    """
    if len(system.forms) != 2:
        raise ValueError("solubility search expects a pair of forms")
    if not 2 <= p <= 101 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be a prime <= 101, got {p}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    start_points = enumerate_points_mod_p(system, p)
    (c0, c1), (d0, d1) = system._coeffs, system._degrees
    # per patch: its free coordinates, and both forms' partials along them
    frees = [[j for j in range(4) if j != patch] for patch in range(4)]
    rows = [[[P[j] for j in free] for P in system._partials] for free in frees]
    budget = [node_budget]
    undecided = []
    BIG = 10**9

    def descend(vec, k, patch):
        if budget[0] <= 0:
            raise NodeBudgetExceeded(k, "node budget exhausted")
        budget[0] -= 1
        pk = p**k
        free, (rows0, rows1) = frees[patch], rows[patch]
        mons = _monomials(vec)
        f0 = sum(map(mul, c0, mons[d0]))
        if f0 % pk:
            return None
        j0 = [sum(map(mul, r, mons[d0 - 1])) for r in rows0]
        if f0 % (pk * gcd(*j0, pk)):
            return None  # F_0 cannot vanish anywhere in this branch
        f1 = sum(map(mul, c1, mons[d1]))
        j1 = [sum(map(mul, r, mons[d1 - 1])) for r in rows1]
        if f1 % (pk * gcd(*j1, pk)):
            return None
        verr = min((valuation(v, p) if v else BIG) for v in (f0, f1))
        best = None
        for a, b in ((0, 1), (0, 2), (1, 2)):
            det = j0[a] * j1[b] - j0[b] * j1[a]
            if det:
                m = valuation(det, p)
                if best is None or m < best[0]:
                    best = (m, (free[a], free[b]))
        if best is not None and verr >= 2 * best[0] + 1:
            return {
                "vector": list(vec),
                "depth": k,
                "patch": patch,
                "minor_columns": list(best[1]),
                "minor_valuation": best[0],
                "form_valuation": verr,
            }
        if k >= max_depth:
            undecided.append((vec, k))
            return None
        for e in product(range(0, p * pk, pk), repeat=3):
            child = list(vec)
            for pos, inc in zip(free, e):
                child[pos] += inc
            w = descend(child, k + 1, patch)
            if w is not None:
                return w
        return None

    for vec in start_points:
        patch = next(i for i in range(4) if vec[i] == 1 and all(v == 0 for v in vec[:i]))
        w = descend(vec, 1, patch)
        if w is not None:
            verdict = LocalVerdict(prime=p, soluble=True, witness=w,
                                   depth_searched=w["depth"],
                                   nodes=node_budget - budget[0])
            if not verdict.recheck(system):
                raise AssertionError("certificate failed independent recheck")
            return verdict
    if undecided:
        raise Undecided(max_depth, f"{len(undecided)} branch(es) alive")
    return LocalVerdict(prime=p, soluble=False, witness=None, depth_searched=max_depth,
                        nodes=node_budget - budget[0])
