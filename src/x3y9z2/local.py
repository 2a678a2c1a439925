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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .arith.rationals import valuation


class Undecided(Exception):
    def __init__(self, depth, detail=""):
        self.depth = depth
        super().__init__(f"undecided after depth {depth} {detail}")


class NodeBudgetExceeded(Undecided):
    pass


def _compile(form_dict):
    """{expo: coeff} -> list of (coeff, flat variable index tuple)."""
    out = []
    for e, c in form_dict.items():
        idx = []
        for v, k in enumerate(e):
            idx.extend([v] * k)
        out.append((c, tuple(idx)))
    return out


def _eval_compiled(compiled, vec):
    total = 0
    for c, idx in compiled:
        t = c
        for v in idx:
            t *= vec[v]
        total += t
    return total


@dataclass
class ProjectiveSystem:
    """Homogeneous integer forms in y0..y3 with content 1."""

    forms: list          # list of {expo: int}
    _compiled: list = None
    _partials: list = None

    def __post_init__(self):
        self._compiled = [_compile(f) for f in self.forms]
        self._partials = [[_compile(_partial(f, v)) for v in range(4)] for f in self.forms]

    @classmethod
    def from_mpolys(cls, mpolys):
        forms = []
        for f in mpolys:
            if not f.is_homogeneous():
                raise ValueError("forms must be homogeneous")
            den = 1
            for c in f.terms.values():
                den = lcm(den, Fraction(c).denominator)
            ints = {e: int(c * den) for e, c in f.terms.items()}
            g = 0
            for v in ints.values():
                g = gcd(g, v)
            if g:
                ints = {e: v // g for e, v in ints.items()}
            forms.append(ints)
        return cls(forms=forms)

    def evaluate(self, i, vec, mod=None):
        v = _eval_compiled(self._compiled[i], vec)
        return v % mod if mod else v

    def jacobian_entry(self, i, var, vec):
        return _eval_compiled(self._partials[i][var], vec)


def _partial(form_dict, var):
    out = {}
    for e, c in form_dict.items():
        if e[var]:
            e2 = list(e)
            e2[var] -= 1
            out[tuple(e2)] = c * e[var]
    return out


@dataclass
class LocalVerdict:
    prime: int
    soluble: bool
    witness: dict | None
    depth_searched: int

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
    nforms = len(system.forms)
    for patch in range(4):
        free = list(range(patch + 1, 4))
        for rest in product(range(p), repeat=len(free)):
            vec = [0] * 4
            vec[patch] = 1
            for pos, val in zip(free, rest):
                vec[pos] = val
            if all(system.evaluate(i, vec, p) == 0 for i in range(nforms)):
                out.append(tuple(vec))
    return out


def is_locally_soluble(system: ProjectiveSystem, p: int, max_depth: int = 12,
                       node_budget: int = 1_000_000) -> LocalVerdict:
    """Decide solubility over Q_p by certified branch refinement.

    A branch fixes the point modulo p^k in an affine patch.  Inside it,
    F_i can only move at valuation >= min(k + v(J_i), 2k), so a branch
    whose value valuation is below that constancy bound is dead; a
    branch certifies through the 2x2-minor Hensel criterion.  This
    prunes hard even when the whole Jacobian is divisible by p (the
    cube-structure of the descent forms makes that the typical case at
    p = 3).

    soluble=True carries a re-checkable witness; soluble=False is only
    returned once every branch died; anything else raises Undecided.
    """
    if len(system.forms) != 2:
        raise ValueError("solubility search expects a pair of forms")
    start_points = enumerate_points_mod_p(system, p)
    budget = [node_budget]
    undecided = []
    BIG = 10**9

    def descend(vec, k, patch):
        if budget[0] <= 0:
            raise NodeBudgetExceeded(k, "node budget exhausted")
        budget[0] -= 1
        free = [j for j in range(4) if j != patch]
        jac = [[system.jacobian_entry(i, v, vec) for v in free] for i in range(2)]
        f_vals = [system.evaluate(i, vec) for i in range(2)]
        for i in range(2):
            vf = valuation(f_vals[i], p) if f_vals[i] else BIG
            lam = min((valuation(x, p) if x else BIG) for x in jac[i])
            if vf < min(k + lam, 2 * k):
                return None  # F_i cannot vanish anywhere in this branch
        verr = min((valuation(v, p) if v else BIG) for v in f_vals)
        best = None
        for a in range(3):
            for b in range(a + 1, 3):
                det = jac[0][a] * jac[1][b] - jac[0][b] * jac[1][a]
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
        pk = p**k
        for e in product(range(p), repeat=3):
            child = list(vec)
            for pos, inc in zip(free, e):
                child[pos] += pk * inc
            w = descend(tuple(child), k + 1, patch)
            if w is not None:
                return w
        return None

    for vec in start_points:
        patch = next(i for i in range(4) if vec[i] == 1 and all(v == 0 for v in vec[:i]))
        w = descend(vec, 1, patch)
        if w is not None:
            verdict = LocalVerdict(prime=p, soluble=True, witness=w,
                                   depth_searched=w["depth"])
            if not verdict.recheck(system):
                raise AssertionError("certificate failed independent recheck")
            return verdict
    if undecided:
        raise Undecided(max_depth, f"{len(undecided)} branch(es) alive")
    return LocalVerdict(prime=p, soluble=False, witness=None, depth_searched=max_depth)
