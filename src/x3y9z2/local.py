"""Local solubility of pairs of cubic forms in P^3 over Q_p.

Exhaustive residue enumeration plus quantitative Hensel certificates: a
branch is certified liftable when both forms vanish beyond twice the
valuation of some 2x2 Jacobian minor in the free coordinates of its
affine patch; insolubility requires exhausting every branch.  Branches
still alive at the depth limit surface as an Undecided error, never as
a boolean.

Refinement is exhaustive: a live branch v mod p^k has all p^3 children
c = v + p^k e, e ranging over {0..p-1}^3 on the free coordinates of its
patch, and each child is judged by the valuation-gap test at depth
k + 1.  That test reads only F(c) and J(c) mod p^(k+1), and the parent
predicts both from its own Taylor expansion.  With J and H the Jacobian
row and the Hessian of a form F of degree d <= 3 on the free
coordinates at v,

    F(c) = F(v) + p^k J.e + p^(2k) (1/2) e^T H e + p^(3k) F(e)
    J(c) = J(v) + p^k H e          (mod p^(k+1), as 2k >= k + 1)

where F(e) puts e on the free coordinates and 0 on the patch coordinate,
the half is exact because H's diagonal is even, and the terms above
degree d vanish.  The first identity is exact, and the gap test only
reads gcd(J(c), p^(k+1)), so the parent's verdict on a child is the
child's own.

Most children fail on the first digit of F(c), so the parent reads that
digit first.  Let p^s = gcd(J, p^k).  The node passed its own gap test,
so p^(k+s) divides F(v), and every J(c) = J + p^k H e + p^(2k) (...) is
divisible by p^s (s <= k).  A child that passes therefore has p^(k+1+s)
dividing F(c), and modulo that power the p^(3k) F(e) term drops out
(3k >= k + s + 1), which leaves one quadratic over F_p per form:

    r(e) = F(v)/p^(k+s) + (J/p^s).e + p^(k-s) Q(e)  = 0  (mod p),
    Q(e) = sum_a (H_aa/2) e_a^2 + sum_(a<b) H_ab e_a e_b.

Its ten coefficients mod p (Q's six are zero unless s = k) are a key, and
the children where both forms' r vanish are a memoized function of
(p, key0, key1): a few dozen key pairs cover every class at p = 2 and 3.
r(e) = 0 is only necessary (it ignores the child's own gcd(J(c), p^(k+1))
and the higher digits of F(c)), so the exact gap test above still decides
each of these candidates.  Every other child is rejected by r(e) != 0
mod p.  Only the children that pass go down a level; each rejected child
still counts as a visited node against the node budget, in child order,
a run of them at a time, and the budget runs out at the same child and
depth as with one visit each.

A node computes the monomials of its vector once and evaluates each form
and partial as a dot product with a dense coefficient list.  Form 0 is
tested first, and form 1 only where form 0 leaves the branch alive; the
valuation-gap test is one divisibility check per form, and the Hensel
test one valuation of the gcd of the 2x2 minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple

from .arith.poly import MONOMIAL_EXPONENTS, PAIRS, dense_table, monomials
from .arith.rationals import valuation

# the column pairs of the 2x2 Jacobian minors on a patch's free coordinates
MINORS = ((0, 1), (0, 2), (1, 2))


class Undecided(Exception):
    def __init__(self, depth, detail=""):
        self.depth = depth
        super().__init__(f"undecided after depth {depth} {detail}")


class NodeBudgetExceeded(Undecided):
    pass


class DenseForm(NamedTuple):
    """A homogeneous integer form in y0..y3 of degree 1 to 3, as its
    dense_table: the coefficient lists of the form, of its four partials
    and of its ten second partials."""

    degree: int
    table: list

    @classmethod
    def primitive(cls, degree, table):
        """The form whose dense_table is `table`, divided by its content (the
        table is linear in the form)."""
        g = gcd(*table[:len(MONOMIAL_EXPONENTS[degree])])
        if not g:
            raise ValueError("forms must be nonzero")
        return cls(degree, [c // g for c in table] if g > 1 else table)


def _dense_form(terms):
    """The DenseForm with content 1 of a form {expo: rational}."""
    degs = {sum(e) for e in terms}
    if len(degs) != 1 or not degs <= {1, 2, 3}:
        raise ValueError("forms must be nonzero, homogeneous and of degree 1 to 3")
    d = degs.pop()
    den = lcm(*(Fraction(c).denominator for c in terms.values()))
    return DenseForm.primitive(d, dense_table({e: int(c * den) for e, c in terms.items()}, d))


@dataclass
class ProjectiveSystem:
    """Homogeneous integer forms in y0..y3 with content 1, of degree 1 to 3.
    Each form, its four partials and its ten second partials are also kept
    as dense coefficient lists, cut from the form's dense_table."""

    forms: list          # {expo: coeff} over Q, or DenseForms; kept as {expo: int}

    def __post_init__(self):
        dense = [f if isinstance(f, DenseForm) else _dense_form(f) for f in self.forms]
        self.forms = [{e: c for e, c in zip(MONOMIAL_EXPONENTS[d], t) if c} for d, t in dense]
        self._degrees = [d for d, _ in dense]
        self._coeffs, self._partials, self._hessians = [], [], []
        for d, t in dense:
            n0, n1, n2 = (len(MONOMIAL_EXPONENTS[max(d - k, 0)]) for k in range(3))
            self._coeffs.append(t[:n0])
            self._partials.append([t[n0 + v * n1:n0 + (v + 1) * n1] for v in range(4)])
            h = n0 + 4 * n1
            self._hessians.append({pair: t[h + k * n2:h + (k + 1) * n2]
                                   for k, pair in enumerate(PAIRS)})

    @classmethod
    def from_mpolys(cls, mpolys):
        """The system of the given MPolys over Q, or of the DenseForms of a
        descent class's `curve_forms`."""
        return cls(forms=[f if isinstance(f, DenseForm) else f.terms for f in mpolys])

    def evaluate(self, i, vec, mod=None):
        v = sum(map(mul, self._coeffs[i], monomials(vec)[self._degrees[i]]))
        return v % mod if mod else v

    def jacobian_entry(self, i, var, vec):
        return sum(map(mul, self._partials[i][var], monomials(vec)[self._degrees[i] - 1]))


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
            mons = monomials(vec)
            if not any(sum(map(mul, c, mons[d])) % p
                       for c, d in zip(system._coeffs, system._degrees)):
                out.append(vec)
    return out


def _taylor(f, j, h, z, e, pk):
    """F(c) exactly and F's Jacobian row J(c) mod p^(k+1) (k >= 1) on the free
    coordinates at the child c = v + p^k e of a node v mod p^k, read from the
    node: f = F(v), j and h are F's Jacobian row and Hessian
    (h00, h01, h11, h02, h12, h22) on the free coordinates at v, and
    z = F(e), or 0 when F has degree below 3."""
    e0, e1, e2 = e
    h00, h01, h11, h02, h12, h22 = h
    he0 = h00 * e0 + h01 * e1 + h02 * e2
    he1 = h01 * e0 + h11 * e1 + h12 * e2
    he2 = h02 * e0 + h12 * e1 + h22 * e2
    fc = f + pk * (j[0] * e0 + j[1] * e1 + j[2] * e2
                   + pk * ((e0 * he0 + e1 * he1 + e2 * he2) // 2 + pk * z))
    return fc, (j[0] + pk * he0, j[1] + pk * he1, j[2] + pk * he2)


def _first_digit(f, j, h, p, pk):
    """The ten coefficients mod p of r(e) = F(c) / p^(k+s) mod p at the
    children c = v + p^k e of a node v mod p^k that passed its gap test,
    with p^s = gcd(J, p^k): the constant, the three linear ones and, only
    when s = k, the six of Q(e) (h00/2, h01, h11/2, h02, h12, h22/2)."""
    ps = gcd(*j, pk)
    key = (f // (pk * ps) % p, *(x // ps % p for x in j))
    if ps < pk:
        return key + (0,) * 6
    h00, h01, h11, h02, h12, h22 = h
    return key + (h00 // 2 % p, h01 % p, h11 // 2 % p, h02 % p, h12 % p, h22 // 2 % p)


@lru_cache(maxsize=4096)
def _candidates(p, key0, key1):
    """The indices, in child order (e over {0..p-1}^3 lexicographically), of
    the children at which both first digits r with coefficients key0 and
    key1 vanish mod p."""
    out = []
    for i, (e0, e1, e2) in enumerate(product(range(p), repeat=3)):
        terms = (1, e0, e1, e2, e0 * e0, e0 * e1, e1 * e1, e0 * e2, e1 * e2, e2 * e2)
        if not (sum(map(mul, key0, terms)) % p or sum(map(mul, key1, terms)) % p):
            out.append(i)
    return tuple(out)


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

    A live node judges each of its p^3 children by that gap test itself
    (module docstring).  The first digit r(e) of F(child)/p^(k+s) must
    vanish mod p for both forms; that rules out most children, but it is
    only necessary, so the exact test, read from the node's Taylor
    expansion, decides the rest.  A child is rejected there exactly when
    it would die at its own node.  Only the children that pass are visited
    in turn.  A rejected child still counts as a visited node, in child
    order (the rejected ones between two passing children at once), and
    the node budget runs out at the same child as with no parent-side test.

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
    h0deg, h1deg = max(d0 - 2, 0), max(d1 - 2, 0)
    # per patch: its free coordinates, both forms' partials along them, and
    # both forms' second partials along the pairs of them (PAIRS order)
    frees = [[j for j in range(4) if j != patch] for patch in range(4)]
    rows = [[[P[j] for j in free] for P in system._partials] for free in frees]
    hessians = [[[H[free[a], free[b]] for a, b in PAIRS[:6]] for H in system._hessians]
                for free in frees]
    children = list(product(range(p), repeat=3))
    # per patch, filled at its first expansion: F_i(e) for each child offset
    # e on the free coordinates, in child order (zeros below degree 3)
    cubes = [None] * 4
    budget = [node_budget]
    undecided = []
    BIG = 10**9

    def cube_table(patch):
        cubics = [monomials(e[:patch] + (0,) + e[patch:])[3] for e in children]
        return [[sum(map(mul, c, m)) for m in cubics] if d == 3 else [0] * len(children)
                for c, d in ((c0, d0), (c1, d1))]

    def visit(k, n=1):
        """Count n visited nodes at depth k, in order: the budget runs out
        at the same node and depth as with n single visits."""
        if budget[0] < n:
            raise NodeBudgetExceeded(k, "node budget exhausted")
        budget[0] -= n

    def descend(vec, k, patch):
        visit(k)
        pk = p**k
        free, (rows0, rows1) = frees[patch], rows[patch]
        mons = monomials(vec)
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
        minors = [j0[a] * j1[b] - j0[b] * j1[a] for a, b in MINORS]
        g = gcd(*minors)
        if g:
            m = valuation(g, p)
            if not (f0 % p ** (2 * m + 1) or f1 % p ** (2 * m + 1)):
                a, b = next(ab for ab, det in zip(MINORS, minors)
                            if det and valuation(det, p) == m)
                return {
                    "vector": list(vec),
                    "depth": k,
                    "patch": patch,
                    "minor_columns": [free[a], free[b]],
                    "minor_valuation": m,
                    "form_valuation": min((valuation(v, p) if v else BIG) for v in (f0, f1)),
                }
        if k >= max_depth:
            undecided.append((vec, k))
            return None
        if cubes[patch] is None:
            cubes[patch] = cube_table(patch)
        z0, z1 = cubes[patch]
        hess0, hess1 = hessians[patch]
        h0 = [sum(map(mul, r, mons[h0deg])) for r in hess0]
        h1 = [sum(map(mul, r, mons[h1deg])) for r in hess1]
        pk1 = pk * p
        counted = 0  # children before this index are counted as visited
        for i in _candidates(p, _first_digit(f0, j0, h0, p, pk),
                             _first_digit(f1, j1, h1, p, pk)):
            # the child's exact gap test, form 0 first, from this node's expansion
            e = children[i]
            fc, jc = _taylor(f0, j0, h0, z0[i], e, pk)
            if fc % (pk1 * gcd(*jc, pk1)):
                continue
            fc, jc = _taylor(f1, j1, h1, z1[i], e, pk)
            if fc % (pk1 * gcd(*jc, pk1)):
                continue
            if i > counted:
                visit(k + 1, i - counted)
            counted = i + 1
            child = list(vec)
            for pos, inc in zip(free, e):
                child[pos] += pk * inc
            w = descend(child, k + 1, patch)
            if w is not None:
                return w
        if counted < len(children):
            visit(k + 1, len(children) - counted)
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
