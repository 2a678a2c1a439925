"""Local solubility of pairs of cubic forms in P^3 over Q_p.

Exhaustive residue enumeration plus quantitative Hensel certificates: a
branch is certified liftable when both forms vanish beyond twice the
valuation of some 2x2 Jacobian minor in the free coordinates of its
affine patch; insolubility requires exhausting every branch.  Branches
still alive when no deeper pass can run surface as an Undecided error,
never as a boolean.

Refinement is exhaustive: a live branch v mod p^k has all p^3 children
c = v + p^k e, e ranging over {0..p-1}^3 on the free coordinates of its
patch, and each child is judged by the valuation-gap test at depth
k + 1: it passes iff p^(k+1) gcd(J(c), p^(k+1)) divides F(c).  The parent
predicts F(c) and J(c) mod p^(k+1) from its own Taylor expansion.  With J
and H the Jacobian row and the Hessian of a form F of degree d <= 3 on
the free coordinates at v,

    F(c) = F(v) + p^k J.e + p^(2k) Q(e) + p^(3k) F(e)
    J(c) = J(v) + p^k H e          (mod p^(k+1), as 2k >= k + 1)
    Q(e) = (1/2) e^T H e = sum_a (H_aa/2) e_a^2 + sum_(a<b) H_ab e_a e_b

where F(e) puts e on the free coordinates and 0 on the patch coordinate,
Q has integer coefficients because H's diagonal is even, and the terms
above degree d vanish.  The first identity is exact, so the parent's
verdict on a child is the child's own, and it needs only a few digits.
Let p^s = gcd(J, p^k).  The node passed its own gap test, so p^(k+s)
divides F(v).

  s < k:  some J_a has valuation s < k, and J(c) = J + p^k (...) keeps
    it, so gcd(J(c), p^(k+1)) = p^s and the child passes iff p^(k+1+s)
    divides F(c).  The terms of F(c)/p^(k+s) after the linear one carry
    p^(k-s) or more, so that is the first digit

        r(e) = F(v)/p^(k+s) + (J/p^s).e  = 0  (mod p).

  s = k:  p^k divides J, so J(c) = p^k (J/p^k + H e) mod p^(k+1), and
    gcd(J(c), p^(k+1)) is p^(k+1) when J/p^k + H e = 0 mod p, else p^k.
    With

        t(e) = F(c)/p^(2k) = F(v)/p^(2k) + (J/p^k).e + Q(e) + p^k F(e),

    the child passes iff p | t, and also p^2 | t whenever
    J/p^k + H e = 0 (mod p).  For k >= 2 the p^k F(e) term vanishes
    mod p^2.

So per form the verdict reads a key: the modulus m (p when s < k, p^2
when s = k) and the ten coefficients mod m of r, or of t - p^k F(e), in
the monomials 1, e_a, e_a e_b (Q's six are zero when s < k); H mod p is
read back from Q's.  The children that pass both forms are a memoized
function of (p, key0, key1, k = 1), merged from one memo per form: on
equation 5 at p = 3, 563 key pairs and 187 keys cover the 5,546 nodes
that expand.  At k = 1 (s = 1) a child
with J/p + H e = 0 mod p also reads F(e) mod p: there the memo gives the
residue t - p F(e) mod p^2 that p F(e) must cancel, and the node reads
F(e) mod p from a table per patch.  Only the children that pass go down a
level; each rejected child still counts as a visited node against the
node budget, in child order, a run of them at a time, and the budget
runs out at the same child and depth as with one visit each.

A node computes the monomials of its vector once and evaluates each form
and partial as a dot product with a dense coefficient list.  Form 0 is
tested first, and form 1 only where form 0 leaves the branch alive; the
valuation-gap test is one divisibility check per form, and the Hensel
test one valuation of the gcd of the 2x2 minors.  The residue points
where both forms vanish mod p and the values F(e) mod p depend only on
p, the patch and the forms mod p, and the monomials behind them only on
p and the patch, so all four tables are memoized for p <= 7 (an entry
holds up to p^3 values).  On equation 5 at p = 3 the 243 classes have 25
distinct pairs of forms mod 3, and 11 distinct forms.
"""

from __future__ import annotations

import sys
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
# frames a search adds below its deepest `descend`, with a margin
LEAF_FRAMES = 20


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


def _frames_left():
    """The frames that the caller can still nest before a RecursionError."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return sys.getrecursionlimit() - depth


def _small_p_memo(maxsize):
    """Memoize a table function f(p, ...) for p <= 7, at most maxsize entries,
    and build afresh for larger p: an entry holds up to p^3 values."""
    def wrap(build):
        memo = lru_cache(maxsize=maxsize)(build)
        return lambda p, *args: (memo if p <= 7 else build)(p, *args)
    return wrap


@_small_p_memo(8)
def _point_monomials(p, patch):
    """(vec, monomials(vec)) for the residue points of P^3(F_p) in a patch:
    0 before the patch coordinate, 1 on it, in lexicographic order."""
    vecs = ((0,) * patch + (1,) + rest for rest in product(range(p), repeat=3 - patch))
    return tuple((vec, monomials(vec)) for vec in vecs)


@_small_p_memo(8)
def _offset_cubics(p, patch):
    """The cubic monomials of each child offset e in {0..p-1}^3, put on a
    patch's free coordinates (0 on the patch coordinate), in child order."""
    return tuple(monomials(e[:patch] + (0,) + e[patch:])[3] for e in product(range(p), repeat=3))


@_small_p_memo(256)
def _residue_points(p, forms):
    """The residue points of P^3(F_p), in canonical order, at which every
    form vanishes, for forms given as (degree, coefficients mod p)."""
    return tuple(vec for patch in range(4) for vec, mons in _point_monomials(p, patch)
                 if not any(sum(map(mul, c, mons[d])) % p for d, c in forms))


@_small_p_memo(512)
def _cube_residues(p, patch, coeffs):
    """F(e) mod p at each child offset e of a patch, in child order, for the
    cubic form with the given coefficients mod p."""
    return tuple(sum(map(mul, coeffs, m)) % p for m in _offset_cubics(p, patch))


def enumerate_points_mod_p(system: ProjectiveSystem, p: int):
    """All primitive classes of P^3(F_p) killing every form, in canonical
    (patch, lexicographic) order; vectors are normalized with their first
    nonzero coordinate equal to 1."""
    if p > 101:
        raise ValueError("residue enumeration is limited to p <= 101")
    return list(_residue_points(p, tuple((d, tuple(x % p for x in c))
                                         for c, d in zip(system._coeffs, system._degrees))))


def _child_key(p, pk, f, j, ps, hess, mons):
    """One form's key at a node v mod p^k that passed its gap test (module
    docstring): the modulus m, p when s < k and p^2 when s = k with
    p^s = ps = gcd(J, p^k), then the ten coefficients mod m of r(e), or of
    t(e) - p^k F(e), in the monomials 1, e0, e1, e2, e0^2, e0 e1, e1^2,
    e0 e2, e1 e2, e2^2.  f = F(v), j is F's Jacobian row on the free
    coordinates, and the Hessian there is read only when s = k: hess holds
    the coefficient rows of its six entries (h00, h01, h11, h02, h12, h22)
    and mons the monomials of degree d - 2 at v."""
    j0, j1, j2 = j
    if ps < pk:
        return (p, f // (pk * ps) % p, j0 // ps % p, j1 // ps % p, j2 // ps % p,
                0, 0, 0, 0, 0, 0)
    m = p * p
    h00, h01, h11, h02, h12, h22 = [sum(map(mul, r, mons)) for r in hess]
    return (m, f // (pk * pk) % m, j0 // pk % m, j1 // pk % m, j2 // pk % m,
            h00 // 2 % m, h01 % m, h11 // 2 % m, h02 % m, h12 % m, h22 // 2 % m)


@lru_cache(maxsize=4096)
def _form_children(p, key, first_level):
    """The children of a node, in child order (e over {0..p-1}^3
    lexicographically), that pass one form's gap test, given the form's
    key there, as (index, r).  r is None when the verdict is settled; at
    the first level (k = 1) a child with s = k and J/p + H e = 0 mod p
    passes only if (r + p F(e)) = 0 mod p^2, and r is that residue."""
    m, c, l0, l1, l2, q00, q01, q11, q02, q12, q22 = key
    out = []
    for i, (e0, e1, e2) in enumerate(product(range(p), repeat=3)):
        t = (c + l0 * e0 + l1 * e1 + l2 * e2 + q00 * e0 * e0 + q01 * e0 * e1
             + q11 * e1 * e1 + q02 * e0 * e2 + q12 * e1 * e2 + q22 * e2 * e2) % m
        if t % p:
            continue
        if (m == p or (l0 + 2 * q00 * e0 + q01 * e1 + q02 * e2) % p
                or (l1 + q01 * e0 + 2 * q11 * e1 + q12 * e2) % p
                or (l2 + q02 * e0 + q12 * e1 + 2 * q22 * e2) % p):
            out.append((i, None))
        elif first_level:
            out.append((i, t))
        elif not t:
            out.append((i, None))
    return tuple(out)


@lru_cache(maxsize=4096)
def _passing_children(p, key0, key1, first_level):
    """The children that pass both forms' gap tests, given their keys, as
    (index, r0, r1) in child order (`_form_children`)."""
    other = dict(_form_children(p, key1, first_level))
    return tuple((i, r0, other[i]) for i, r0 in _form_children(p, key0, first_level)
                 if i in other)


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

    A live node judges each of its p^3 children by that gap test itself,
    exactly, from the first one or two digits of F(child) that its own
    Taylor expansion gives (module docstring): a child is rejected there
    exactly when it would die at its own node.  Only the children that
    pass are visited in turn.  A rejected child still counts as a visited node, in child
    order (the rejected ones between two passing children at once), and
    the node budget runs out at the same child as with no parent-side test.

    The first pass ends at depth max_depth; a pass that leaves live
    branches and no witness is run again at twice the depth, on what is
    left of the node budget.  soluble=True carries a re-checkable witness;
    soluble=False is only returned once every branch died.  Undecided is
    raised when the budget runs out, or when the next pass would nest more
    frames of `descend` (one a level) than the recursion limit allows.
    `nodes` counts the branch nodes of every pass; p must be a prime <= 101.
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
    pp = p * p
    # per patch, filled at its first expansion (always at k = 1, the only
    # depth that reads it): F_i(e) mod p for each child offset e on the free
    # coordinates, in child order (zeros below degree 3)
    cubes = [None] * 4
    budget = [node_budget]
    undecided = []
    BIG = 10**9

    def cube_table(patch):
        return [_cube_residues(p, patch, tuple(x % p for x in c)) if d == 3
                else [0] * len(children) for c, d in ((c0, d0), (c1, d1))]

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
        g0 = gcd(*j0, pk)
        if f0 % (pk * g0):
            return None  # F_0 cannot vanish anywhere in this branch
        f1 = sum(map(mul, c1, mons[d1]))
        j1 = [sum(map(mul, r, mons[d1 - 1])) for r in rows1]
        g1 = gcd(*j1, pk)
        if f1 % (pk * g1):
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
        counted = 0  # children before this index are counted as visited
        for i, r0, r1 in _passing_children(p, _child_key(p, pk, f0, j0, g0, hess0, mons[h0deg]),
                                           _child_key(p, pk, f1, j1, g1, hess1, mons[h1deg]),
                                           k == 1):
            if ((r0 is not None and (r0 + p * z0[i]) % pp)
                    or (r1 is not None and (r1 + p * z1[i]) % pp)):
                continue  # only at k = 1: p F(e) does not cancel the residue
            e = children[i]
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

    # descend refers to itself, so its closure (the patch tables, the
    # child list, the cube tables) is a reference cycle: drop it on the
    # way out rather than leave it to the cyclic collector.
    try:
        while True:
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
            if not undecided:
                return LocalVerdict(prime=p, soluble=False, witness=None,
                                    depth_searched=max_depth, nodes=node_budget - budget[0])
            if 2 * max_depth + LEAF_FRAMES > _frames_left():
                raise Undecided(max_depth, f"{len(undecided)} branch(es) alive")
            undecided.clear()
            max_depth *= 2
    finally:
        descend = None
