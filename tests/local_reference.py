"""Reference branch search over Q_p, as an oracle for x3y9z2.local.

The exhaustive refinement: every child v + p^k e of a live node is
visited and judged by the full valuation-gap test at its own node, from
`ProjectiveSystem.evaluate` and `ProjectiveSystem.jacobian_entry`.  No
child is judged at its parent.  The witness, node count and Undecided
outcome are defined exactly as in `is_locally_soluble`.  Given a list as
`trail`, the search appends [depth, dead] for each node it visits, in
order, with dead true when the node fails its own gap test.

`_taylor` writes out, child by child, the parent-side expansion of the
module docstring of x3y9z2.local: F(c) exactly and J(c) mod p^(k+1).
"""

from itertools import product
from math import gcd

from x3y9z2.arith.rationals import valuation
from x3y9z2.local import (LocalVerdict, NodeBudgetExceeded, Undecided,
                          enumerate_points_mod_p)


def exhaustive_search(system, p, max_depth=12, node_budget=1_000_000, trail=None):
    budget = [node_budget]
    undecided = []

    def descend(vec, k, patch):
        if budget[0] <= 0:
            raise NodeBudgetExceeded(k, "node budget exhausted")
        budget[0] -= 1
        if trail is not None:
            trail.append([k, True])
        pk = p**k
        free = [j for j in range(4) if j != patch]
        f = [system.evaluate(i, vec) for i in (0, 1)]
        if f[0] % pk:
            return None
        jac = [[system.jacobian_entry(i, j, vec) for j in free] for i in (0, 1)]
        if any(f[i] % (pk * gcd(*jac[i], pk)) for i in (0, 1)):
            return None
        if trail is not None:
            trail[-1][1] = False
        verr = min(valuation(x, p) if x else 10**9 for x in f)
        best = None
        for a, b in ((0, 1), (0, 2), (1, 2)):
            det = jac[0][a] * jac[1][b] - jac[0][b] * jac[1][a]
            if det and (best is None or valuation(det, p) < best[0]):
                best = (valuation(det, p), [free[a], free[b]])
        if best is not None and verr >= 2 * best[0] + 1:
            return {"vector": list(vec), "depth": k, "patch": patch,
                    "minor_columns": best[1], "minor_valuation": best[0],
                    "form_valuation": verr}
        if k >= max_depth:
            undecided.append(vec)
            return None
        for e in product(range(p), repeat=3):
            child = list(vec)
            for pos, x in zip(free, e):
                child[pos] += pk * x
            w = descend(child, k + 1, patch)
            if w is not None:
                return w
        return None

    for vec in enumerate_points_mod_p(system, p):
        patch = next(i for i, x in enumerate(vec) if x)
        w = descend(vec, 1, patch)
        if w is not None:
            return LocalVerdict(prime=p, soluble=True, witness=w, depth_searched=w["depth"],
                                nodes=node_budget - budget[0])
    if undecided:
        raise Undecided(max_depth, f"{len(undecided)} branch(es) alive")
    return LocalVerdict(prime=p, soluble=False, witness=None, depth_searched=max_depth,
                        nodes=node_budget - budget[0])


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
