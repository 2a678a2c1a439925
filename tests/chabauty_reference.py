"""Test-only oracles for the Chabauty set-up and engine.

`known_points_direct` is the box search written the plain way: each box
point sum n_i g_i is evaluated afresh, every n_i g_i by the group's
scalar multiplication.  `chabauty.setup._known_points` instead builds
each generator's multiples once and adds them; the two must find the
same points with the same psi-values in the same order.

`empty_mod_box` decides what `chabauty.engine._empty_mod` decides by
scanning the whole box of n that H mod p^k depends on, with no lifting.
"""

from itertools import product
from math import comb, prod


def known_points_direct(E, psi, gens, P0, box):
    """(nvec or None, point, psi-value) for the box points with a rational
    psi-value, the first point of each class of equal points only, in
    itertools.product order, then P0 if it was not found."""
    found = []

    def nvecs(r):
        if r == 0:
            yield ()
            return
        for head in range(-box, box + 1):
            for tail in nvecs(r - 1):
                yield (head,) + tail

    for nvec in nvecs(len(gens)):
        P = E.zero()
        for n, g in zip(nvec, gens):
            P = P + n * g
        val = psi.rational_value(P)
        if val is not None and not any(P == Q for _, Q, _ in found):
            found.append((nvec, P, val))
    if not any(P0 == Q for _, Q, _ in found):
        found.append((None, P0, psi.rational_value(P0)))
    return found


def empty_mod_box(p, k, terms):
    """True if the Newton-form equations sum_e Delta^e H(0) C(n, e) of terms
    (e, [(Delta^e H(0), known)] per equation), |e| < k, have no common
    zero mod p^k at any n in [0, box)^rank: box = p^(k-1), or p^k when a
    first difference is a unit.  Each head n[:-1] of the box turns each
    equation into coefficients of C(m, j), j < k, in the last entry m."""
    unit = any(d % p for e, diff in terms if sum(e) == 1 for d, _ in diff)
    mod = p**k
    box = mod if unit else mod // p
    binoms = [[comb(m, j) for j in range(k)] for m in range(box)]
    for head in product(range(box), repeat=len(terms[0][0]) - 1):
        polys = [[0] * k for _ in terms[0][1]]
        for e, diff in terms:
            w = prod(map(comb, head, e))
            for poly, (d, _) in zip(polys, diff):
                poly[e[-1]] += w * d
        if any(all(sum(c * b for c, b in zip(poly, bm)) % mod == 0 for poly in polys)
               for bm in binoms):
            return False
    return True
