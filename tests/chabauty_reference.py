"""Test-only oracle for the known-point search of the Chabauty set-up.

`known_points_direct` is the box search written the plain way: each box
point sum n_i g_i is evaluated afresh, every n_i g_i by the group's
scalar multiplication.  `chabauty.setup._known_points` instead builds
each generator's multiples once and adds them; the two must find the
same points with the same psi-values in the same order.
"""


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
