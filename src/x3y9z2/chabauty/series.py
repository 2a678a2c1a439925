"""The formal-group logarithm of y^2 = x^3 + a x + b over Z_p, and the
PrecisionTooLow exception of the p-adic Chabauty code.
"""

from __future__ import annotations

from fractions import Fraction

from ..arith.localfield import ZqRing
from ..arith.rationals import valuation


class PrecisionTooLow(Exception):
    pass


def _omega_series_mod(a_int: int, b_int: int, p: int, W: int, terms: int):
    """Coefficients of the invariant differential omega = (1 + ...)dt in
    the parameter t = -x/y, modulo p^W: w = -1/y = t^3 + a t w^2 + b w^3
    is iterated to a fixed point on plain modular integers."""
    mod = p**W
    T = terms + 4

    w = [0] * (T + 3)
    w[3] = 1
    for _ in range(T):
        w2 = [0] * (T + 3)
        for i in range(T + 3):
            if w[i]:
                for j in range(T + 3 - i):
                    if w[j]:
                        w2[i + j] = (w2[i + j] + w[i] * w[j]) % mod
        w3 = [0] * (T + 3)
        for i in range(T + 3):
            if w2[i]:
                for j in range(T + 3 - i):
                    if w[j]:
                        w3[i + j] = (w3[i + j] + w2[i] * w[j]) % mod
        new = [0] * (T + 3)
        new[3] = 1
        for i in range(T + 2):
            if w2[i]:
                new[i + 1] = (new[i + 1] + a_int * w2[i]) % mod
        for i in range(T + 3):
            if w3[i]:
                new[i] = (new[i] + b_int * w3[i]) % mod
        if new == w:
            break
        w = new
    # w = t^3 * u(t), u a unit: x = t/w = t^-2 / u and y = -1/w = -t^-3 / u.
    u = [w[i + 3] for i in range(T)]
    if u[0] != 1:
        raise AssertionError("w must start at t^3")
    uinv = [0] * T
    uinv[0] = 1
    for k in range(1, T):
        s = 0
        for j in range(1, k + 1):
            if u[j]:
                s = (s + u[j] * uinv[k - j]) % mod
        uinv[k] = -s % mod
    # x = t^-2 * uinv, y = -t^-3 * uinv; omega = x'/(2y) = -num * u / 2
    # with num = sum (k-2) uinv_k t^k.
    num = [((k - 2) * uinv[k]) % mod for k in range(T)]
    omega = [0] * T
    for i in range(T):
        if num[i]:
            for j in range(T - i):
                if u[j]:
                    omega[i + j] = (omega[i + j] + num[i] * u[j]) % mod
    inv2 = pow(2, -1, mod)
    omega = [(-c * inv2) % mod for c in omega]
    if omega[0] != 1:
        raise AssertionError("formal differential must start at 1")
    return omega[: terms + 1]


def _p_integral_residue(x, p: int, W: int) -> int:
    q = Fraction(x)
    if q.denominator % p == 0:
        raise PrecisionTooLow("curve coefficient is not p-integral")
    return q.numerator * pow(q.denominator, -1, p**W) % p**W


def formal_log(a, b, ring: ZqRing, t, terms: int = 24):
    """Formal-group logarithm at parameter t = -x/y of a kernel point.

    a, b are the curve coefficients as p-integral rationals (e.g. the
    residue representatives of an embedded curve).  t is an element (a
    1-tuple) of a d = 1 ZqRing, i.e. Z_p mod p^N, with v_p(t) >= 1.
    Returns (log, ring'): log is an element of the d = 1 ZqRing ring' of
    precision min(N, tail), the digits that the series truncated after
    `terms` terms certifies; to that precision it is additive on the
    kernel of reduction.
    """
    if ring.d != 1:
        raise ValueError("formal_log needs t in a degree-1 ZqRing")
    p, N = ring.p, ring.N
    mu = ring.val(t)
    if mu < 1:
        raise PrecisionTooLow("parameter is not in the kernel of reduction")
    mod = p**N
    omega = _omega_series_mod(_p_integral_residue(a, p, N),
                              _p_integral_residue(b, p, N), p, N, terms)
    acc = 0
    for k in range(1, terms + 1):
        # The log coefficient is omega_(k-1) / k.  p^e = p^v_p(k) divides
        # t^k (k*mu > e), and t mod p^N fixes t^k / p^e mod p^N.
        pe = p**valuation(k, p)
        tk = pow(t[0], k, mod * pe) // pe
        acc += omega[k - 1] * pow(k // pe, -1, mod) * tk
    # Tail: the omitted term at index k has valuation >= k*mu - v_p(k)
    # (log coefficients are integral over p up to the 1/k), so
    # min_{k > terms} (k*mu - v_p(k)) >= k0*mu - max_k (v_p(k) - (k - k0)).
    k0 = terms + 1
    cap = min(N, k0 * mu - _vp_excess(k0, p))
    if cap < 1:
        raise PrecisionTooLow("series tail dominates the computed value")
    out = ring if cap == N else ZqRing(p, ring.h, cap)
    return out.elem(acc), out


def _vp_excess(k0: int, p: int) -> int:
    """max over k >= k0 of v_p(k) - (k - k0); beyond the scanned window
    v_p(k) <= log_p(k) < k - k0, so the window is exhaustive."""
    best = 0
    for k in range(k0, k0 + max(64, 4 * p)):
        best = max(best, (valuation(k, p) if k else 0) - (k - k0))
    return best
