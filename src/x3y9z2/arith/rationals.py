"""Integer and rational helpers on top of fractions.Fraction.

Fraction already keeps gcd(|num|, den) = 1 with den >= 1, so it serves as
the canonical exact rational type throughout the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

def valuation(n, p: int) -> int:
    """p-adic valuation of a nonzero integer or Fraction."""
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    if isinstance(n, Fraction):
        return valuation(n.numerator, p) - valuation(n.denominator, p)
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def strip_primes(n: int, primes) -> int:
    """Remove all factors of the given primes from a nonzero integer."""
    n = abs(n)
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def icbrt(n: int):
    """Exact integer cube root of n, or None if n is not a perfect cube."""
    if n == 0:
        return 0
    sign = 1 if n > 0 else -1
    m = abs(n)
    # Newton iteration on integers, then exact check.
    r = 1 << ((m.bit_length() + 2) // 3)
    while True:
        s = (2 * r + m // (r * r)) // 3
        if s >= r:
            break
        r = s
    for c in (r - 1, r, r + 1):
        if c >= 0 and c * c * c == m:
            return sign * c
    return None


def rational_cube_root(q: Fraction):
    """Exact cube root of a rational, or None."""
    a = icbrt(q.numerator)
    if a is None:
        return None
    b = icbrt(q.denominator)
    if b is None:
        return None
    return Fraction(a, b)


def is_rational_cube(q: Fraction) -> bool:
    return rational_cube_root(q) is not None


def rational_sqrt(q: Fraction):
    """Exact nonnegative square root of a rational, or None."""
    if q < 0:
        return None
    a = isqrt(q.numerator)
    if a * a != q.numerator:
        return None
    b = isqrt(q.denominator)
    if b * b != q.denominator:
        return None
    return Fraction(a, b)


def factorize(n: int) -> dict:
    """Prime factorization of |n| by trial division (n != 0)."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int):
    """Sorted positive divisors of |n| (n != 0)."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def rational_reconstruct(u: int, m: int):
    """Recover a fraction n/d from its residue u mod m.

    Returns the unique Fraction n/d with |n|, d <= sqrt(m/2) and
    n = u*d (mod m), or None if no such fraction exists.  Standard
    half-extended Euclid (Wang's algorithm).
    """
    u %= m
    bound = isqrt(m // 2)
    r0, t0 = m, 0
    r1, t1 = u, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 > bound or abs(t1) > bound or t1 == 0:
        return None
    if gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)
