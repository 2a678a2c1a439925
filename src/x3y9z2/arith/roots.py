"""n-th roots inside number fields, and cubic-residue characters.

Roots are found p-adically: pick an auxiliary prime q at which the
defining polynomial stays irreducible and xi is a unit, Hensel-lift each
residue root of X^n - xi in the unramified ring Z_q (where the
power-basis coordinates of a global element are literally its rational
coordinates mod q^N), reconstruct the coordinates with Wang rational
reconstruction, and verify beta^n = xi exactly.  A positive answer is
therefore proven; a None may in principle be a precision artifact, so
negative results that matter are certified separately through n-th
power-residue symbols at degree-1 primes, each one integer power mod q.

Residue roots come from Adleman-Manders-Miller (one ell-th root per
prime ell | n, then the ell-th roots of unity), never from scanning F_q.
They are returned sorted by coordinates, the order of
FqField.elements(), and the first one that lifts is taken: which global
root nf_nth_root returns (the sign of a square root, say) depends on
that order, and the report pins it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .localfield import ZqRing, factor_quartic_mod_p, residue_degrees
from .numberfield import NfElem, NumberField
from .rationals import rational_cube_root, rational_reconstruct, rational_sqrt


@lru_cache(maxsize=None)
def small_primes(bound) -> tuple:
    """The primes <= bound, in order, by a sieve of Eratosthenes."""
    n = max(bound, 1)
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for i in range(2, isqrt(n) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, n + 1, i)))
    return tuple(i for i, f in enumerate(flags) if f)


def _rational_nth_root(x: Fraction, n: int):
    if n == 1:
        return x
    if n == 2:
        return rational_sqrt(x)
    if n == 3:
        return rational_cube_root(x)
    if n == 6:
        r = rational_sqrt(x)
        if r is None:
            return None
        # Either sqrt may be the cube; try both signs.
        for s in (r, -r):
            c = rational_cube_root(s)
            if c is not None:
                return c
        return None
    raise ValueError(f"unsupported root order {n}")


def _inert_prime_rings(xi: NfElem, prec: int):
    """Yield ZqRing contexts at the primes 5 <= q < 400 where xi is a unit
    (q divides neither xi.den nor N(xi)) and residue_degrees says the
    defining poly is irreducible (K tensor Q_q is one unramified field)."""
    field = xi.parent
    f_ints = field.minpoly.integer_coeffs()
    disc = field.discriminant()
    nrm = xi.norm()
    nonunit = xi.den * nrm.numerator * nrm.denominator
    for q in small_primes(400):
        if q < 5 or nonunit % q == 0:
            continue
        if disc.numerator % q == 0 or disc.denominator % q == 0:
            continue
        if residue_degrees(f_ints, q) == (field.degree,):
            yield ZqRing(q, [c % q**prec for c in f_ints], prec)


def nf_nth_root(xi: NfElem, n: int):
    """beta with beta^n = xi in xi's number field, or None.  On a field of
    degree 1 (a rational root of an etale algebra) the answer is exact."""
    field = xi.parent
    if not xi:
        return field.zero()
    if xi.is_rational():
        r = _rational_nth_root(xi.rational_value(), n)
        if r is not None:
            return field(r)
        if field.degree == 1:
            return None
        # A rational can still have an irrational n-th root in K.
    for prec in (24, 60):
        tried = 0
        for ring in _inert_prime_rings(xi, prec):
            beta = _root_in_ring(xi, n, ring)
            if beta is not None:
                return beta
            tried += 1
            if tried >= 3:
                break
    return None


def _residue_nth_roots(fq, target, n: int):
    """All y in F_q* with y^n = target (a unit), sorted by coordinates."""
    roots = [target]
    ell = 2
    while n > 1:
        while n % ell == 0:
            roots = [y for r in roots for y in _ell_th_roots(fq, r, ell)]
            n //= ell
        ell += 1
    return sorted(roots)


def _ell_th_roots(fq, a, ell: int):
    """All ell-th roots of a unit a in F_q, ell prime (Adleman-Manders-Miller;
    Cohen, GTM 138, Alg. 1.5.1 for ell = 2)."""
    t, s = fq.q - 1, 0
    while t % ell == 0:
        t, s = t // ell, s + 1
    x0 = fq.pow(a, pow(ell, -1, t))
    if s == 0:
        return [x0]      # x -> x^ell is a bijection of F_q*
    # g generates the ell-Sylow subgroup; the first non-ell-th power in
    # elements() order keeps the choice deterministic.
    cofactor = (fq.q - 1) // ell
    one = fq.one()
    z = next(z for z in fq.elements() if any(z) and fq.pow(z, cofactor) != one)
    g = fq.pow(z, t)
    # x0^ell / a lies in <g>: find c with x0^ell / a = g^c.
    b = fq.mul(fq.pow(x0, ell), fq.inv(a))
    acc = one
    for c in range(ell**s):
        if acc == b:
            break
        acc = fq.mul(acc, g)
    else:
        raise ArithmeticError("x0^ell / a is not in the ell-Sylow subgroup")
    if c % ell:
        return []        # a is not an ell-th power
    root = fq.mul(x0, fq.pow(g, ell**s - c // ell))
    zeta = fq.pow(g, ell ** (s - 1))
    out = [root]
    for _ in range(ell - 1):
        out.append(fq.mul(out[-1], zeta))
    return out


def _root_in_ring(xi: NfElem, n: int, ring: ZqRing):
    field = xi.parent
    fq = ring.residue_field
    target_res = fq.from_nf(xi)
    if not any(target_res):
        return None  # not reached: xi is a unit at every q yielded
    xi_q = ring.from_nf(xi)
    for y in _residue_nth_roots(fq, target_res, n):
        # Hensel-lift y^n - xi_q (derivative n y^(n-1) is a unit).
        for _ in range(ring.N.bit_length() + 2):
            err = ring.elem([a - b for a, b in zip(ring.pow(y, n), xi_q)])
            if not any(err):
                break
            slope = ring.inv(ring.elem([n * c for c in ring.pow(y, n - 1)]))
            y = ring.elem([a - b for a, b in zip(y, ring.mul(err, slope))])
        if ring.pow(y, n) != xi_q:
            continue
        coords = []
        ok = True
        for c in y:
            rec = rational_reconstruct(c, ring.mod)
            if rec is None:
                ok = False
                break
            coords.append(rec)
        if not ok:
            continue
        beta = field(coords)
        if beta**n == xi:
            return beta
    return None


# -- power-residue characters -------------------------------------------


def degree_one_character_data(field: NumberField, bound, n):
    """The degree-1 primes (q, alpha -> root) of the field, lazily by q then
    root, with 5 <= q <= bound prime to the discriminant and q = 1 mod n:
    each carries an n-th power-residue symbol on q-units."""
    f_ints = field.minpoly.integer_coeffs()
    disc = field.discriminant()
    for q in small_primes(bound):
        if q < 5 or (q - 1) % n or disc.numerator % q == 0:
            continue
        for r in sorted(-g[0] % q for g in factor_quartic_mod_p(f_ints, q, 1)):
            yield q, r


def power_residue_symbol(xi, q: int, root: int, n: int):
    """x^((q-1)/n) mod q for x the image of the NfElem xi at the degree-1
    prime (q, alpha -> root); None if xi is not a q-unit there.  n must
    divide q - 1.  The n-th powers of the field map to 1, so any other
    value proves xi is not an n-th power.
    """
    if (q - 1) % n:
        raise ValueError(f"F_{q} has no {n}-th power residue symbol")
    num, den = 0, xi.den
    for c in reversed(xi.num):
        num = (num * root + c) % q
    if num % q == 0 or den % q == 0:
        return None
    return pow(num * pow(den, -1, q), (q - 1) // n, q)


def nf_cubic_character(xi, q: int, root: int):
    """Character exponent e in {0,1,2} of xi at the degree-1 prime
    (q, alpha -> root), None if xi is not a q-unit there: the cubic
    power_residue_symbol is omega^e, omega the first y^((q-1)/3) != 1 for
    y = 2, 3, ...  A nonzero exponent proves xi is not a cube."""
    t = power_residue_symbol(xi, q, root, 3)
    if t is None:
        return None
    if t == 1:
        return 0
    e = (q - 1) // 3
    omega = next(w for w in (pow(y, e, q) for y in range(2, q)) if w != 1)
    return 1 if t == omega else 2
