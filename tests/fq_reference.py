"""Test-only oracles for residue-ring arithmetic.

Polynomials are coefficient lists over Z/m, lowest degree first, with
no trailing zeros.  They share no code with the coordinate-tuple
products of `x3y9z2.arith.localfield`, so that comparing the two checks
one route against another:

- `polmul` / `polmod`: the schoolbook product, and the remainder by
  long division by a polynomial with a unit leading coefficient;
- `fermat_inverse`: u^(q - 2) in F_p[w]/(h) by square-and-multiply;
- `is_irreducible_quartic`: no monic factor of degree 1 or 2, by trial
  division;
- `factor_by_trial_division`: the monic irreducible factors of a
  polynomial of degree <= 4, dividing out every monic linear and then
  every monic quadratic as often as it divides.
"""


def polmul(a, b, m):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    while out and out[-1] == 0:
        out.pop()
    return out


def poldivmod(a, h, m):
    """(quotient, remainder) of a by h over Z/m, h with a unit leading
    coefficient."""
    a = [c % m for c in a]
    while a and a[-1] == 0:
        a.pop()
    dh = len(h) - 1
    quot = [0] * max(len(a) - dh, 0)
    inv_lead = pow(h[-1], -1, m)
    while len(a) - 1 >= dh:
        shift = len(a) - 1 - dh
        c = a[-1] * inv_lead % m
        quot[shift] = c
        for i, hc in enumerate(h):
            a[shift + i] = (a[shift + i] - c * hc) % m
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def polmod(a, h, m):
    return poldivmod(a, h, m)[1]


def fermat_inverse(u, h, p):
    """u^(q - 2) in F_p[w]/(h), h monic of degree d, q = p^d, as a
    coordinate tuple of length d."""
    d = len(h) - 1
    out, base, e = [1], polmod(list(u), h, p), p**d - 2
    while e:
        if e & 1:
            out = polmod(polmul(out, base, p), h, p)
        base = polmod(polmul(base, base, p), h, p)
        e >>= 1
    return tuple(out + [0] * (d - len(out)))


def is_irreducible_quartic(f, p):
    """f of degree 4 mod p: True iff no monic linear or quadratic
    polynomial over F_p divides it."""
    divisors = [[c, 1] for c in range(p)]
    divisors += [[c, b, 1] for b in range(p) for c in range(p)]
    return all(polmod(f, g, p) for g in divisors)


def factor_by_trial_division(f, p):
    """[(monic factor, multiplicity)] of f mod p, deg f <= 4, sorted by
    (degree, coefficients).  After the linear factors are gone, a monic
    quadratic that divides is irreducible, and a cubic or quartic left
    with no divisor of degree 1 or 2 is irreducible too."""
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    out = []
    divisors = [[c, 1] for c in range(p)]
    divisors += [[c, b, 1] for b in range(p) for c in range(p)]
    for g in divisors:
        mult = 0
        while len(f) >= len(g):
            quot, rem = poldivmod(f, g, p)
            if rem:
                break
            f, mult = quot, mult + 1
        if mult:
            out.append((g, mult))
    if len(f) > 1:
        out.append((f, 1))
    return sorted(out, key=lambda gm: (len(gm[0]), gm[0]))
