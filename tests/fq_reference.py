"""Test-only oracles for residue-ring arithmetic.

Polynomials are coefficient lists over Z/m, lowest degree first, with
no trailing zeros.  They share no code with the coordinate-tuple
products of `x3y9z2.arith.localfield`, so that comparing the two checks
one route against another:

- `polmul` / `polmod`: the schoolbook product, and the remainder by
  long division by a polynomial with a unit leading coefficient;
- `is_irreducible_quartic`: no monic factor of degree 1 or 2, by trial
  division.
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


def polmod(a, h, m):
    a = [c % m for c in a]
    while a and a[-1] == 0:
        a.pop()
    dh = len(h) - 1
    inv_lead = pow(h[-1], -1, m)
    while len(a) - 1 >= dh:
        shift = len(a) - 1 - dh
        c = a[-1] * inv_lead % m
        for i, hc in enumerate(h):
            a[shift + i] = (a[shift + i] - c * hc) % m
        while a and a[-1] == 0:
            a.pop()
    return a


def is_irreducible_quartic(f, p):
    """f of degree 4 mod p: True iff no monic linear or quadratic
    polynomial over F_p divides it."""
    divisors = [[c, 1] for c in range(p)]
    divisors += [[c, b, 1] for b in range(p) for c in range(p)]
    return all(polmod(f, g, p) for g in divisors)
