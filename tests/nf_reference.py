"""Test-only oracles for number-field and etale-algebra elements.

They work on the Fraction view `.coords` and share no code with the
integer arithmetic of `x3y9z2.arith.numberfield`, so that comparing the
two checks one route against another:

- `ref_mul` / `ref_norm`: the schoolbook product reduced by a Fraction
  power table, and the determinant of the multiplication map;
- `minimal_polynomial`: the first linear relation among 1, e, e^2, ...;
- `norm_resultant`: Res(f, e(x)) for the monic defining polynomial f;
- `resultant` / `discriminant`: the Sylvester determinant by Fraction
  elimination, and disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f).
"""

from fractions import Fraction

from x3y9z2.arith.poly import UPoly


def ref_power_table(monic):
    """Fraction coordinates of x^deg, ..., x^(2deg-2) modulo monic."""
    deg = monic.degree
    table = []
    p = UPoly.x_power(deg) % monic
    for _ in range(deg - 1):
        table.append([p[i] for i in range(deg)])
        p = (p * UPoly.x_power(1)) % monic
    return table


def ref_mul(a, b, table):
    """Product of two Fraction coordinate vectors."""
    deg = len(a)
    prod = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    out = prod[:deg]
    for k in range(deg, 2 * deg - 1):
        c = prod[k]
        if c:
            row = table[k - deg]
            for i in range(deg):
                out[i] += c * row[i]
    return out


def ref_det(mat):
    """Exact determinant of a square Fraction matrix (Gaussian elimination)."""
    m = [row[:] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                fac = m[r][c] * inv
                m[r] = [a - fac * b for a, b in zip(m[r], m[c])]
    return det


def ref_norm(a, table):
    """Determinant of multiplication by the Fraction vector a."""
    deg = len(a)
    cols = [ref_mul(a, [Fraction(int(i == j)) for j in range(deg)], table)
            for i in range(deg)]
    return ref_det([[cols[c][r] for c in range(deg)] for r in range(deg)])


def _solve_linear(basis_rows, target):
    """Solve sum c_i basis_rows[i] = target over Q; None if unsolvable."""
    m = len(basis_rows)
    n = len(target)
    aug = [[basis_rows[r][c] for r in range(m)] + [target[c]] for c in range(n)]
    piv_cols = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, n) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [a * inv for a in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        piv_cols.append(col)
        row += 1
    sol = [Fraction(0)] * m
    for r in range(row, n):
        if aug[r][m]:
            return None
    for r, col in enumerate(piv_cols):
        sol[col] = aug[r][m]
    return sol


def minimal_polynomial(elem) -> UPoly:
    """Minimal polynomial over Q of a number-field element."""
    table = ref_power_table(elem.parent.minpoly)
    deg = elem.parent.degree
    e = list(elem.coords)
    rows = [[Fraction(1)] + [Fraction(0)] * (deg - 1)]
    for _ in range(deg):
        rows.append(ref_mul(rows[-1], e, table))
    for m in range(1, deg + 1):
        sol = _solve_linear(rows[:m], rows[m])
        if sol is not None:
            return UPoly([-c for c in sol] + [1])
    raise AssertionError("no minimal polynomial found")


def norm_resultant(elem) -> Fraction:
    """Res(monic f, elem poly) = prod of elem over the roots of f."""
    a = UPoly(elem.coords)
    if a.is_zero():
        return Fraction(0)
    return resultant(elem.parent.monic_poly, a)


def resultant(f, g) -> Fraction:
    """Res(f, g) of two UPolys: the Sylvester determinant (exact)."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    a = list(reversed(f.coeffs))
    b = list(reversed(g.coeffs))
    rows = [[Fraction(0)] * i + a + [Fraction(0)] * (n - 1 - i) for i in range(n)]
    rows += [[Fraction(0)] * i + b + [Fraction(0)] * (m - 1 - i) for i in range(m)]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                q = rows[r][col] / rows[col][col]
                rows[r] = [rc - q * cc for rc, cc in zip(rows[r], rows[col])]
    return det


def discriminant(f) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    n = f.degree
    return (-1) ** (n * (n - 1) // 2) * resultant(f, f.derivative()) / f.leading
