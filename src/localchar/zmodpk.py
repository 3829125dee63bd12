"""Exact linear algebra over Z/p^a and a division-free characteristic polynomial.

Matrices are lists of lists of plain ints (interpreted mod p^a). Everything
here is deterministic and exact; no floating point.
"""

from __future__ import annotations

from .errors import PrecisionLoss


def inverse(a, p: int, mod: int):
    """A^-1 mod `mod` for A square and invertible mod p: Gauss-Jordan on
    [A | I]."""
    n = len(a)
    aug = [[x % mod for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(a)]
    for j in range(n):
        piv = next((i for i in range(j, n) if aug[i][j] % p), None)
        if piv is None:
            raise PrecisionLoss("matrix is singular modulo p")
        aug[j], aug[piv] = aug[piv], aug[j]
        inv = pow(aug[j][j], -1, mod)
        aug[j] = [(x * inv) % mod for x in aug[j]]
        for i in range(n):
            if i != j and aug[i][j]:
                c = aug[i][j]
                aug[i] = [(x - c * y) % mod for x, y in zip(aug[i], aug[j])]
    return [row[n:] for row in aug]


def charpoly_berkowitz(a, zero, one):
    """Characteristic polynomial det(lambda*I - A) over any commutative ring.

    Entries need +, -, *. Returns coefficients [1, c_{n-1}, ..., c_0] so the
    polynomial is sum coeff[i] * lambda^(n-i). Division-free.
    """
    n = len(a)
    if n == 0:
        return [one]
    vec = [one, -a[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        m = n - k - 1
        row = a[k][k + 1:]
        col = [a[i][k] for i in range(k + 1, n)]
        sub = [r[k + 1:] for r in a[k + 1:]]
        t = [one, -a[k][k]]
        w = col
        for j in range(m):
            s = zero
            for ri, wi in zip(row, w):
                s = s + ri * wi
            t.append(-s)
            if j < m - 1:
                w = [sum((sub[i][l] * w[l] for l in range(m)), zero)
                     for i in range(m)]
        new = []
        for i in range(m + 2):
            s = zero
            for j in range(min(i, m + 1) + 1):
                if 0 <= i - j < len(t) and j < len(vec):
                    s = s + t[i - j] * vec[j]
            new.append(s)
        vec = new
    return vec
