"""Exact linear algebra over Z/p^a and a division-free characteristic polynomial.

Matrices are lists of lists of plain ints (interpreted mod p^a). Everything
here is deterministic and exact; no floating point.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

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


def _dot(u, v):
    """sum_i u_i v_i, summed from the first product."""
    return reduce(add, map(mul, u, v))


def charpoly_berkowitz(a, one):
    """Characteristic polynomial det(lambda*I - A) over any commutative ring.

    Entries need +, -, *. Returns coefficients [1, c_{n-1}, ..., c_0] so the
    polynomial is sum coeff[i] * lambda^(n-i). Division-free, and it neither
    multiplies by one nor adds to zero: a 2 x 2 matrix takes 2 products.
    """
    n = len(a)
    if n == 0:
        return [one]
    vec = [one, -a[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        m = n - k - 1
        row = a[k][k + 1:]
        sub = [r[k + 1:] for r in a[k + 1:]]
        t = [one, -a[k][k]]
        w = [a[i][k] for i in range(k + 1, n)]
        for j in range(m):
            t.append(-_dot(row, w))
            if j < m - 1:
                w = [_dot(r, w) for r in sub]
        # (t * vec)_i = t_i + t_(i-1) vec_1 + .. + t_1 vec_(i-1) + vec_i
        vec = [one] + [reduce(add, [t[i]] + [t[i - j] * vec[j] for j in range(1, i)]
                              + vec[i:i + 1]) for i in range(1, m + 2)]
    return vec
