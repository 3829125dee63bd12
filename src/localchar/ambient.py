"""The compositum K = E L of a twin field E and a tame twisting field L.

For the supported shapes (E/F totally ramified, L/F unramified or totally
ramified, integer step units) E (x) L is decided in closed form.  Write
pi_E^{e_E} = U_E p and pi_L^{e_L} = U_L p and let g = gcd(e_E, e_L).  Then
z = pi_E^{e_E/g} / pi_L^{e_L/g} satisfies z^g = U_E/U_L, and E (x) L splits
into one field per irreducible factor of Z^g - res(U_E/U_L) over F_p (Serre,
Local Fields, ch. IV; Lidl-Niederreiter, Finite Fields, Thm 3.75).  Each
factor has ramification index lcm(e_E, e_L), and the factors are the double
cosets of the Galois groups of E and L.  compositum_abstract builds K as a
tower of degree [E : F][L : F] when that count is one.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InternalContradiction, UnsupportedShape
from .embeddings import find_embeddings, verify_embedding
from .localfield import TowerField, TameRamified, Unramified, make_tower


@lru_cache(maxsize=None)
def build_ambient(E: TowerField, L: TowerField):
    """(e_K, f_K) of K = E L, or UnsupportedShape when the shape is outside
    the supported ones or E (x) L is not a field.

    The roots of Z^g = c, c = res(U_E/U_L) = xi^a, are the zeta^(a + j(p-1))
    for zeta of order g(p-1) with zeta^g = xi and j in Z/g; Frobenius maps
    a + j(p-1) to p a + p j (p-1) = a + (a + p j)(p-1).  So the irreducible
    factors of Z^g - c, and with them the double cosets, are the orbits of
    j -> p j + a on Z/g.  perfbench/tracing.py reads its cache by this name."""
    if E.f != 1 or (L.f != 1 and L.e != 1):
        raise UnsupportedShape("unsupported residue/ramification mix")
    p = E.p
    c = _exact_unit_int(E) * pow(_exact_unit_int(L), -1, p) % p
    a = E.dlog_res(E.int_to_res(c))
    g = math.gcd(E.e, L.e)
    seen = set()
    n = 0
    for j in range(g):
        if j in seen:
            continue
        n += 1
        while j not in seen:
            seen.add(j)
            j = (p * j + a) % g
    if n != 1:
        raise UnsupportedShape(
            f"{n} double cosets; compositum arithmetic unsupported")
    e_K = math.lcm(E.e, L.e)
    return e_K, E.degree * L.degree // e_K


@lru_cache(maxsize=None)
def compositum_abstract(E: TowerField, L: TowerField, k: int,
                        series_window: int | None = None):
    """The compositum K = E L as an abstract tower with embeddings of E and
    L, for linearly disjoint supported shapes (single double coset).

    Raises UnsupportedShape when [E L : F] < [E : F][L : F] (the shapes the
    verification lab rejects)."""
    p = E.p
    e_K, f_K = build_ambient(E, L)
    # uniformizer relation: pi_K = iota_E(pi_E)^a iota_L(pi_L)^b with
    # a e_K/e_E + b e_K/e_L = 1, so U_K = U_E^{a e_K/e_E} U_L^{b e_K/e_L}
    cE = e_K // E.e
    cL = e_K // L.e
    _, a, b = _xgcd(cE, cL)
    uE = _exact_unit_int(E)
    uL = _exact_unit_int(L)
    steps = ((Unramified(f_K),) if f_K > 1 else ())
    if e_K > 1:
        aa = a * cE
        bb = b * cL
        # exceeds any storage exponent the tower can pick (headroom <= k + 1)
        mod = p ** (-(-k // e_K) + k + 4)
        uK = (pow(uE, aa, mod) if aa >= 0 else pow(pow(uE, -1, mod), -aa, mod))
        uK = uK * (pow(uL, bb, mod) if bb >= 0 else pow(pow(uL, -1, mod), -bb, mod)) % mod
        steps = steps + (TameRamified(e_K, int(uK)),)
    K = make_tower(p, steps, k, series_window=series_window)
    embsE = find_embeddings(E, K)
    embsL = find_embeddings(L, K)
    if not embsE or not embsL:
        raise InternalContradiction("compositum model misses an embedding")
    iE, iL = embsE[0], embsL[0]
    verify_embedding(iE)
    verify_embedding(iL)
    return K, iE, iL


def _xgcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def _exact_unit_int(T: TowerField) -> int:
    """The compiled uniformizer unit as an exact integer (integer step units
    only; the supported compositum shapes never need more)."""
    u = 1
    e_so_far = 1
    for s in T.steps:
        if isinstance(s, Unramified):
            continue
        if not isinstance(s.unit, int):
            raise UnsupportedShape("compositum needs integer step units")
        u *= s.unit**e_so_far
        e_so_far *= s.degree
    return u
