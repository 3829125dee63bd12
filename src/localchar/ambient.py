"""Ambient Galois fields, the metacyclic Galois group, and double cosets.

The ambient M for a pair (E, L) is an unramified extension large enough to
hold the needed roots of unity followed by one Kummer step of degree
lcm(e_E, e_L) over pi = p.  Its group over the prime field is metacyclic,
generated by the Kummer twist sigma (pi -> zeta pi) and the Frobenius lift
tau, with tau sigma tau^{-1} = sigma^p; elements are coded as pairs (a, b).

Double cosets for (E, L) are computed as orbits of the fixer of E acting on
the cosets of the fixer of L, together with the ramification data of each
compositum K_g.  For the twisting shapes the verification lab supports, the
compositum is also constructed abstractly (compositum_abstract) so all heavy
element arithmetic happens in a field of degree [E L : F], not [M : F].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import AmbientTooSmall, ConfigError, UnsupportedShape
from .embeddings import (
    EmbeddingMap,
    Subfield,
    embeddings,
    enumerate_subfields,
    find_embeddings,
    verify_embedding,
)
from .localfield import TowerElement, TowerField, TameRamified, Unramified, make_tower


def _ord_of_residue(p: int, fl: int, u_res_order: int, e_x: int, fm: int) -> bool:
    """Is x^{e_x} = u solvable in the cyclic group of order p^fm - 1?"""
    n = p**fm - 1
    return (n // math.gcd(e_x, n)) % u_res_order == 0


def _unit_residue_order(L: TowerField) -> int:
    d = L.dlog_res(L.res_of(L.U))
    n = L.q - 1
    return n // math.gcd(n, d) if d else 1


@lru_cache(maxsize=None)
def build_ambient(E: TowerField, L: TowerField, k: int = 0):
    """Galois ambient for the pair: returns the Ambient wrapper."""
    p = E.p
    e_m = math.lcm(E.e, L.e)
    f0 = math.lcm(E.f, L.f)
    ordE = _unit_residue_order(E)
    ordL = _unit_residue_order(L)
    fm = f0
    while True:
        n = p**fm - 1
        if (n % e_m == 0
                and _ord_of_residue(p, L.f, ordL, L.e, fm)
                and _ord_of_residue(p, E.f, ordE, E.e, fm)):
            break
        fm += f0
        if fm > 64:
            raise AmbientTooSmall("no small ambient residue degree found")
    kM = k if k else 4 * e_m
    steps = ((Unramified(fm),) if fm > 1 else ()) + (TameRamified(e_m, 1),)
    M = make_tower(p, steps, kM)
    return Ambient(M, E, L)


class Ambient:
    """M with its metacyclic group and canonical embeddings of E and L."""

    def __init__(self, M: TowerField, E: TowerField, L: TowerField):
        self.M = M
        self.E = E
        self.L = L
        self.iota_E = embeddings(E, M)[0]
        self.iota_L = embeddings(L, M)[0]
        zeta = M.wpow(M.xi(), (M.q - 1) // M.e)  # order e_M
        self.zeta_pows = [M.wpow(zeta, i) for i in range(M.e)]
        self.elements = [(a, b) for a in range(M.e) for b in range(M.f)]

    def compose(self, g1, g2):
        """g1 after g2."""
        a1, b1 = g1
        a2, b2 = g2
        return ((a1 + a2 * pow(self.M.p, b1, self.M.e)) % self.M.e,
                (b1 + b2) % self.M.f)

    def apply(self, g, x: TowerElement) -> TowerElement:
        """Action of sigma^a tau^b on an element of M."""
        a, b = g
        M = self.M
        if x.field is not M:
            raise ConfigError("ambient action on a foreign element")
        if x.is_zero():
            return x
        core = []
        for i, w in enumerate(x.core):
            w2 = M.frob_w(w, b)
            tw = (a * (x.v + i)) % M.e
            if tw:
                w2 = M.wmul(w2, self.zeta_pows[tw])
            core.append(w2)
        return TowerElement(M, x.v, tuple(core), x.prec, x.store)

    def fixer(self, gens):
        """Subgroup elements fixing every generator element."""
        out = []
        for g in self.elements:
            if all((self.apply(g, x) - x).is_zero() for x in gens):
                out.append(g)
        return out

    def embedding_gens(self, emb: EmbeddingMap):
        gens = [emb.pi_img]
        if emb.src.f > 1:
            gens.append(emb.x_img)
        return gens


@dataclass
class CosetDatum:
    rep: tuple
    orbit_size: int
    deg_K: int
    e_K: int
    f_K: int
    e: int          # e(K_g / E_g)
    Nprime: int     # e(K_g / L)
    e1: int
    e2: int
    e2p: int

    def serialize(self):
        return {
            "rep": list(self.rep), "orbit_size": self.orbit_size,
            "deg_K": self.deg_K, "e_K": self.e_K, "f_K": self.f_K,
            "e": self.e, "Nprime": self.Nprime,
            "e1": self.e1, "e2": self.e2, "e2p": self.e2p,
        }


def double_cosets(E: TowerField, L: TowerField, amb: Ambient | None = None):
    """Orbit decomposition of the fixer of E acting on the L-cosets of the
    ambient group, with per-orbit compositum data and the dimension check."""
    amb = amb or build_ambient(E, L)
    M = amb.M
    G = amb.elements
    J = amb.fixer(amb.embedding_gens(amb.iota_L))
    H = amb.fixer(amb.embedding_gens(amb.iota_E))
    if len(J) * L.degree != len(G):
        raise AmbientTooSmall("fixer of L has the wrong index")
    if len(H) * E.degree != len(G):
        raise AmbientTooSmall("fixer of E has the wrong index")
    jset = set(J)

    def coset_key(g):
        return frozenset(amb.compose(g, j) for j in J)

    cosets = {}
    for g in G:
        cosets.setdefault(coset_key(g), g)
    keys = list(cosets)
    seen = set()
    out = []
    inter = _intersection_ram(E, L, amb)
    e_K = math.lcm(E.e, L.e)
    for key in keys:
        if key in seen:
            continue
        rep = cosets[key]
        orbit = {key}
        frontier = [key]
        while frontier:
            cur = frontier.pop()
            g0 = cosets[cur]
            for h in H:
                nk = coset_key(amb.compose(h, g0))
                if nk not in orbit:
                    orbit.add(nk)
                    frontier.append(nk)
        seen |= orbit
        deg_K = len(orbit) * E.degree
        e2p = inter
        out.append(CosetDatum(
            rep=rep, orbit_size=len(orbit), deg_K=deg_K, e_K=e_K,
            f_K=deg_K // e_K, e=e_K // E.e, Nprime=e_K // L.e,
            e1=L.e // e2p, e2=E.e // e2p, e2p=e2p))
    total = sum(d.deg_K for d in out)
    if total != E.degree * L.degree:
        raise ConfigError(
            f"Mackey dimension count failed: {total} != {E.degree * L.degree}")
    return out


def _intersection_ram(E: TowerField, L: TowerField, amb: Ambient) -> int:
    """Ramification index of (E intersect L)/F inside the ambient."""
    handle_L = Subfield(L, amb.M, amb.iota_L)
    best = 1
    for sub in enumerate_subfields(E):
        if sub.S.degree == 1:
            continue
        gens = [sub.emb.pi_img]
        if sub.S.f > 1:
            gens.append(sub.emb.x_img)
        gens_m = [amb.iota_E.apply(g) for g in gens]
        if all(handle_L.in_image(g)[0] for g in gens_m):
            best = max(best, sub.S.e)
    return best


@lru_cache(maxsize=None)
def compositum_abstract(E: TowerField, L: TowerField, k: int,
                        series_window: int | None = None):
    """The compositum K = E L as an abstract tower with embeddings of E and
    L, for linearly disjoint supported shapes (single double coset).

    Raises UnsupportedShape when [E L : F] < [E : F][L : F] (the shapes the
    verification lab rejects)."""
    p = E.p
    cosets = double_cosets(E, L)
    if len(cosets) != 1:
        raise UnsupportedShape(
            f"{len(cosets)} double cosets; compositum arithmetic unsupported")
    datum = cosets[0]
    e_K = datum.e_K
    f_K = datum.f_K
    if E.f != 1 or (L.f != 1 and L.e != 1):
        raise UnsupportedShape("unsupported residue/ramification mix")
    # uniformizer relation: pi_K = iota_E(pi_E)^a iota_L(pi_L)^b with
    # a e_K/e_E + b e_K/e_L = 1, so U_K = U_E^{a e_K/e_E} U_L^{b e_K/e_L}
    cE = e_K // E.e
    cL = e_K // L.e
    g, a, b = _xgcd(cE, cL)
    if g != 1:
        raise UnsupportedShape("ramification indices are not coprime")
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
        raise AmbientTooSmall("compositum model misses an embedding")
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
