"""Brute-force epsilon oracle: full character sums over truncated unit groups.

oracle_sum(theta, psi, delta) = q^{-c/2} * sum over u in (O/P^c)^x of
theta^{-1}(u delta) psi(u delta), the complete sum with q^{c-1}(q-1) terms,
computed exactly.

On prime-residue fields with convergent exp/log the sum is evaluated by a
vectorized kernel.  A unit is t_j prod_i (1 + a_i pi^i), t_j = xi^j a
Teichmuller lift, in mixed radix with low levels fastest; a block fixes the
high digits.  The lifts lie in Z_p and psi is Z_p-linear, so the psi
exponent of t_j u delta is t_j times that of u delta: per block one row of
psi exponents (j = 0) and the multipliers t_j suffice.  The theta side is
an outer sum of per-level digit tables psi(-gamma log(1 + a pi^i)) (log is
additive over the digit factors; AddChar.log_row dots -gamma with the
memoized trace forms of the field's logs) plus one offset per block.
When the (psi, theta) key space is no larger than a block, each block gives
one joint histogram, and each row j is its table rows shifted by t_j a;
otherwise each row is one bincount of the keys.  The rows form one
(q-1) x p^s count array, reduced by one CycNumber.from_counts.  All
arithmetic is integer arithmetic modulo powers of p.  Only the psi side
is cached, in the field's own caches under (conductor, delta), so a grid
lives as long as its field; its blocks may be built across processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .cyclotomic import CycNumber, ScaledCyc
from .errors import CapacityError, ConfigError, InternalContradiction
from .characters import AddChar, MulChar, _add_exponents, char_exponents
from .localfield import TowerField

_SLOW_BUDGET = 500_000
_CHUNK = 1 << 20


def oracle_sum(chi: MulChar, psi: AddChar, delta, budget: int = 300_000_000,
               jobs: int = 1) -> ScaledCyc:
    """Full unit-group character sum against delta; exact."""
    F = chi.field
    if delta.is_zero():
        raise ConfigError("oracle needs a nonzero twisting element")
    c = max(1, chi.conductor())
    terms = F.q ** (c - 1) * (F.q - 1)
    if terms > budget:
        raise CapacityError(f"oracle sum has {terms} terms, budget {budget}")
    if F.f == 1 and F.explog_ok and not chi.is_factored():
        total = _fast_sum(chi, psi, delta, c, jobs)
    else:
        if terms > _SLOW_BUDGET:
            raise CapacityError(
                f"generic oracle path capped at {_SLOW_BUDGET} terms")
        total = _slow_sum(chi, psi, delta, c)
    return ScaledCyc(total, -c, F.q)


def clear_oracle_cache(F: TowerField):
    """Drop the oracle grids cached on the field F."""
    F._caches.pop("oracle_grids", None)


# --------------------------------------------------------------- slow path


def _slow_sum(chi, psi, delta, c):
    F = chi.field
    total = CycNumber.zero()
    tame = [F.teichmuller(F.res_of(F.wpow(F.xi(), j))) for j in range(F.q - 1)]
    one = F.one()
    levels = list(range(1, c))
    digits = [0] * len(levels)

    def principal_units():
        if not levels:
            yield one
            return
        stack = [one]
        while True:
            while len(stack) <= len(levels):
                i = len(stack) - 1
                u = stack[-1]
                if digits[i]:
                    u = u * (one + F.monomial(digits[i], levels[i]))
                stack.append(u)
            yield stack[-1]
            j = len(levels) - 1
            while j >= 0 and digits[j] == F.q - 1:
                digits[j] = 0
                j -= 1
            if j < 0:
                return
            digits[j] += 1
            del stack[j + 1:]

    for u1 in principal_units():
        for tj in tame:
            x = tj * u1 * delta
            zc, mc = char_exponents((chi,), x)[0]
            z, m = _add_exponents(*psi.exponent(x), -zc, mc)
            total = total + CycNumber.root(m, z)
    return total


# --------------------------------------------------------------- fast path


class _Grid:
    """Cached psi side of the unit enumeration for one (field, conductor,
    delta) triple.

    Index sum d_lev p^(lev-1) is prod (1 + d_lev pi^lev); levels 1..k
    (p^k <= _CHUNK) form the low table, block idx // p^k fixes the rest.
    The Teichmuller lifts t_j = xi^j lie in Z_p and psi is Z_p-linear, so
    the psi exponent of t_j u delta is t_j times that of u delta, mod psw.
    Per block the grid keeps one int32 row of psi exponents (j = 0), so
    4 q^(c-1) bytes in all; `mult` holds the t_j mod psw, checked against
    psi(t_j delta pi^i) for every j and i."""

    def __init__(self, F: TowerField, psi, c: int, delta, jobs: int):
        p, e, q = F.p, F.e, F.q
        vd = delta.valuation()
        amod = max(1, -(-(1 - vd) // e), -(-c // e))
        mod = p**amod
        wrap = (p * (F.U[0] % mod)) % mod
        tame = [F.teichmuller(F.res_of(F.wpow(F.xi(), j)))
                for j in range(q - 1)]
        raw_w = {(j, i): psi.exponent((t * delta).shift(i))
                 for j, t in enumerate(tame) for i in range(e)}
        psw = max([p] + [m2 for _z, m2 in raw_w.values()])
        wexp = np.zeros((q - 1, e), dtype=np.int64)
        for (j, i), (z, m2) in raw_w.items():
            wexp[j, i] = z * (psw // m2) % psw
        self.mult = np.array([t.core[0][0] % psw for t in tame])
        if (wexp != self.mult[:, None] * wexp[0] % psw).any():
            raise InternalContradiction(
                "psi(t_j delta pi^i) is not t_j psi(delta pi^i) mod psw")
        k = 0
        while k < c - 1 and p ** (k + 1) <= _CHUNK:
            k += 1
        self.k, self.psw = k, psw
        ring = (p, e, wrap, mod)
        low = _unit_table(1, k + 1, ring)
        high = _unit_table(k + 1, c, ring)
        # psi-exponent(u h) = sum_i u_i psi-exponent(pi^i h), h a high factor
        weights = np.stack([_pi_pow_mult(high, i, ring) @ wexp[0] % psw
                            for i in range(e)], axis=1)
        args = ([low] * len(high), weights, [psw] * len(high))
        if jobs > 1 and len(high) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                self.blocks = list(ex.map(_grid_block, *args))
        else:
            self.blocks = list(map(_grid_block, *args))


def _grid_block(low, weights, psw):
    return ((low @ weights) % psw).astype(np.int32)


def _unit_table(lo, hi, ring):
    """Coordinates of prod (1 + d_lev pi^lev) over levels lo..hi-1, in
    mixed radix with the lowest level fastest."""
    p, e, _, mod = ring
    units = np.eye(1, e, dtype=np.int64)
    for lev in range(lo, hi):
        shifted = _pi_pow_mult(units, lev, ring)
        units = np.concatenate([(units + d * shifted) % mod for d in range(p)])
    return units


def _digit_sums(t1, lo, hi):
    """sum_lev t1[lev, d_lev] over levels lo..hi-1, indexed as _unit_table."""
    out = np.zeros(1, dtype=np.int64)
    for lev in range(lo, hi):
        out = (t1[lev][:, None] + out).ravel()
    return out


def _pi_pow_mult(x, i, ring):
    """Multiply reduced coordinate rows by pi^i: roll, wrapping by pU."""
    _, e, wrap, mod = ring
    q2, r2 = divmod(i, e)
    if q2:
        x = (x * pow(wrap, q2, mod)) % mod
    return np.concatenate([x[:, e - r2:] * wrap % mod, x[:, : e - r2]], axis=1)


def _fast_sum(chi, psi, delta, c, jobs):
    F = chi.field
    p, q = F.p, F.q
    grids = F._caches.setdefault("oracle_grids", {})
    key = (c, delta.v, tuple(tuple(w) for w in delta.core))
    grid = grids.get(key)
    if grid is None:
        grid = grids[key] = _Grid(F, psi, c, delta, jobs)

    # theta side: psi(-gamma log(1 + a pi^i)) digit tables, exact
    raw_t1 = {} if chi.gamma is None else {
        i: psi.log_row(-chi.gamma, i, c, teich=False) for i in range(1, c)}
    psw, mult = grid.psw, grid.mult
    ps = max([psw] + [m2 for row in raw_t1.values() for _z, m2 in row])
    scale_w = ps // psw
    t1 = np.zeros((max(c, 2), p), dtype=np.int64)
    for i, row in raw_t1.items():
        t1[i, 1:] = [z * (ps // m2) % ps for z, m2 in row]

    tlow = _digit_sums(t1, 1, grid.k + 1)
    # theta^-1(t_j) = zeta_{q-1}^r: row r counts zeta_ps exponents
    rows = [(-chi.t * j) % (q - 1) for j in range(q - 1)]
    hists = np.zeros((q - 1, ps), dtype=np.int64)
    dense, joint = psw * ps <= len(tlow), 0
    for off, pexp in zip(_digit_sums(t1, grid.k + 1, c), grid.blocks):
        texp = (tlow + off) % ps
        if dense:  # one joint (psi, theta) histogram per block
            joint = joint + np.bincount(pexp * ps + texp, minlength=psw * ps)
            continue
        for r, t in zip(rows, mult):
            hists[r] += np.bincount((t * pexp % psw * scale_w + texp) % ps,
                                    minlength=ps)
    if dense:  # row j moves psi exponent a to t_j a: table row a shifts
        joint, a = joint.reshape(psw, ps), np.arange(psw)[:, None]
        for r, t in zip(rows, mult):
            cols = (np.arange(ps) - t * a % psw * scale_w) % ps
            hists[r] += np.take_along_axis(joint, cols, 1).sum(0)
    m_all = (q - 1) * ps  # zeta_{q-1}^r zeta_ps^b = zeta_M^(r ps + b (q-1))
    r, b = np.ogrid[:q - 1, :ps]
    counts = np.zeros(m_all, dtype=np.int64)
    counts[(r * ps + b * (q - 1)) % m_all] = hists
    z, m = char_exponents((chi,), delta)[0]
    return CycNumber.root(m, -z) * CycNumber.from_counts(m_all, counts)
