"""Brute-force epsilon oracle: full character sums over truncated unit groups.

oracle_sum(theta, psi, delta) = q^{-c/2} * sum over u in (O/P^c)^x of
theta^{-1}(u delta) psi(u delta), the complete sum with q^{c-1}(q-1) terms,
computed exactly.

On prime-residue fields with convergent exp/log the sum is evaluated by a
vectorized kernel: units are tau-part times prod_i (1 + a_i pi^i), in mixed
radix with low levels fastest.  One table of low-level unit coordinates is
shared by all blocks; a block fixes the high digits, whose factor folds into
the psi-side trace weights.  The theta side is an outer sum of per-level
digit tables (log is additive over the digit factors; the logs come from the
field's memoized principal_logs) plus one offset per block.  All arithmetic
is integer arithmetic modulo powers of p; per-block histograms combine
associatively, so blocks split across processes.  Only the psi-side
exponents are cached, in the field's own caches under (conductor, delta),
so a grid lives exactly as long as its field.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .cyclotomic import CycNumber, ScaledCyc
from .errors import CapacityError, ConfigError
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


def _p_exponent(mod: int, p: int) -> int:
    m = 0
    while mod > 1:
        mod //= p
        m += 1
    return m


class _Grid:
    """Cached unit enumeration for one (field, conductor, delta) triple.

    Index sum d_lev p^(lev-1) is prod (1 + d_lev pi^lev); levels 1..k
    (p^k <= _CHUNK) form the low table, block idx // p^k fixes the rest.
    Per block it keeps the int32 psi-side rows, one per Teichmuller coset
    modulo p^sw, and no digit matrix."""

    def __init__(self, F: TowerField, psi, c: int, delta, jobs: int):
        p, e, q = F.p, F.e, F.q
        vd = delta.valuation()
        amod = max(1, -(-(1 - vd) // e), -(-c // e))
        mod = p**amod
        wrap = (p * (F.U[0] % mod)) % mod
        raw_w = {}
        sw = 1
        for j in range(q - 1):
            base = F.teichmuller(F.res_of(F.wpow(F.xi(), j))) * delta
            for i in range(e):
                z, m2 = psi.exponent(base.shift(i))
                raw_w[(j, i)] = (z, m2)
                sw = max(sw, _p_exponent(m2, p))
        psw = p**sw
        wexp = np.zeros((q - 1, e), dtype=np.int64)
        for (j, i), (z, m2) in raw_w.items():
            wexp[j, i] = z * p ** (sw - _p_exponent(m2, p)) % psw
        k = 0
        while k < c - 1 and p ** (k + 1) <= _CHUNK:
            k += 1
        self.k, self.sw = k, sw
        ring = (p, e, wrap, mod)
        low = _unit_table(1, k + 1, ring)
        high = _unit_table(k + 1, c, ring)
        # psi-exponent(u h) = sum_i u_i psi-exponent(pi^i h), h a high factor
        weights = np.stack([_pi_pow_mult(high, i, ring) @ wexp.T % psw
                            for i in range(e)], axis=2)
        args = ([low] * len(high), weights, [psw] * len(high))
        if jobs > 1 and len(high) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                self.blocks = list(ex.map(_grid_block, *args))
        else:
            self.blocks = list(map(_grid_block, *args))


def _grid_block(low, weights, psw):
    pexp = np.empty((len(weights), len(low)), dtype=np.int32)
    for j, w in enumerate(weights):
        pexp[j] = (low @ w) % psw
    return pexp


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
    st = 1
    raw_t1 = {}
    if chi.gamma is not None:
        for i in range(1, c):
            for a, lg in enumerate(F.principal_logs(i, c, teich=False), 1):
                z, m2 = psi.exponent(-chi.gamma * lg)
                raw_t1[(i, a)] = (z, m2)
                st = max(st, _p_exponent(m2, p))
    s = max(st, grid.sw)
    ps = p**s
    scale_w = p ** (s - grid.sw)
    t1 = np.zeros((max(c, 2), p), dtype=np.int64)
    for (i, a), (z, m2) in raw_t1.items():
        t1[i, a] = z * p ** (s - _p_exponent(m2, p)) % ps

    tlow = _digit_sums(t1, 1, grid.k + 1)
    # psi part < ps - scale_w and theta part < ps: 2 ps bins, then one fold
    hists = np.zeros((q - 1, 2 * ps), dtype=np.int64)
    for off, pexp in zip(_digit_sums(t1, grid.k + 1, c), grid.blocks):
        texp = (tlow + off) % ps
        for j in range(q - 1):
            hists[j] += np.bincount(pexp[j] * scale_w + texp,
                                    minlength=2 * ps)
    hists = hists[:, :ps] + hists[:, ps:]

    tame_t = chi.t % (q - 1)
    total = CycNumber.zero()
    for j in range(q - 1):
        row = hists[j]
        nz = np.nonzero(row)[0]
        cyc = CycNumber.from_root_sum(ps, [(int(b), int(row[b])) for b in nz])
        total = total + CycNumber.root(q - 1, (-tame_t * j) % (q - 1)) * cyc
    z, m = char_exponents((chi,), delta)[0]
    return CycNumber.root(m, -z) * total
