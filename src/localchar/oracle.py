"""Brute-force epsilon oracle: full character sums over truncated unit groups.

oracle_sum(theta, psi, delta) = q^{-c/2} * sum over u in (O/P^c)^x of
theta^{-1}(u delta) psi(u delta), the complete sum with q^{c-1}(q-1) terms,
computed exactly.

On prime-residue fields with convergent exp/log a vectorized kernel sums.
A unit is t_j prod_i (1 + a_i pi^i), t_j = xi^j a Teichmuller lift, in
mixed radix with low levels fastest; a block fixes the high digits.  The
psi side is a _Grid: per block one row of psi exponents and the t_j.  The
theta side is an outer sum of per-level digit tables psi(-gamma log(1 + a
pi^i)) (log is additive over the digit factors; AddChar.log_row dots
-gamma with the field's memoized log trace forms) plus one offset per block.
When the (psi, theta) key space is no larger than a block, each block's
joint histogram, rolled by its offset, is counted a slice of _SLICE units
at a time, keys formed in the narrowest type that holds them: the slice,
not the block, bounds the key copy and bincount's intp cast; row j is the
summed table's rows shifted by t_j a.  Otherwise each row is one bincount
of the keys.  The rows form one (q-1) x p^s count table, which one
CycNumber.from_counts reduces.  All arithmetic is modulo powers of p; grid
rows and digit sums work in the narrowest unsigned type that holds a sum
of two residues, and x mod m is one fold min(x, x - m), exact by unsigned
wrap-around for x < 2m.  Only the psi side is cached, in the field's own
caches under (conductor, delta), one grid per field: a new key evicts it.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .cyclotomic import CycNumber, ScaledCyc
from .errors import CapacityError, ConfigError, InternalContradiction
from .characters import AddChar, MulChar, _add_exponents, char_exponents
from .localfield import TowerField

_SLOW_BUDGET = 500_000
# units per block: bounds the sparse path's int64 key copy and bincount's
# intp cast of it; the dense path counts keys a slice of _SLICE units at a
# time, so there the slice, not the block, bounds both
_CHUNK = 1 << 20
_SLICE = 1 << 16
# bytes of the (q-1) x p^s int64 count table, checked before it is allocated
_TABLE_BYTES = 2 << 30


def oracle_sum(chi: MulChar, psi: AddChar, delta,
               budget: int = 300_000_000) -> ScaledCyc:
    """Full unit-group character sum against delta; exact."""
    F = chi.field
    if delta.is_zero():
        raise ConfigError("oracle needs a nonzero twisting element")
    c = max(1, chi.conductor())
    terms = F.q ** (c - 1) * (F.q - 1)
    if terms > budget:
        raise CapacityError(f"oracle sum has {terms} terms, budget {budget}")
    if F.f == 1 and F.explog_ok and not chi.is_factored():
        total = _fast_sum(chi, psi, delta, c)
    else:
        if terms > _SLOW_BUDGET:
            raise CapacityError(
                f"generic oracle path capped at {_SLOW_BUDGET} terms")
        total = _slow_sum(chi, psi, delta, c)
    return ScaledCyc(total, -c, F.q)


# --------------------------------------------------------------- slow path


def _slow_sum(chi, psi, delta, c):
    F = chi.field
    total = CycNumber.zero()
    tame = [F.tau(j) for j in range(F.q - 1)]
    one = F.one()
    for digits in product(range(F.q), repeat=c - 1):  # u1 = prod (1 + d pi^lev)
        u1 = one
        for lev, d in enumerate(digits, 1):
            if d:
                u1 = u1 * (one + F.monomial(d, lev))
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
    (p^k <= _CHUNK) are the low digits, block idx // p^k fixes the rest.
    The Teichmuller lifts t_j = xi^j lie in Z_p and psi is Z_p-linear, so
    the psi exponent of t_j u delta is t_j times that of u delta, mod psw.
    Per block h the grid keeps one row of psi exponents (j = 0), built by
    _level_rows from the e weights psi(pi^i h delta), which are the rows of
    the high levels.  A build works at np.min_scalar_type(2 psw - 2), a sum
    of two residues; rows are stored at np.min_scalar_type(psw - 1), so a
    grid holds q^(c-1) times that width in bytes, and the field's
    `oracle_grids` keeps only the last (c, delta) key's grid.
    `mult` holds the t_j mod psw, checked against psi(t_j delta pi^i) for
    every j and i."""

    def __init__(self, F: TowerField, psi, c: int, delta):
        p, e, q = F.p, F.e, F.q
        tame = [F.tau(j) for j in range(q - 1)]
        raw_w = [[psi.exponent((t * delta).shift(i)) for i in range(e)]
                 for t in tame]
        psw = max([p] + [m2 for row in raw_w for _z, m2 in row])
        wexp = np.array([[z * (psw // m2) % psw for z, m2 in row]
                         for row in raw_w], dtype=np.int64)
        self.mult = np.array([t.core[0][0] % psw for t in tame])
        if (wexp != self.mult[:, None] * wexp[0] % psw).any():
            raise InternalContradiction(
                "psi(t_j delta pi^i) is not t_j psi(delta pi^i) mod psw")
        k = sum(1 for lev in range(1, c) if p ** lev <= _CHUNK)
        self.k, self.psw = k, psw
        wrap = p * F.U[0] % psw  # pi^e = p U
        weights = zip(*_level_rows(wexp[0], p, range(k + 1, c), wrap, psw, e))
        self.blocks = [_level_rows(w, p, range(1, k + 1), wrap, psw, 1)[0]
                       for w in weights]

def _fold(x, m):
    """x mod m in place for unsigned x < 2m: x - m wraps above x below m."""
    return np.minimum(x, x - m, out=x)


def _level_rows(w, p, levels, wrap, psw, keep):
    """psi exponents of u pi^s x delta for s < keep, u over prod (1 + d_lev
    pi^lev) in mixed radix (lowest level fastest), from the weights w_s =
    psi-exponent(pi^s x delta), s < e.  Adding level lev maps the row of
    shift s to concat_d(row_s + d row_(s+lev)), a shift past e wrapping by
    (pU)^(shift // e); only the last level drops the shifts s >= keep."""
    e, width = len(w), np.min_scalar_type(psw - 1)
    work = np.min_scalar_type(2 * psw - 2)  # holds a sum of two residues
    rows = [np.array([x], dtype=width) for x in w]
    for lev in levels:
        new = []
        for s in range(keep if lev == levels[-1] else e):
            q2, r2 = divmod(s + lev, e)
            step = rows[r2].astype(np.int64) * pow(wrap, q2, psw)
            step %= psw  # in place: one int64 product and mod per shift
            acc, step = rows[s].astype(work), step.astype(work)
            out = np.empty((p, len(acc)), dtype=width)
            for d in range(p):
                out[d] = acc
                _fold(np.add(acc, step, out=acc), psw)
            new.append(out.ravel())
        rows = new
    return rows[:keep]


def _digit_sums(t1, lo, hi, ps):
    """sum_lev t1[lev, d_lev] mod ps over levels lo..hi-1, as the units."""
    out = np.zeros(1, dtype=t1.dtype)
    for lev in range(lo, hi):
        out = _fold(t1[lev][:, None] + out, ps).ravel()
    return out


def _dense_joint(blocks, offs, tlow, psw, ps):
    """psw x ps joint (psi, theta) histogram: keys pexp ps + tlow, counted a
    slice of max(_SLICE, psw ps) units at a time (never fewer units than the
    table has entries), each block's count rolled by its theta offset."""
    n = psw * ps
    step, width = max(_SLICE, n), np.min_scalar_type(n - 1)
    joint = np.zeros((psw, ps), dtype=np.int64)
    for off, pexp in zip(offs, blocks):
        table = np.zeros(n, dtype=np.int64)
        for lo in range(0, len(tlow), step):
            keys = np.multiply(pexp[lo:lo + step], ps, dtype=width)
            keys += tlow[lo:lo + step]
            table += np.bincount(keys, minlength=n)
        joint += np.roll(table.reshape(psw, ps), off, axis=1)
    return joint


def _fast_sum(chi, psi, delta, c):
    F = chi.field
    p, q = F.p, F.q
    grids = F._caches.setdefault("oracle_grids", {})
    key = (c, delta.v, tuple(tuple(w) for w in delta.core))
    grid = grids.get(key)
    if grid is None:  # one grid per field bounds the memory grids hold
        grids.clear()
        grid = grids[key] = _Grid(F, psi, c, delta)

    # theta side: psi(-gamma log(1 + a pi^i)) digit tables, exact
    raw_t1 = {} if chi.gamma is None else {
        i: psi.log_row(-chi.gamma, i, c, teich=False) for i in range(1, c)}
    psw, mult = grid.psw, grid.mult
    ps = max([psw] + [m2 for row in raw_t1.values() for _z, m2 in row])
    if (q - 1) * ps * 8 > _TABLE_BYTES:
        raise CapacityError(f"oracle count table needs {(q - 1) * ps * 8} "
                            f"bytes, limit {_TABLE_BYTES}")
    scale_w = ps // psw
    t1 = np.zeros((max(c, 2), p), dtype=np.min_scalar_type(2 * ps - 2))
    for i, row in raw_t1.items():
        t1[i, 1:] = [z * (ps // m2) % ps for z, m2 in row]

    tlow = _digit_sums(t1, 1, grid.k + 1, ps)
    # theta^-1(t_j) = zeta_{q-1}^r: row r counts zeta_ps exponents
    rows = [(-chi.t * j) % (q - 1) for j in range(q - 1)]
    hists = np.zeros((q - 1, ps), dtype=np.int64)
    offs = _digit_sums(t1, grid.k + 1, c, ps)
    if psw * ps <= len(tlow):  # row j moves psi exponent a to t_j a
        joint = _dense_joint(grid.blocks, offs, tlow, psw, ps)
        a = np.arange(psw)[:, None]
        for r, t in zip(rows, mult):
            cols = (np.arange(ps) - t * a % psw * scale_w) % ps
            hists[r] += np.take_along_axis(joint, cols, 1).sum(0)
    else:  # one bincount per Teichmuller row and block
        for off, pexp in zip(offs, grid.blocks):
            pexp = pexp.astype(np.int64)  # a narrow row overflows in products
            texp = _fold(tlow + off, ps)
            for r, t in zip(rows, mult):
                hists[r] += np.bincount(
                    (t * pexp % psw * scale_w + texp) % ps, minlength=ps)
    z, m = char_exponents((chi,), delta)[0]
    return CycNumber.root(m, -z) * CycNumber.from_counts((q - 1) * ps, hists)
