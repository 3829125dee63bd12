"""Truncated arithmetic in tame towers over the p-adic prime field.

A tower is described by unramified and tamely ramified steps and compiled to
a normal form: Galois-ring coefficients W = Z[x]/(p^a, h(x)) of residue
degree f, and a uniformizer pi with pi^e = U * p for a unit U in W.  Elements
carry an exact valuation, a certified precision, and a count of valid stored
digits (exact p-divisions inside series burn storage headroom, never
certified digits).

h is the lift of the lexicographically first primitive degree-f polynomial
over F_p, so every construction is deterministic given (p, steps, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import _factorize
from .errors import (
    ConfigError,
    DivisionByZero,
    ExpLogRadius,
    InternalContradiction,
    PrecisionLoss,
    WildRamification,
)

INF = math.inf


@dataclass(frozen=True)
class Unramified:
    degree: int


@dataclass(frozen=True)
class TameRamified:
    degree: int
    unit: object = 1  # int, or ("gen", m): m-th power of the prefix residue generator


def _poly_mul_mod(a, b, hbar, p):
    """Product in F_p[x]/(hbar); vectors of length deg(hbar)."""
    f = len(hbar) - 1
    out = [0] * (2 * f - 1) if f > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for d in range(2 * f - 2, f - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for i in range(f):
                out[d - f + i] = (out[d - f + i] - c * hbar[i]) % p
    return out[:f]


def _poly_pow_mod(a, n, hbar, p):
    f = len(hbar) - 1
    res = [1] + [0] * (f - 1)
    base = list(a)
    while n:
        if n & 1:
            res = _poly_mul_mod(res, base, hbar, p)
        n >>= 1
        if n:
            base = _poly_mul_mod(base, base, hbar, p)
    return res


@lru_cache(maxsize=None)
def _primitive_poly(p: int, f: int):
    """Lexicographically first monic degree-f polynomial over F_p whose root
    has multiplicative order p^f - 1.  Coefficients little-endian in [0, p)."""
    if f == 1:
        for g in range(2, p):
            if all(pow(g, (p - 1) // l, p) != 1 for l, *_ in _factorize(p - 1)):
                return ((-g) % p, 1)
        raise ConfigError("no primitive root found")
    q1 = p**f - 1
    ls = [l for l, *_ in _factorize(q1)]
    one = [1] + [0] * (f - 1)
    for code in range(p**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % p)
            c //= p
        if coeffs[0] == 0:
            continue
        hbar = coeffs + [1]
        x = [0, 1] + [0] * (f - 2)
        if _poly_pow_mod(x, q1, hbar, p) != one:
            continue
        if any(_poly_pow_mod(x, q1 // l, hbar, p) == one for l in ls):
            continue
        return tuple(hbar)
    raise ConfigError("no primitive polynomial found")


def _prime_gen(p: int) -> int:
    """The least primitive root mod p, the root of _primitive_poly(p, 1)."""
    return (p - _primitive_poly(p, 1)[0]) % p


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TowerField:
    """Compiled tame tower; immutable after construction and safe to share."""

    def __init__(self, p: int, steps: tuple, k: int, series_window: int | None = None):
        if p < 3 or _factorize(p)[0][0] != p:
            raise ConfigError(f"p must be an odd prime, got {p}")
        if k < 2:
            raise ConfigError("precision k must be >= 2")
        f = 1
        e = 1
        for s in steps:
            if isinstance(s, Unramified):
                deg = s.degree
            elif isinstance(s, TameRamified):
                deg = s.degree
            else:
                raise ConfigError(f"unknown step {s!r}")
            if deg < 1:
                raise ConfigError("step degree must be >= 1")
            if deg % p == 0:
                raise WildRamification(f"p = {p} divides step degree {deg}")
            if isinstance(s, Unramified):
                f *= deg
            else:
                e *= deg
        self.p = p
        self.steps = tuple(steps)
        self.k = k
        self.f = f
        self.e = e
        self.q = p**f
        self.degree = e * f
        self.explog_ok = (p - 1) > e
        self.series_window = min(k, series_window) if series_window else k
        if self.explog_ok:
            n_limit = -((-self.series_window * (p - 1)) // ((p - 1) - e)) + 1
            # v_p(n_limit!) + 1
            self.headroom = sum(_vp(m, p) for m in range(1, n_limit + 1)) + 1
        else:
            self.headroom = 1
        self.a = -(-k // e) + self.headroom
        self.pa = p**self.a
        self.kint = e * self.a
        self._caches: dict = {}
        self.h = tuple(c % self.pa for c in _primitive_poly(p, f))
        self._hred = self._make_hred()
        self.U = self._compile_unit(steps)
        if self._wval(self.U) != 0:
            raise ConfigError("compiled uniformizer unit is not a unit")
        self.Upw = self.wscal(self.U, p)
        self.Uinv = self.winv(self.U)

    def __repr__(self):
        return f"Tower(p={self.p}, f={self.f}, e={self.e}, k={self.k})"

    # ------------------------------------------------------------------ W ops

    def _make_hred(self):
        f = self.f
        if f == 1:
            return ()
        rows = []
        cur = tuple((-self.h[i]) % self.pa for i in range(f))  # x^f mod h
        rows.append(cur)
        for _ in range(f - 2):
            shifted = (0,) + cur[: f - 1]
            top = cur[f - 1]
            cur = tuple((shifted[i] - top * self.h[i]) % self.pa for i in range(f))
            rows.append(cur)
        return tuple(rows)

    def wzero(self):
        return (0,) * self.f

    def wone(self):
        return (1,) + (0,) * (self.f - 1)

    def wint(self, n: int):
        return (n % self.pa,) + (0,) * (self.f - 1)

    def wadd(self, x, y):
        pa = self.pa
        return tuple((a + b) % pa for a, b in zip(x, y))

    def wsub(self, x, y):
        pa = self.pa
        return tuple((a - b) % pa for a, b in zip(x, y))

    def wneg(self, x):
        pa = self.pa
        return tuple((-a) % pa for a in x)

    def wscal(self, x, c: int):
        pa = self.pa
        return tuple((a * c) % pa for a in x)

    def wmul(self, x, y):
        f = self.f
        pa = self.pa
        if f == 1:
            return ((x[0] * y[0]) % pa,)
        out = [0] * (2 * f - 1)
        for i, ai in enumerate(x):
            if ai:
                for j, bj in enumerate(y):
                    out[i + j] += ai * bj
        res = [c % pa for c in out[:f]]
        for d in range(f, 2 * f - 1):
            c = out[d] % pa
            if c:
                row = self._hred[d - f]
                for i in range(f):
                    res[i] = (res[i] + c * row[i]) % pa
        return tuple(res)

    def wpow(self, x, n: int):
        res = self.wone()
        base = x
        while n:
            if n & 1:
                res = self.wmul(res, base)
            n >>= 1
            if n:
                base = self.wmul(base, base)
        return res

    def _wval(self, x) -> int:
        best = self.a
        for c in x:
            if c:
                v = 0
                while c % self.p == 0:
                    c //= self.p
                    v += 1
                if v < best:
                    best = v
                    if best == 0:
                        return 0
        return best

    def winv(self, x):
        if self._wval(x) != 0:
            raise DivisionByZero("W element is not a unit")
        xm = [c % self.p for c in x]
        hbar = [c % self.p for c in self.h]
        inv0 = _poly_pow_mod(xm, self.q - 2, hbar, self.p)
        y = tuple(inv0) + (0,) * (self.f - len(inv0))
        two = self.wint(2)
        for _ in range(max(1, math.ceil(math.log2(max(self.a, 2))) + 1)):
            y = self.wmul(y, self.wsub(two, self.wmul(x, y)))
        return y

    def teichmuller_w(self, x):
        """Root of unity (or 0) congruent to x; memoized, as it depends on x mod p."""
        memo = self._caches.setdefault("teich", {})
        key = tuple(c % self.p for c in x)
        if key not in memo:
            memo[key] = self.wpow(x, self.q ** (self.a + 1))
        return memo[key]

    def _weval_poly(self, coeffs, x):
        res = self.wzero()
        for c in reversed(coeffs):
            res = self.wadd(self.wmul(res, x), self.wint(c))
        return res

    def frobenius_gen(self):
        """Root of h congruent to x^p: image of the generator under Frobenius."""
        if "frobgen" not in self._caches:
            if self.f == 1:
                self._caches["frobgen"] = self.wone()
            else:
                self._caches["frobgen"] = self.hensel_root(
                    self.h, self.wpow((0, 1) + (0,) * (self.f - 2), self.p))
        return self._caches["frobgen"]

    def hensel_root(self, poly, r0):
        """Newton lift of a simple residue root r0 of the integer polynomial
        poly (little-endian) to the exact root in W."""
        dpoly = tuple((i * c) % self.pa for i, c in enumerate(poly))[1:]
        r = tuple(c % self.pa for c in r0)
        for _ in range(self.a + 2):
            r = self.wsub(r, self.wmul(self._weval_poly(poly, r),
                                       self.winv(self._weval_poly(dpoly, r))))
        if self._weval_poly(poly, r) != self.wzero():
            raise InternalContradiction("Hensel lift did not converge to a root")
        return r

    def residue_roots(self, poly, count: int):
        """The first count roots in W of a primitive degree-d polynomial over
        F_p, d | f: its residue roots generate F_{p^d}^x, so they are among
        the powers of xi^((q-1)/(p^d-1)), searched in order and lifted."""
        d = len(poly) - 1
        hbar = [c % self.p for c in poly]
        tbar = [c % self.p for c in self.h]
        base = _poly_pow_mod(list(self.res_of(self.xi())),
                             (self.q - 1) // (self.p**d - 1), tbar, self.p)
        roots = []
        cur = list(base)
        for _ in range(self.p**d - 1):
            val = [0] * self.f
            acc = [1] + [0] * (self.f - 1)
            for c in hbar:
                if c:
                    val = [(x + c * y) % self.p for x, y in zip(val, acc)]
                acc = _poly_mul_mod(acc, cur, tbar, self.p)
            if not any(val):
                roots.append(self.hensel_root(poly, tuple(cur)))
                if len(roots) == count:
                    break
            cur = _poly_mul_mod(cur, base, tbar, self.p)
        return roots

    def subres_generator(self, fp: int):
        """Canonical root in W of the degree-fp primitive polynomial: the
        first residue root found among powers of xi^((q-1)/(p^fp-1)), lifted.
        For fp = f this is exactly the W generator x."""
        key = ("subgen", fp)
        if key not in self._caches:
            if fp == 1:
                self._caches[key] = self.wint(_prime_gen(self.p))
            elif self.f % fp:
                raise ConfigError("residue degree does not divide")
            else:
                roots = self.residue_roots(_primitive_poly(self.p, fp), 1)
                if not roots:
                    raise ConfigError("no root of the sub-residue polynomial found")
                self._caches[key] = roots[0]
        return self._caches[key]

    def _compile_unit(self, steps):
        u = self.wone()
        e_so_far = 1
        f_so_far = 1
        for s in steps:
            if isinstance(s, Unramified):
                f_so_far *= s.degree
                continue
            if isinstance(s.unit, int):
                uval = self.wint(s.unit)
            elif (isinstance(s.unit, tuple) and len(s.unit) == 2
                  and s.unit[0] == "gen"):
                uval = self.wpow(self.subres_generator(f_so_far), s.unit[1])
            else:
                raise ConfigError(f"bad unit spec {s.unit!r}")
            u = self.wmul(self.wpow(uval, e_so_far), u)
            e_so_far *= s.degree
        return u

    def frob_w(self, x, power: int = 1):
        if self.f == 1:
            return x
        power %= self.f
        if power == 0:
            return x
        mats = self._caches.setdefault("frobmats", {})
        if power not in mats:
            g = self.frobenius_gen()
            gp = self.wone()
            img = g
            for _ in range(power - 1):
                img = self._subst_gen(img, g)
            cols = []
            cur = self.wone()
            for _ in range(self.f):
                cols.append(cur)
                cur = self.wmul(cur, img)
            mats[power] = cols
        cols = mats[power]
        out = self.wzero()
        for j, c in enumerate(x):
            if c:
                out = self.wadd(out, self.wscal(cols[j], c))
        return out

    def _subst_gen(self, w, g):
        """Evaluate the coordinate polynomial of w at g (apply x -> g)."""
        out = self.wzero()
        cur = self.wone()
        for c in w:
            if c:
                out = self.wadd(out, self.wscal(cur, c))
            cur = self.wmul(cur, g)
        return out

    def trace_w(self, x) -> int:
        if self.f == 1:
            return x[0] % self.pa
        s = x
        for b in range(1, self.f):
            s = self.wadd(s, self.frob_w(x, b))
        if any(s[1:]):
            raise InternalContradiction("absolute trace must be a scalar")
        return s[0]

    # ------------------------------------------------------------- residue ops

    def res_of(self, x):
        return tuple(c % self.p for c in x)

    def wfromres(self, r):
        return tuple(c % self.pa for c in r)

    def res_to_int(self, r) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(r))

    def int_to_res(self, n: int):
        out = []
        n %= self.q
        for _ in range(self.f):
            out.append(n % self.p)
            n //= self.p
        return tuple(out)

    def res_inv(self, r):
        hbar = [c % self.p for c in self.h]
        inv = _poly_pow_mod(list(r), self.q - 2, hbar, self.p)
        return tuple(inv) + (0,) * (self.f - len(inv))

    def xi(self):
        """Canonical Teichmuller generator of the roots of unity mu_{q-1}."""
        if "xi" not in self._caches:
            if self.f == 1:
                self._caches["xi"] = self.teichmuller_w(self.subres_generator(1))
            else:
                self._caches["xi"] = self.teichmuller_w((0, 1) + (0,) * (self.f - 2))
        return self._caches["xi"]

    def dlog_res(self, r) -> int:
        """Discrete log of a nonzero residue to base the residue of xi."""
        r = tuple(c % self.p for c in r)
        if all(c == 0 for c in r):
            raise DivisionByZero("dlog of zero residue")
        hbar = [c % self.p for c in self.h]
        if self.q <= 4096:
            table = self._caches.get("dlogtable")
            if table is None:
                table = {}
                cur = [1] + [0] * (self.f - 1)
                xibar = list(self.res_of(self.xi()))
                for idx in range(self.q - 1):
                    table[tuple(cur)] = idx
                    cur = _poly_mul_mod(cur, xibar, hbar, self.p)
                self._caches["dlogtable"] = table
            return table[r]
        n = self.q - 1
        mstep = int(math.isqrt(n)) + 1
        if "dlogbaby" not in self._caches:
            baby = {}
            xibar = list(self.res_of(self.xi()))
            cur = [1] + [0] * (self.f - 1)
            for j in range(mstep):
                baby.setdefault(tuple(cur), j)
                cur = _poly_mul_mod(cur, xibar, hbar, self.p)
            self._caches["dlogbaby"] = baby
            self._caches["dloggiant"] = _poly_pow_mod(xibar, n - (mstep % n), hbar, self.p)
        baby = self._caches["dlogbaby"]
        giant = self._caches["dloggiant"]
        cur = list(r)
        for i in range(mstep + 1):
            j = baby.get(tuple(cur))
            if j is not None:
                return (i * mstep + j) % n
            cur = _poly_mul_mod(cur, giant, hbar, self.p)
        raise DivisionByZero("dlog failed")

    # ------------------------------------------------------------------ R ops

    def rone(self):
        return (self.wone(),) + (self.wzero(),) * (self.e - 1)

    def rint(self, n: int):
        return (self.wint(n),) + (self.wzero(),) * (self.e - 1)

    def rfromw(self, w):
        return (w,) + (self.wzero(),) * (self.e - 1)

    def radd(self, x, y):
        return tuple(self.wadd(a, b) for a, b in zip(x, y))

    def rsub(self, x, y):
        return tuple(self.wsub(a, b) for a, b in zip(x, y))

    def rneg(self, x):
        return tuple(self.wneg(a) for a in x)

    def rscal(self, x, c: int):
        return tuple(self.wscal(a, c) for a in x)

    def rwscal(self, x, w):
        return tuple(self.wmul(a, w) for a in x)

    def rmul(self, x, y):
        e = self.e
        if e == 1:
            return (self.wmul(x[0], y[0]),)
        zero = self.wzero()
        acc = [zero] * e
        for i, xi in enumerate(x):
            if xi == zero:
                continue
            for j, yj in enumerate(y):
                if yj == zero:
                    continue
                w = self.wmul(xi, yj)
                d = i + j
                if d >= e:
                    w = self.wmul(w, self.Upw)
                    d -= e
                acc[d] = self.wadd(acc[d], w)
        return tuple(acc)

    def rval(self, x, limit=None):
        best = None
        for i, w in enumerate(x):
            v = self._wval(w)
            if v < self.a:
                pos = i + self.e * v
                if best is None or pos < best:
                    best = pos
        if best is not None and limit is not None and best >= limit:
            return None
        return best

    def rshift_up(self, x, s: int):
        if s == 0:
            return x
        e = self.e
        qq, r = divmod(s, e)
        if qq:
            x = self.rwscal(x, self.wpow(self.Upw, qq))
        for _ in range(r):
            x = (self.wmul(x[e - 1], self.Upw),) + x[: e - 1]
        return x

    def rshift_out(self, x, s: int):
        """Exact division by pi^s when every digit below s vanishes."""
        if s == 0:
            return x
        e = self.e
        qq, r = divmod(s, e)
        if qq:
            pq = self.p**qq
            x = tuple(tuple(c // pq for c in w) for w in x)
            x = self.rwscal(x, self.wpow(self.Uinv, qq))
        for _ in range(r):
            w0 = tuple(c // self.p for c in x[0])
            x = x[1:] + (self.wmul(w0, self.Uinv),)
        return x

    def rinv(self, x):
        if self.rval(x) != 0:
            raise DivisionByZero("R element is not a unit")
        y = self.rfromw(self.winv(x[0]))
        two = self.rint(2)
        for _ in range(max(1, math.ceil(math.log2(max(self.kint, 2))) + 1)):
            y = self.rmul(y, self.rsub(two, self.rmul(x, y)))
        return y

    # --------------------------------------------------------------- elements

    def zero(self):
        return TowerElement(self, None, None, INF, INF)

    def zero_bounded(self, bound):
        if bound is INF:
            return self.zero()
        return TowerElement(self, None, None, bound, bound)

    def make(self, v: int, core, prec, store) -> "TowerElement":
        """Normalize (v, core known mod pi^min(prec, store)) into an element."""
        eff = min(prec, store, self.kint)
        if eff <= 0:
            return self.zero_bounded(v + eff)
        s = self.rval(core, limit=eff)
        if s is None:
            return self.zero_bounded(v + eff)
        if s:
            core = self.rshift_out(core, s)
        return TowerElement(self, v + s, core, prec - s, min(store - s, self.kint))

    def one(self):
        return TowerElement(self, 0, self.rone(), self.kint, self.kint)

    def from_int(self, n: int) -> "TowerElement":
        if n == 0:
            return self.zero()
        v = 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        core = self.rwscal(self.rint(n), self.wpow(self.Uinv, v))
        return TowerElement(self, v * self.e, core, self.kint, self.kint)

    def uniformizer(self) -> "TowerElement":
        return TowerElement(self, 1, self.rone(), self.kint, self.kint)

    def teichmuller(self, res) -> "TowerElement":
        if isinstance(res, int):
            res = self.int_to_res(res)
        w = self.teichmuller_w(tuple(c % self.pa for c in res))
        if self._wval(w) != 0:
            raise DivisionByZero("Teichmuller lift of zero residue")
        return TowerElement(self, 0, self.rfromw(w), self.kint, self.kint)

    def monomial(self, res, v: int) -> "TowerElement":
        t = self.teichmuller(res)
        return TowerElement(self, v, t.core, self.kint, self.kint)

    def from_digits(self, digits) -> "TowerElement":
        out = self.zero()
        for v, res in digits:
            if isinstance(res, int):
                if res % self.q == 0:
                    continue
            elif not any(c % self.p for c in res):
                continue
            out = out + self.monomial(res, v)
        return out

    def random_unit(self, rng, depth=None) -> "TowerElement":
        top = depth if depth is not None else self.k
        digits = [(0, rng.randrange(1, self.q))]
        digits += [(v, rng.randrange(self.q)) for v in range(1, top)]
        return self.from_digits(digits)

    def random_element(self, rng, vmin: int, vmax: int) -> "TowerElement":
        v = rng.randrange(vmin, vmax + 1)
        return self.random_unit(rng).shift(v)

    # ---------------------------------------------------------------- exp/log

    def exp_principal(self, x: "TowerElement", window=None) -> "TowerElement":
        if not self.explog_ok:
            raise ExpLogRadius(f"p - 1 = {self.p - 1} <= e = {self.e}")
        if x.is_zero():
            return self.one() if x.prec is INF else self.one().cap_window(x.prec)
        if x.v < 1:
            raise ExpLogRadius("exp needs valuation >= 1")
        window = min(x.window(), self.kint, window if window else self.kint)
        n_limit = -((-window * (self.p - 1)) // (x.v * (self.p - 1) - self.e))
        acc = self.one()
        term = self.one()
        for n in range(1, n_limit + 1):
            term = (term * x).div_int(n)
            if term.is_zero() or term.v < window:
                acc = acc + term
        return acc.cap_window(window)

    def log_principal(self, u: "TowerElement", window=None) -> "TowerElement":
        """log(u) = sum_n (-1)^(n+1) y^n / n, y = u - 1, mod P^window.

        Term n has valuation exactly n v - e v_p(n), v = v(y).  Let n_limit
        be the least n >= 1 with f(n) = n v - e log_p(n) >= window (tested
        exactly as p^(n v - window) >= n^e); since v_p(n) <= log_p(n), term
        n lies in P^window once f(n) >= window.  If v < window, then
        f(1) = v < window <= f(n_limit); f is convex, so its slope past
        n_limit is at least the positive slope of the chord from 1 to
        n_limit, and every term from n_limit on lies in P^window.  If
        v >= window, then n_limit = 1 and every term has valuation >= v, as
        p^j v - e j >= v for j >= 0 when e <= p - 2.  So the series is
        summed up to the last n < n_limit whose term lies below the window."""
        if not self.explog_ok:
            raise ExpLogRadius(f"p - 1 = {self.p - 1} <= e = {self.e}")
        y = u - self.one()
        if y.is_zero():
            return self.zero() if y.prec is INF else self.zero_bounded(y.prec)
        if y.v < 1:
            raise ExpLogRadius("log needs a principal unit")
        window = min(y.window(), self.kint, window if window else self.kint)
        n_limit = 1
        while not (n_limit * y.v >= window and
                   self.p ** (n_limit * y.v - window) >= n_limit ** self.e):
            n_limit += 1
        last = max((n for n in range(1, n_limit)
                    if n * y.v - self.e * _vp(n, self.p) < window), default=0)
        acc = self.zero()
        power = self.one()
        for n in range(1, last + 1):
            power = power * y
            t = power.div_int(n)
            if n % 2 == 0:
                t = -t
            if t.is_zero() or t.v < window:
                acc = acc + t
        return acc.cap_window(window)

    def principal_logs(self, n: int, window, teich: bool = True):
        """log(1 + a pi^n) at the given window for the q - 1 nonzero digits a,
        memoized per (n, window, teich), so at most q - 1 entries a key.

        a runs over the Teichmuller lifts tau(1), ..., tau(q - 1) (residues
        coded as in int_to_res) or, with teich=False, over the integers
        1, ..., p - 1, which for f = 1 is the same residue system."""
        if not teich and self.f != 1:
            raise ConfigError("integer digits need residue degree 1")
        memo = self._caches.setdefault("plog", {})
        key = (n, window, teich)
        if key not in memo:
            one = self.one()
            digits = (self.monomial(a, n) if teich else self.from_int(a).shift(n)
                      for a in range(1, self.q))
            memo[key] = tuple(self.log_principal(one + x, window=window)
                              for x in digits)
        return memo[key]

    # ------------------------------------------------------------------ trace

    def trace_digits(self, x: "TowerElement"):
        """Trace to the prime field as ((m, c) pairs meaning sum of c * p^m,
        certified p-adic window).  tr(pi^(e*m) * w) = e * p^m * tr_W(U^m * w)
        and tr(pi^i * w) = 0 for e not dividing i (the e comes from the
        totally ramified part, whose trace of 1 is e)."""
        if x.is_zero():
            if x.prec is INF:
                return [], INF
            return [], -(-x.prec // self.e)
        window_abs = x.window()
        out = []
        for i in range(self.e):
            pos = x.v + i
            if pos % self.e:
                continue
            m = pos // self.e
            um = self.wpow(self.U, m) if m >= 0 else self.wpow(self.Uinv, -m)
            c = (self.e * self.trace_w(self.wmul(x.core[i], um))) % self.pa
            if c:
                out.append((m, c))
        return out, -(-window_abs // self.e)


class TowerElement:
    """pi^v * unit, unit known mod pi^prec with `store` valid stored digits.

    Zero states: v is None and prec = store is the certified bound (the
    element lies in P^prec); prec = inf is the exact zero.
    """

    __slots__ = ("field", "v", "core", "prec", "store")

    def __init__(self, field: TowerField, v, core, prec, store):
        self.field = field
        self.v = v
        self.core = core
        self.prec = min(prec, store) if v is not None else prec
        self.store = store

    # ---- state helpers

    def is_zero(self) -> bool:
        return self.v is None

    def is_exact_zero(self) -> bool:
        return self.v is None and self.prec is INF

    def valuation(self) -> int:
        if self.v is None:
            if self.prec is INF:
                raise DivisionByZero("valuation of exact zero")
            raise PrecisionLoss(f"element is zero modulo pi^{self.prec}")
        return self.v

    def window(self):
        return self.prec if self.v is None else self.v + self.prec

    def cap_window(self, w) -> "TowerElement":
        if w is INF:
            return self
        if self.v is None:
            return self.field.zero_bounded(min(self.prec, w))
        if w >= self.v + self.prec:
            return self
        if w <= self.v:
            return self.field.zero_bounded(w)
        return TowerElement(self.field, self.v, self.core, w - self.v, self.store)

    # ---- arithmetic

    def _promote(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, TowerElement):
            if other.field is not self.field:
                raise ConfigError("elements of different fields")
            return other
        return None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        F = self.field
        if self.is_zero() and other.is_zero():
            return F.zero_bounded(min(self.prec, other.prec))
        if self.is_zero():
            return other.cap_window(self.prec)
        if other.is_zero():
            return self.cap_window(other.prec)
        window = min(self.window(), other.window())
        v0 = min(self.v, other.v)
        d1 = self.v - v0
        d2 = other.v - v0
        a = F.rshift_up(self.core, d1)
        b = F.rshift_up(other.core, d2)
        store = min(min(self.store + d1, F.kint), min(other.store + d2, F.kint))
        return F.make(v0, F.radd(a, b), window - v0, store)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return TowerElement(self.field, self.v, self.field.rneg(self.core),
                            self.prec, self.store)

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        F = self.field
        if self.is_exact_zero() or other.is_exact_zero():
            return F.zero()
        if self.is_zero() or other.is_zero():
            b1 = self.prec if self.is_zero() else self.v
            b2 = other.prec if other.is_zero() else other.v
            return F.zero_bounded(b1 + b2)
        return TowerElement(F, self.v + other.v, F.rmul(self.core, other.core),
                            min(self.prec, other.prec),
                            min(self.store, other.store))

    __rmul__ = __mul__

    def inv(self) -> "TowerElement":
        if self.is_zero():
            raise DivisionByZero("inverse of (certified) zero")
        F = self.field
        return TowerElement(F, -self.v, F.rinv(self.core), self.prec, self.store)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def shift(self, v: int) -> "TowerElement":
        """Multiply by pi^v (any sign)."""
        if self.is_zero():
            return self.field.zero_bounded(self.prec + v) if self.prec is not INF else self
        return TowerElement(self.field, self.v + v, self.core, self.prec, self.store)

    def div_int(self, n: int) -> "TowerElement":
        if n == 0:
            raise DivisionByZero("division by integer zero")
        F = self.field
        s = 0
        while n % F.p == 0:
            n //= F.p
            s += 1
        inv = pow(n % F.pa, -1, F.pa)
        out = self if inv == 1 else self._scal(inv)
        return out.div_p(s)

    def _scal(self, c: int) -> "TowerElement":
        F = self.field
        if self.is_zero():
            return self
        return F.make(self.v, F.rscal(self.core, c), self.prec, self.store)

    def div_p(self, s: int) -> "TowerElement":
        """Exact division by p^s (p = U^{-1} pi^e; burns e*s stored digits).

        Negative s multiplies by p^{-s} and costs no storage."""
        if s == 0 or self.is_exact_zero():
            return self
        F = self.field
        if self.is_zero():
            return F.zero_bounded(self.prec - s * F.e)
        scale = F.wpow(F.U, s) if s >= 0 else F.wpow(F.Uinv, -s)
        core = F.rwscal(self.core, scale)
        return TowerElement(F, self.v - s * F.e, core,
                            self.prec, self.store - max(s, 0) * F.e)

    # ---- structure

    def residue(self):
        if self.is_zero():
            raise DivisionByZero("residue of zero")
        return self.field.res_of(self.core[0])

    def principal_split(self):
        """For a unit u: (residue r, u * tau(r)^{-1} in 1 + P)."""
        if self.is_zero() or self.v != 0:
            raise ConfigError("principal split needs a unit (valuation 0)")
        F = self.field
        r = self.residue()
        tinv = F.teichmuller(F.res_inv(r))
        return r, self * tinv

    def eq_mod(self, other, m: int) -> bool:
        """Equality modulo pi^m; raises PrecisionLoss if undecidable."""
        other = self._promote(other)
        d = self - other
        if d.is_zero():
            if d.prec >= m:
                return True
            raise PrecisionLoss(f"equal mod pi^{d.prec}, need pi^{m}")
        return d.v >= m

    def __eq__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("TowerElement is not hashable")

    def __repr__(self):
        if self.is_zero():
            return "Elem(0)" if self.prec is INF else f"Elem(O(pi^{self.prec}))"
        F = self.field
        parts = [f"pi^{self.v + i}*{list(w)}"
                 for i, w in enumerate(self.core[: min(F.e, 4)]) if any(w)]
        return "Elem(" + " + ".join(parts) + f" + O(pi^{self.window()}))"

    def serialize(self):
        if self.is_zero():
            return {"zero_mod": None if self.prec is INF else self.prec}
        return {"valuation": self.v, "unit": [list(w) for w in self.core],
                "prec": self.prec}


@lru_cache(maxsize=None)
def _tower_cached(p: int, steps: tuple, k: int, sw) -> TowerField:
    return TowerField(p, steps, k, sw)


def make_tower(p: int, steps, k: int, require_explog: bool = False,
               series_window: int | None = None) -> TowerField:
    """Construct (and memoize) a tame tower over the p-adic prime field.

    Raises WildRamification if p divides a step degree.  With
    require_explog=True, towers whose ramification reaches p - 1 are rejected
    (ExpLogRadius); otherwise they are built with exp/log disabled, which is
    what compositum fields need.  series_window caps the exp/log series depth
    (and so the storage headroom) below the ring precision.
    """
    field = _tower_cached(p, tuple(steps), k, series_window)
    if require_explog and not field.explog_ok:
        raise ExpLogRadius(
            f"p - 1 = {p - 1} <= e = {field.e}: truncated exp/log diverge")
    return field
