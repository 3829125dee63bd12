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
from operator import mul

from .cyclotomic import _factorize, _vp
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


def _power(x, n, mul, one):
    """x^n for n >= 0 by square-and-multiply, low bit first: each product is
    mul(result, square), in this order, as it fixes the stored digits."""
    res = one
    while n:
        if n & 1:
            res = mul(res, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return res


def _poly_pow_mod(a, n, hbar, p):
    return _power(list(a), n, lambda x, y: _poly_mul_mod(x, y, hbar, p),
                  [1] + [0] * (len(hbar) - 2))


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


def _newton(step, y, n):
    """Apply step to y ceil(log2 max(n, 2)) + 1 times.  A Newton step
    squares the error: 1 - x y (2 - x y) = (1 - x y)^2, and for g'(r) a unit
    g(r - g(r)/g'(r)) lies in g(r)^2 W.  So an error in P lies in P^(2^j)
    after j steps, and 2^j >= n from j = ceil(log2 n) on; one step is spare."""
    for _ in range((max(n, 2) - 1).bit_length() + 1):
        y = step(y)
    return y


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
            if not isinstance(s, (Unramified, TameRamified)):
                raise ConfigError(f"unknown step {s!r}")
            deg = s.degree
            if deg < 1:
                raise ConfigError("step degree must be >= 1")
            if isinstance(s, Unramified):
                f *= deg
            elif deg % p:
                e *= deg
            else:
                raise WildRamification(f"p = {p} divides step degree {deg}")
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
            self.headroom = sum(_vp(m, p)[0] for m in range(1, n_limit + 1)) + 1
        else:
            self.headroom = 1
        self.a = -(-k // e) + self.headroom
        self.pa = p**self.a
        self.kint = e * self.a
        self._caches: dict = {}
        self.h = _primitive_poly(p, f)  # digits in [0, p), so also h mod p
        # Tr(x^k) = the k-th power sum of h's roots, by Newton's identities
        sums = [f]
        for k in range(1, f):
            sums.append((-k * self.h[f - k] - sum(
                self.h[f - j] * sums[k - j] for j in range(1, k))) % self.pa)
        self._power_sums = tuple(sums)
        self.U = self._compile_unit(steps)
        if self._wval(self.U) != 0:
            raise ConfigError("compiled uniformizer unit is not a unit")
        self.Upw = self.wscal(self.U, p)
        self.Uinv = self.winv(self.U)
        ups, downs, pws = ([self.wone()] for _ in range(3))
        for _ in range(self.a):
            ups.append(self.wmul(ups[-1], self.U))
            downs.append(self.wmul(downs[-1], self.Uinv))
            pws.append(self.wmul(pws[-1], self.Upw))
        self._upows = tuple(downs[:0:-1] + ups)  # U^-a .. U^a
        self._upwpows = tuple(pws)  # (pU)^0 .. (pU)^a, zero from a on
        if f == 1:
            self._bind_int_kernels()

    def __repr__(self):
        return f"Tower(p={self.p}, f={self.f}, e={self.e}, k={self.k})"

    # ------------------------------------------------------------------ W ops

    def wzero(self):
        return (0,) * self.f

    def wone(self):
        return (1,) + (0,) * (self.f - 1)

    def wint(self, n: int):
        return (n % self.pa,) + (0,) * (self.f - 1)

    def wadd(self, x, y):
        pa = self.pa
        return tuple([(a + b) % pa for a, b in zip(x, y)])

    def wsub(self, x, y):
        pa = self.pa
        return tuple([(a - b) % pa for a, b in zip(x, y)])

    def wscal(self, x, c: int):
        pa = self.pa
        return tuple([(a * c) % pa for a in x])

    def wmul(self, x, y):
        """The product mod h, its top coefficients cleared by monic h."""
        f, pa, h = self.f, self.pa, self.h
        out = [0] * (2 * f - 1)
        for i, ai in enumerate(x):
            if ai:
                for j, bj in enumerate(y):
                    out[i + j] += ai * bj
        for d in range(2 * f - 2, f - 1, -1):
            c = out[d] % pa
            if c:
                for i in range(f):
                    out[d - f + i] -= c * h[i]
        return tuple([c % pa for c in out[:f]])

    def _bind_int_kernels(self):
        """For f = 1 a W element is one int: W/R ops on x[0], bound on the
        instance, with the generic ops' residues.  rmul adds each slot's
        products as ints, those past pi^e times the int pU, and reduces once."""
        pa, e, pu = self.pa, self.e, self.Upw[0]

        def rmul(x, y):
            acc = [0] * e
            for i, (c,) in enumerate(x):
                if c:
                    for d, (b,) in enumerate(y, i):
                        if b:
                            if d < e:
                                acc[d] += c * b
                            else:
                                acc[d - e] += c * b * pu
            return tuple([(c % pa,) for c in acc])

        self.rmul = rmul if e > 1 else lambda x, y: (((x[0][0] * y[0][0]) % pa,),)
        self.trace_w = lambda x: x[0] % pa
        self.wmul = lambda x, y: ((x[0] * y[0]) % pa,)
        self.radd = lambda x, y: tuple([((c + d) % pa,) for (c,), (d,) in zip(x, y)])
        self.rsub = lambda x, y: tuple([((c - d) % pa,) for (c,), (d,) in zip(x, y)])
        self.rwscal = lambda x, w: tuple([((c * w[0]) % pa,) if c else (c,)
                                          for (c,) in x])

    def wpow(self, x, n: int):
        return _power(x, n, self.wmul, self.wone())

    def upow(self, n: int):
        """U^n for any integer n, from the field's table of U^-a .. U^a
        (2a + 1 entries, built with the field).  |n| > a takes a valuation
        past the precision and is powered on each call."""
        if -self.a <= n <= self.a:
            return self._upows[n + self.a]
        return self.wpow(self.U, n) if n > 0 else self.wpow(self.Uinv, -n)

    def _wval(self, x) -> int:
        """min(a, the least v_p of x's coordinates), read off their gcd."""
        c, v, p = math.gcd(*x), 0, self.p
        if not c:
            return self.a
        while c % p == 0:
            c //= p
            v += 1
        return v if v < self.a else self.a

    def winv(self, x):
        if self._wval(x) != 0:
            raise DivisionByZero("W element is not a unit")
        return self.rinv(self.rfromw(x))[0]

    def xi_pow(self, n: int):
        """xi^n, the Teichmuller lift of xi's residue to the n: memoized by
        n mod (q - 1), so at most q - 1 entries."""
        memo = self._caches.setdefault("teich", {})
        n %= self.q - 1
        if n not in memo:
            memo[n] = self.wpow(self.xi(), n)
        return memo[n]

    def _weval_poly(self, coeffs, x):
        """The integer polynomial coeffs (little-endian) at x, by Horner; on a
        W element's coordinates it substitutes x for the generator."""
        res = self.wzero()
        for c in reversed(coeffs):
            res = self.wadd(self.wmul(res, x), self.wint(c))
        return res

    def hensel_root(self, poly, r0):
        """Newton lift of a simple residue root r0 of the integer polynomial
        poly (little-endian) to the exact root in W."""
        dpoly = tuple((i * c) % self.pa for i, c in enumerate(poly))[1:]
        r = _newton(lambda r: self.wsub(r, self.wmul(
            self._weval_poly(poly, r), self.winv(self._weval_poly(dpoly, r)))),
            tuple(c % self.pa for c in r0), self.a)
        if self._weval_poly(poly, r) != self.wzero():
            raise InternalContradiction("Hensel lift did not converge to a root")
        return r

    def residue_roots(self, poly, count: int):
        """The first count roots in W of a primitive degree-d polynomial over
        F_p, d | f: its residue roots generate F_{p^d}^x, so they are among
        the xi^(j (q-1)/(p^d-1)), 0 < j < p^d, searched in order and lifted."""
        qd = self.p ** (len(poly) - 1)
        roots = []
        for j in range(1, qd):
            x = self.xi_pow(j * ((self.q - 1) // (qd - 1)))
            if not any(c % self.p for c in self._weval_poly(poly, x)):
                roots.append(self.hensel_root(poly, x))
                if len(roots) == count:
                    break
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

    def trace_w(self, x) -> int:
        return sum(map(mul, x, self._power_sums)) % self.pa

    # ------------------------------------------------------------- residue ops

    def res_of(self, x):
        return tuple(c % self.p for c in x)

    def int_to_res(self, n: int):
        out = []
        n %= self.q
        for _ in range(self.f):
            out.append(n % self.p)
            n //= self.p
        return tuple(out)

    def xi(self):
        """Canonical Teichmuller generator of the roots of unity mu_{q-1}:
        the generator's lift g^(q^(a+1)), the one such power a field takes."""
        if "xi" not in self._caches:
            g = (0, 1) + (0,) * (self.f - 2) if self.f > 1 else self.subres_generator(1)
            self._caches["xi"] = self.wpow(g, self.q ** (self.a + 1))
        return self._caches["xi"]

    def dlog_res(self, r) -> int:
        """Discrete log of a nonzero residue, or of its int_to_res code, to
        base the residue of xi: baby steps xi^j, j < m, then giant steps by
        xi^-m.  m = q - 1 up to q = 4096, so one table lookup; isqrt(q - 1)
        + 1 above."""
        r = self.int_to_res(r) if isinstance(r, int) else tuple(c % self.p for c in r)
        if not any(r):
            raise DivisionByZero("dlog of zero residue")
        n = self.q - 1
        if "dlogbaby" not in self._caches:
            m = n if self.q <= 4096 else math.isqrt(n) + 1
            xibar = list(self.res_of(self.xi()))
            baby, cur = {}, [1] + [0] * (self.f - 1)
            for j in range(m):
                baby[tuple(cur)] = j
                cur = _poly_mul_mod(cur, xibar, self.h, self.p)
            self._caches["dlogbaby"] = baby
            self._caches["dloggiant"] = _poly_pow_mod(xibar, n - m % n, self.h, self.p)
        baby, giant = self._caches["dlogbaby"], self._caches["dloggiant"]
        m, cur = len(baby), list(r)
        for i in range(n // m + 1):
            j = baby.get(tuple(cur))
            if j is not None:
                return (i * m + j) % n
            cur = _poly_mul_mod(cur, giant, self.h, self.p)
        raise DivisionByZero("dlog failed")

    # ------------------------------------------------------------------ R ops

    def rone(self):
        return (self.wone(),) + (self.wzero(),) * (self.e - 1)

    def rint(self, n: int):
        return (self.wint(n),) + (self.wzero(),) * (self.e - 1)

    def rfromw(self, w):
        return (w,) + (self.wzero(),) * (self.e - 1)

    def radd(self, x, y):
        pa = self.pa
        return tuple([tuple([(c + d) % pa for c, d in zip(a, b)])
                      for a, b in zip(x, y)])

    def rsub(self, x, y):
        pa = self.pa
        return tuple([tuple([(c - d) % pa for c, d in zip(a, b)])
                      for a, b in zip(x, y)])

    def rneg(self, x):
        pa = self.pa
        return tuple([tuple([-c % pa for c in a]) for a in x])

    def rscal(self, x, c: int):
        pa = self.pa
        return tuple([tuple([d * c % pa for d in a]) for a in x])

    def rwscal(self, x, w):
        return tuple([self.wmul(a, w) if any(a) else a for a in x])

    def rmul(self, x, y):
        e = self.e
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

    def rval(self, x, limit=INF):
        """Least position i + e v(x_i) of a nonzero digit, or None when there
        is none below limit.  Slot i sits at position i or later, so the
        scan stops at the first slot at or past the best position."""
        best, e, a = limit, self.e, self.a
        for i, w in enumerate(x):
            if i >= best:
                break
            v = self._wval(w)
            if v < a and i + e * v < best:
                best = i + e * v
        return None if best == limit else best

    def rshift_up(self, x, s: int):
        """Multiplication by pi^s, s >= 0: slot i moves to i + s, and each
        wrap past pi^e multiplies it by pU."""
        if s == 0:
            return x
        e = self.e
        qq, r = divmod(s, e)
        pws = self._upwpows
        lo, hi = x[: e - r], x[e - r:]
        if qq:
            lo = self.rwscal(lo, pws[min(qq, self.a)])
        return self.rwscal(hi, pws[min(qq + 1, self.a)]) + lo

    def rshift_out(self, x, s: int):
        """Exact division by pi^s when every digit below s vanishes.  The
        integer divisions by p come before the products by U^-1, in this
        order, as they fix the stored digits above the precision."""
        if s == 0:
            return x
        e = self.e
        qq, r = divmod(s, e)
        if qq:
            pq = self.p**qq
            x = self.rwscal([tuple([c // pq for c in w]) for w in x], self.upow(-qq))
        if r:
            p = self.p
            x = x[r:] + self.rwscal(
                tuple([tuple([c // p for c in w]) for w in x[:r]]), self.Uinv)
        return x

    def rinv(self, x):
        """x^-1 by Newton from the lift of the residue inverse x0bar^(q-2).

        The seed's error 1 - x y0 lies in P, so _newton to kint reaches
        P^kint = 0.  When x lies in W (x[1:] all zero), every iterate stays
        in W and the error lies in pW = P^e, so it lies in p^(2^j) W after j
        steps, which is zero from 2^j >= a on: _newton to a suffices.  The
        inverse is unique mod p^a, so both schedules give the same integers."""
        if self.rval(x) != 0:
            raise DivisionByZero("R element is not a unit")
        seed = _poly_pow_mod(self.res_of(x[0]), self.q - 2, self.h, self.p)
        two = self.rint(2)
        return _newton(lambda y: self.rmul(y, self.rsub(two, self.rmul(x, y))),
                       self.rfromw(tuple(seed)),
                       self.kint if any(map(any, x[1:])) else self.a)

    # --------------------------------------------------------------- elements

    def zero(self):
        return TowerElement(self, None, None, INF, INF)

    def zero_bounded(self, bound):
        return TowerElement(self, None, None, bound, bound)

    def make(self, v: int, core, prec, store) -> "TowerElement":
        """Normalize (v, core known mod pi^min(prec, store)) into an element."""
        eff, kint = store if store < prec else prec, self.kint
        eff = kint if kint < eff else eff
        s = self.rval(core, limit=eff)
        if s is None:
            return self.zero_bounded(v + eff)
        if s:
            core = self.rshift_out(core, s)
        store -= s
        return TowerElement(self, v + s, core, prec - s, kint if kint < store else store)

    def one(self):
        return TowerElement(self, 0, self.rone(), self.kint, self.kint)

    def from_int(self, n: int) -> "TowerElement":
        if n == 0:
            return self.zero()
        v, n = _vp(n, self.p)
        core = self.rwscal(self.rint(n), self.upow(-v))
        return TowerElement(self, v * self.e, core, self.kint, self.kint)

    def uniformizer(self) -> "TowerElement":
        return TowerElement(self, 1, self.rone(), self.kint, self.kint)

    def tau(self, n: int) -> "TowerElement":
        """The exact unit xi^n: Teichmuller units are named by exponent."""
        return TowerElement(self, 0, self.rfromw(self.xi_pow(n)), self.kint, self.kint)

    def teichmuller(self, res) -> "TowerElement":
        return self.tau(self.dlog_res(res))  # DivisionByZero if res is 0

    def monomial(self, res, v: int) -> "TowerElement":
        return self.teichmuller(res).shift(v)

    def from_digits(self, digits) -> "TowerElement":
        out = self.zero()
        for v, res in digits:
            if isinstance(res, int):
                res = self.int_to_res(res)
            if any(c % self.p for c in res):
                out = out + self.monomial(res, v)
        return out

    def random_unit(self, rng) -> "TowerElement":
        digits = [(0, rng.randrange(1, self.q))]
        digits += [(v, rng.randrange(self.q)) for v in range(1, self.k)]
        return self.from_digits(digits)

    # ---------------------------------------------------------------- exp/log

    def exp_principal(self, x: "TowerElement") -> "TowerElement":
        if not self.explog_ok:
            raise ExpLogRadius(f"p - 1 = {self.p - 1} <= e = {self.e}")
        if x.is_zero():
            return self.one() if x.prec is INF else self.one().cap_window(x.prec)
        if x.v < 1:
            raise ExpLogRadius("exp needs valuation >= 1")
        window = min(x.window(), self.kint)
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
                    if n * y.v - self.e * _vp(n, self.p)[0] < window), default=0)
        acc = power = self.zero()
        for n in range(1, last + 1):
            power = power * y if n > 1 else y
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
        self.prec = store if v is not None and store < prec else prec
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

    def _combine(self, other, sub: bool):
        """self - other if sub, else self + other: the cores aligned at the
        lower valuation, then one rsub or radd."""
        if other.__class__ is not TowerElement or other.field is not self.field:
            other = self._promote(other)
            if other is None:
                return NotImplemented
        F = self.field
        if self.v is None and other.v is None:
            return F.zero_bounded(min(self.prec, other.prec))
        if self.v is None:
            return (-other if sub else other).cap_window(self.prec)
        if other.v is None:
            return self.cap_window(other.prec)
        v1, v2 = self.v, other.v
        v0 = v2 if v2 < v1 else v1
        d1, d2 = v1 - v0, v2 - v0
        a, b = F.rshift_up(self.core, d1), F.rshift_up(other.core, d2)
        w1, w2 = self.prec + d1, other.prec + d2  # the windows less v0
        store = min(self.store + d1, other.store + d2, F.kint)
        core = F.rsub(a, b) if sub else F.radd(a, b)
        return F.make(v0, core, w2 if w2 < w1 else w1, store)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return TowerElement(self.field, self.v, self.field.rneg(self.core),
                            self.prec, self.store)

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not TowerElement or other.field is not self.field:
            other = self._promote(other)
            if other is None:
                return NotImplemented
        F = self.field
        if self.v is None or other.v is None:
            if self.is_exact_zero() or other.is_exact_zero():
                return F.zero()
            b1 = self.prec if self.is_zero() else self.v
            b2 = other.prec if other.is_zero() else other.v
            return F.zero_bounded(b1 + b2)
        p1, p2, s1, s2 = self.prec, other.prec, self.store, other.store
        return TowerElement(F, self.v + other.v, F.rmul(self.core, other.core),
                            p2 if p2 < p1 else p1, s2 if s2 < s1 else s1)

    __rmul__ = __mul__

    def inv(self) -> "TowerElement":
        if self.is_zero():
            raise DivisionByZero("inverse of (certified) zero")
        F = self.field
        return TowerElement(F, -self.v, F.rinv(self.core), self.prec, self.store)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, mul, self.field.one())

    def shift(self, v: int) -> "TowerElement":
        """Multiply by pi^v (any sign)."""
        if self.is_zero():
            return self.field.zero_bounded(self.prec + v) if self.prec is not INF else self
        return TowerElement(self.field, self.v + v, self.core, self.prec, self.store)

    def div_int(self, n: int) -> "TowerElement":
        if n == 0:
            raise DivisionByZero("division by integer zero")
        F = self.field
        s, n = _vp(n, F.p)
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
        core = F.rwscal(self.core, F.upow(s))
        return TowerElement(F, self.v - s * F.e, core,
                            self.prec, self.store - max(s, 0) * F.e)

    # ---- structure

    def residue(self):
        if self.is_zero():
            raise DivisionByZero("residue of zero")
        return self.field.res_of(self.core[0])

    def principal_split(self):
        """For a unit u: (n, u1) with u = tau(n) u1 and u1 in 1 + P, where
        n is the dlog of u's residue, so u1 = u * xi^(-n)."""
        if self.is_zero() or self.v != 0:
            raise ConfigError("principal split needs a unit (valuation 0)")
        n = self.field.dlog_res(self.residue())
        return n, self * self.field.tau(-n)

    def eq_mod(self, other, m: int) -> bool:
        """Equality modulo pi^m; raises PrecisionLoss if undecidable."""
        d = self - other
        if d.is_zero():
            if d.prec >= m:
                return True
            raise PrecisionLoss(f"equal mod pi^{d.prec}, need pi^{m}")
        return d.v >= m

    def __eq__(self, other):
        d = self._combine(other, True)
        return d if d is NotImplemented else d.is_zero()

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
        """The unit's stored ints as kept, digits above the certified window
        and above `store` included, so the bytes follow how x was computed."""
        if self.is_zero():
            return {"zero_mod": None if self.prec is INF else self.prec}
        return {"valuation": self.v, "unit": [list(w) for w in self.core],
                "prec": self.prec}


@lru_cache(maxsize=None)
def _tower_cached(p: int, steps: tuple, k: int, sw) -> TowerField:
    return TowerField(p, steps, k, sw)


def make_tower(p: int, steps, k: int,
               series_window: int | None = None) -> TowerField:
    """Construct (and memoize) a tame tower over the p-adic prime field.

    Raises WildRamification if p divides a tamely ramified step's degree.
    Towers whose ramification reaches p - 1 are built with exp/log disabled,
    which is what compositum fields need.  series_window caps the exp/log
    series depth (and so the storage headroom) below the ring precision.
    """
    return _tower_cached(p, tuple(steps), k, series_window)
