"""Exact arithmetic in cyclotomic integer rings, with a formal half-power of q.

Values of all characters, Gauss sums and epsilon factors live here.  A
CycNumber is an element of Z[zeta_M]; a ScaledCyc additionally carries an
integer exponent of the formal scalar q^(1/2).

Internally an element is stored over the tensor basis of Z[zeta_M] =
(x) Z[zeta_{l^a}] over the prime powers l^a || M, with the power basis
{zeta_{l^a}^j : 0 <= j < phi(l^a)} in each factor.  This basis is canonical,
so equality is dictionary equality after lifting to a common modulus, and
reducing a single monomial costs at most l-1 terms per prime factor.  The
expansion of each root zeta_M^k is memoized, at most 1024 (M, k) entries
with the least recently used evicted; root and from_root_sum share it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, neg

from .errors import CapacityError, NotInvertible

_MAX_MODULUS = 10**9  # lifting beyond this is almost certainly a bug


@lru_cache(maxsize=None)
def _factorize(m: int):
    """Prime-power factorization of m as a tuple of (l, a, l^a, phi(l^a))."""
    if m < 1:
        raise ValueError("modulus must be positive")
    out = []
    n = m
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            la = 1
            while n % d == 0:
                n //= d
                a += 1
                la *= d
            out.append((d, a, la, la - la // d))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1, n, n - 1))
    return tuple(out)


def _vp(n: int, p: int):
    """(v, n / p^v) for a nonzero integer n and p > 1, v the largest with
    p^v | n (v_p(n) for a prime p)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


@lru_cache(maxsize=None)
def _crt_units(m: int):
    """Per-factor data (la, phi, v) with v = inv(m/la) mod la, for exponent splitting."""
    fact = _factorize(m)
    out = []
    for (_l, _a, la, phi) in fact:
        v = pow(m // la, -1, la) if la > 1 else 0
        out.append((la, phi, v))
    return tuple(out)


def _expand(js, fact):
    """The monomial with per-axis exponents js (any integers, read mod l^a)
    over the tensor basis, as a list of (key, sign): the one expansion behind
    products, conjugates and roots.  An axis exponent j >= phi(l^a) takes
    one step of zeta^(phi+t) = -sum_{s<l-1} zeta^(t + s l^(a-1)), as
    t = j - phi < l^(a-1)."""
    out = [((), 1)]
    for j, (l, _a, la, phi) in zip(js, fact):
        j %= la
        red = ([(j, 1)] if j < phi else
               [(j - phi + s * (la // l), -1) for s in range(l - 1)])
        out = [(key + (jj,), c * s) for (key, c) in out for (jj, s) in red]
    return out


@lru_cache(maxsize=1024)
def _root_key_terms(m: int, k: int):
    """zeta_m^k (0 <= k < m) over the tensor basis, as a tuple of distinct
    (key, sign).  Bounded at 1024 entries: one rank-1 scan reads 28 (M, k)
    pairs and one coset-product scan 91; the oracle's slow path, which reads
    one per unit, evicts."""
    return tuple(_expand([k * v for _la, _phi, v in _crt_units(m)],
                         _factorize(m)))


class CycNumber:
    """Element of Z[zeta_M] in canonical tensor form."""

    __slots__ = ("modulus", "terms")

    def __init__(self, modulus: int, terms: dict):
        self.modulus = modulus
        self.terms = terms  # dict key-tuple -> nonzero int

    # -- construction -----------------------------------------------------

    @classmethod
    def integer(cls, n: int, modulus: int = 1) -> "CycNumber":
        key = tuple(0 for _ in _factorize(modulus))
        return cls(modulus, {key: n} if n else {})

    @classmethod
    def zero(cls, modulus: int = 1) -> "CycNumber":
        return cls.integer(0, modulus)

    @classmethod
    def one(cls, modulus: int = 1) -> "CycNumber":
        return cls.integer(1, modulus)

    @classmethod
    def root(cls, modulus: int, k: int = 1) -> "CycNumber":
        """Canonical representation of zeta_M^k."""
        return cls(modulus, dict(_root_key_terms(modulus, k % modulus)))

    @classmethod
    def from_root_sum(cls, modulus: int, items) -> "CycNumber":
        """Sum of coeff * zeta_M^exponent over (exponent, coeff) pairs."""
        terms: dict = {}
        for k, c in items:
            if not c:
                continue
            for key, s in _root_key_terms(modulus, k % modulus):
                nc = terms.get(key, 0) + c * s
                if nc:
                    terms[key] = nc
                else:
                    terms.pop(key, None)
        return cls(modulus, terms)

    @classmethod
    def from_counts(cls, modulus: int, counts) -> "CycNumber":
        """Sum of counts[r, b] * zeta_m1^r zeta_m2^b over an integer table of
        shape (m1, m2), m1 m2 = M, gcd(m1, m2) = 1; a 1-D array is m2 = 1.

        from_root_sum for dense histograms, vectorized over each prime-power
        axis: the CRT split puts zeta_M^(r m2 + b m1) at the tensor index
        (r m2 v mod l^a)_l for l^a | m1 and (b m1 v mod l^a)_l for l^a | m2,
        one index vector of length m1 or m2 per axis.  Each axis then folds
        its top l^(a-1) slots by zeta^(phi+t) = -sum_s zeta^(t + s l^(a-1)),
        as _expand does."""
        import numpy as np  # only the oracle sums counts, so import it here
        counts = np.asarray(counts).reshape(len(counts), -1)
        m1, m2 = counts.shape
        if m1 * m2 != modulus or math.gcd(m1, m2) != 1:
            raise ValueError(f"count table {m1} x {m2} does not split {modulus}")
        fact = _factorize(modulus)
        if not fact:  # Z[zeta_1] = Z: no axis to index
            return cls.integer(int(counts.sum()))
        r, b = np.ogrid[:m1, :m2]
        arr = np.zeros([la for _l, _a, la, _phi in fact], dtype=np.int64)
        arr[tuple(r * (m2 * v % la) % la if m1 % la == 0 else
                  b * (m1 * v % la) % la
                  for la, _phi, v in _crt_units(modulus))] = counts
        for ax, (l, _a, _la, phi) in enumerate(fact):
            low, top = np.split(arr, [phi], axis=ax)
            arr = low - np.concatenate([top] * (l - 1), axis=ax)
        keys = map(tuple, np.argwhere(arr).tolist())
        return cls(modulus, dict(zip(keys, arr[arr != 0].tolist())))

    # -- modulus handling --------------------------------------------------

    def lift(self, modulus: int) -> "CycNumber":
        """Rewrite over Z[zeta_modulus]; self.modulus must divide modulus."""
        if modulus == self.modulus:
            return self
        if modulus % self.modulus:
            raise ValueError("can only lift to a multiple of the modulus")
        if modulus > _MAX_MODULUS:
            raise CapacityError(f"modulus lift to {modulus} exceeds capacity")
        old = _factorize(self.modulus)
        new = _factorize(modulus)
        # basis monomials stay basis monomials under exponent scaling
        plan = []  # per new factor: (old-index or None, scale)
        oi = {l: (i, a) for i, (l, a, _la, _phi) in enumerate(old)}
        for (l, a, _la, _phi) in new:
            if l in oi:
                i, aold = oi[l]
                plan.append((i, l ** (a - aold)))
            else:
                plan.append((None, 1))
        terms = {}
        for key, c in self.terms.items():
            nk = tuple(0 if i is None else key[i] * sc for (i, sc) in plan)
            terms[nk] = c
        return CycNumber(modulus, terms)

    def _common(self, other: "CycNumber"):
        m = math.lcm(self.modulus, other.modulus)
        return self.lift(m), other.lift(m)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = CycNumber.integer(other, self.modulus)
        a, b = self._common(other)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            nc = terms.get(k, 0) + c
            if nc:
                terms[k] = nc
            else:
                terms.pop(k, None)
        return CycNumber(a.modulus, terms)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.modulus, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycNumber.integer(other, self.modulus)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return CycNumber.zero(self.modulus)
            return CycNumber(self.modulus,
                             {k: c * other for k, c in self.terms.items()})
        a, b = self._common(other)
        fact = _factorize(a.modulus)
        terms: dict = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                c = c1 * c2
                for key, s in _expand(map(add, k1, k2), fact):
                    nc = terms.get(key, 0) + c * s
                    if nc:
                        terms[key] = nc
                    else:
                        terms.pop(key, None)
        return CycNumber(a.modulus, terms)

    __rmul__ = __mul__

    def conj(self) -> "CycNumber":
        """Complex conjugation: every root of unity to its inverse."""
        fact = _factorize(self.modulus)
        terms: dict = {}
        for key, c in self.terms.items():
            for k2, s in _expand(map(neg, key), fact):
                nc = terms.get(k2, 0) + c * s
                if nc:
                    terms[k2] = nc
                else:
                    terms.pop(k2, None)
        return CycNumber(self.modulus, terms)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_int(self):
        """The value as a plain integer, or None if it is not rational."""
        if not self.terms:
            return 0
        if len(self.terms) != 1:
            return None
        key, c = next(iter(self.terms.items()))
        return c if all(j == 0 for j in key) else None

    def __eq__(self, other):
        if isinstance(other, int):
            return self.as_int() == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._common(other)
        return a.terms == b.terms

    def __hash__(self):
        raise TypeError("CycNumber is not hashable")

    # -- output ----------------------------------------------------------------

    def to_pairs(self):
        """Sorted (exponent-of-zeta_M, coefficient) pairs, canonical form.

        The tensor monomial with exponents (j_l) is zeta_M^k for
        k = sum j_l * (M / l^a): indeed k * inv(M/l^a) = j_l mod l^a."""
        m = self.modulus
        fact = _factorize(m)
        pairs = []
        for key, c in self.terms.items():
            k = 0
            for j, (_l, _a, la, _phi) in zip(key, fact):
                k = (k + j * (m // la)) % m
            pairs.append((k, c))
        return sorted(pairs)

    def __repr__(self):
        pairs = self.to_pairs()
        if not pairs:
            return "Cyc(0)"
        body = " + ".join(
            (f"{c}" if k == 0 else f"{c}*z{self.modulus}^{k}") for k, c in pairs[:6]
        )
        if len(pairs) > 6:
            body += f" + ... ({len(pairs)} terms)"
        return f"Cyc[{self.modulus}]({body})"


def _sqrt(q: int) -> CycNumber:
    """The positive square root of an odd q in Z[zeta_4q]: per prime power
    p^f || q, p^(f // 2), times sqrt(p) for odd f.  sqrt(p) = g_p for
    p = 1 mod 4 and -i g_p for p = 3 mod 4, g_p = sum (a/p) zeta_p^a the
    quadratic Gauss sum, whose sign Gauss determined (Ireland and Rosen,
    ch. 6)."""
    if q % 2 == 0:
        raise ValueError(f"q = {q} is even")
    out = CycNumber.one()
    for p, f, _pf, _phi in _factorize(q):
        out = out * p ** (f // 2)
        if f % 2:
            g = CycNumber.from_root_sum(p, (
                (a, 1 if pow(a, p // 2, p) == 1 else -1) for a in range(1, p)))
            out = out * (g if p % 4 == 1 else g * CycNumber.root(4, 3))
    return out


class ScaledCyc:
    """A cyclotomic integer times q^(qhalf/2), q the relevant residue size."""

    __slots__ = ("num", "qhalf", "q")

    def __init__(self, num: CycNumber, qhalf: int = 0, q: int = 1):
        self.num = num
        self.qhalf = qhalf
        self.q = q

    @classmethod
    def one(cls, q: int = 1) -> "ScaledCyc":
        return cls(CycNumber.one(), 0, q)

    def _check_q(self, other: "ScaledCyc"):
        if self.q != other.q and not (self.num.is_zero() or other.num.is_zero()):
            if self.q != 1 and other.q != 1:
                raise ValueError("mixing ScaledCyc values over different q")

    def __mul__(self, other):
        if isinstance(other, (int, CycNumber)):
            return ScaledCyc(self.num * other, self.qhalf, self.q)
        self._check_q(other)
        q = self.q if self.q != 1 else other.q
        return ScaledCyc(self.num * other.num, self.qhalf + other.qhalf, q)

    __rmul__ = __mul__

    def conj(self) -> "ScaledCyc":
        return ScaledCyc(self.num.conj(), self.qhalf, self.q)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ScaledCyc):
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return self.num.is_zero() and other.num.is_zero()
        self._check_q(other)
        q = self.q if self.q != 1 else other.q
        d = self.qhalf - other.qhalf
        if d % 2 == 0:
            # fold the integer power of q into the numerator with lower shift
            if d >= 0:
                return self.num * q ** (d // 2) == other.num
            return self.num == other.num * q ** ((-d) // 2)
        # mismatched parity: the lower side takes one exact factor sqrt(q)
        if d > 0:
            return self.num * _sqrt(q) * q ** (d // 2) == other.num
        return self.num == other.num * _sqrt(q) * q ** ((-d) // 2)

    def __hash__(self):
        raise TypeError("ScaledCyc is not hashable")

    def invert(self) -> "ScaledCyc":
        """Exact inverse, licensed by |num|^2 being a plain power of q (so 1
        when q = 1)."""
        nn = self.num * self.num.conj()
        c = nn.as_int()
        if c is None or c <= 0:
            raise NotInvertible("numerator modulus squared is not a q-power")
        m, c = _vp(c, self.q) if self.q > 1 else (0, c)
        if c != 1:
            raise NotInvertible("numerator modulus squared is not a q-power")
        return ScaledCyc(self.num.conj(), -self.qhalf - 2 * m, self.q)

    def __truediv__(self, other: "ScaledCyc") -> "ScaledCyc":
        return self * other.invert()

    def approx(self) -> complex:
        """The complex value at the principal root zeta_M = e^(2 pi i / M),
        at 80 bits; only reports render it, so mpmath is imported here."""
        import mpmath
        with mpmath.workprec(80):
            total = mpmath.mpc(0)
            m = self.num.modulus
            for k, c in self.num.to_pairs():
                total += c * mpmath.e ** (2j * mpmath.pi * k / m)
            scale = mpmath.mpf(self.q) ** (mpmath.mpf(self.qhalf) / 2)
            return complex(total * scale)

    def serialize(self) -> dict:
        v = self.approx()
        return {
            "modulus": self.num.modulus,
            "coeffs": [[k, c] for k, c in self.num.to_pairs()],
            "qhalf": self.qhalf,
            "q": self.q,
            "complex": [f"{v.real:.15g}", f"{v.imag:.15g}"],
        }

    def __repr__(self):
        return f"ScaledCyc({self.num!r}, q^{self.qhalf}/2, q={self.q})"
