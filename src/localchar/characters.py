"""Additive and multiplicative characters of tame towers.

The additive character of a tower T is psi_T = psi_F o tr_{T/F}, with psi_F
the fixed level-1 character of the prime field whose values are the canonical
p-power roots of unity of the value ring.

A multiplicative character is parametrized along T^x = pi^Z x mu_{q-1} x
(1+P): a root-of-unity value at the canonical uniformizer, an exponent on
Teichmuller units, and a principal-unit parameter gamma with
theta(exp y) = psi_T(gamma * y).  Since log is an isomorphism on fields with
p - 1 > e, the parametrization is exhaustive there.  On larger-ramification
fields (compositum fields) characters are carried in factored form: a product
of parametrized characters pulled back through norms to subfields; all
layer identities are evaluated through the norms, never through exp/log.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .cyclotomic import CycNumber
from .errors import (
    ConductorTooSmall,
    ConfigError,
    NotAdmissible,
    PrecisionLoss,
)
from .embeddings import EmbeddingMap, Subfield, enumerate_subfields, self_subfield
from .localfield import TowerElement, TowerField


class AddChar:
    """The canonical level-1 additive character of a tower."""

    def __init__(self, field: TowerField):
        self.field = field

    def __repr__(self):
        return f"AddChar({self.field!r})"

    def exponent(self, x: TowerElement):
        """(k, p^m) with psi(x) = zeta_{p^m}^k.  Needs x certified mod P^1."""
        pairs, window = self.field.trace_digits(x)
        _needs_p1(window)
        return self.digit_exponent(*(pairs[0] if pairs else (0, 0)))

    def digit_exponent(self, m: int, c: int):
        """psi_F(c p^m) for a trace digit c mod p^a, as exponent gives it:
        (c mod p^(1-m), p^(1-m)) if m <= 0 and c != 0 mod p^a, else (0, p)."""
        p, c = self.field.p, c % self.field.pa
        if m > 0 or c == 0:
            return 0, p
        return c % p ** (1 - m), p ** (1 - m)

    def trace_form(self, x: TowerElement, v: int, slots: int | None = None):
        """(m, form) for a fixed x: for every y of valuation v, the one trace
        digit of x y that psi reads (tr(pi^i w) = 0 unless e | i) is
        sum(coords(y) * form) mod p^a at p^m, coords(y) the e f ints of
        y.core; pi^e = U p and trace_digits' U^m are built in.  The form
        covers y's first `slots` core slots (f ints each), all e by default."""
        F, e, f = self.field, self.field.e, self.field.f
        slots = e if slots is None else slots
        if x.is_zero():  # a log at or past its window: the digit is 0
            return 1, (0,) * (slots * f)
        i0 = -(x.v + v) % e
        m = (x.v + v + i0) // e
        um = F.wpow(F.U, m) if m >= 0 else F.wpow(F.Uinv, -m)
        basis = [tuple(int(i == l) for i in range(f)) for l in range(f)]
        form = []
        for k in range(slots):  # slot k of y meets slot i0 - k of x
            w = x.core[i0 - k] if k <= i0 else F.wmul(x.core[i0 + e - k], F.Upw)
            w = F.wmul(w, um)
            form += [e * F.trace_w(F.wmul(w, b)) % F.pa for b in basis]
        return m, tuple(form)

    def log_row(self, y: TowerElement, n: int, window, teich: bool = True):
        """[exponent(y lg) for lg in principal_logs(n, window, teich)], from
        lg's trace forms at v(y), memoized in the field's caches: one entry
        per (n, window, teich, v(y)), q - 1 (m, form) pairs of e f ints."""
        F = self.field
        logs = F.principal_logs(n, window, teich)
        memo = F._caches.setdefault("plog_forms", {})
        key = (n, window, teich, y.v)
        if key not in memo:
            memo[key] = tuple(self.trace_form(lg, y.v) for lg in logs)
        ys = [c for w in y.core for c in w]
        out = []
        for lg, (m, form) in zip(logs, memo[key]):
            lo = lg.prec if lg.v is None else lg.v  # v(lg), or a zero's bound
            _needs_p1(min(lg.window() + y.v, y.window() + lo))  # y lg's window
            out.append(self.digit_exponent(m, sum(map(mul, form, ys))))
        return out

    def eval(self, x: TowerElement) -> CycNumber:
        z, mod = self.exponent(x)
        return CycNumber.root(mod, z)


def _needs_p1(window):
    if window < 1:
        raise PrecisionLoss("additive character needs the element mod P^1")


@lru_cache(maxsize=None)
def make_psi(field: TowerField) -> AddChar:
    """psi_T = psi_F o tr_{T/F}; level 1 on every tame tower."""
    return AddChar(field)


class MulChar:
    """Structured character of T^x.

    Parametric form: fields (w, t, gamma), with w = (z, m) the exponent pair
    of the uniformizer value theta(pi) = zeta_m^z (0 <= z < m; m is the
    modulus the value carries into eval); factored form: a tuple of
    (Subfield handle, parametric MulChar) whose norm pullbacks multiply to
    the character.
    """

    __slots__ = ("field", "w", "t", "gamma", "parts", "_gamma_cache")

    def __init__(self, field: TowerField, w=None, t: int = 0, gamma=None,
                 parts=None):
        self.field = field
        self.parts = parts
        self._gamma_cache = None
        if parts is not None:
            self.w = None
            self.t = 0
            self.gamma = None
            return
        if not field.explog_ok:
            raise ConfigError(
                "parametric characters need p - 1 > e; use factored form")
        z, m = w if w is not None else (0, 1)
        self.w = (z % m, m)
        self.t = t % (field.q - 1)
        if gamma is not None:
            gamma = gamma.cap_window(0)
            if gamma.is_zero():
                gamma = None
            elif gamma.v > -1:
                gamma = None
        self.gamma = gamma

    def __repr__(self):
        if self.parts is not None:
            return f"MulChar(factored, {len(self.parts)} parts on {self.field!r})"
        g = "0" if self.gamma is None else f"val {self.gamma.v}"
        return f"MulChar({self.field!r}, t={self.t}, gamma={g})"

    def is_factored(self) -> bool:
        return self.parts is not None

    # ------------------------------------------------------------- evaluation

    def eval(self, x: TowerElement) -> CycNumber:
        return eval_many((self,), x)[0]

    # ------------------------------------------------------------- invariants

    def gamma_full(self):
        """The principal-unit parameter; for factored characters the exact sum
        of the embedded parameters of the parts."""
        if self.parts is None:
            return self.gamma
        if self._gamma_cache is None:
            total = self.field.zero()
            for handle, chi in self.parts:
                if chi.gamma is not None:
                    total = total + handle.emb.apply(chi.gamma)
            self._gamma_cache = total.cap_window(0)
        g = self._gamma_cache
        return None if g.is_zero() else g

    def conductor(self) -> int:
        g = self.gamma_full()
        if g is not None:
            return 1 - g.v
        if self.parts is not None:
            return 1 if self._factored_tame_nontrivial() else 0
        return 1 if self.t % (self.field.q - 1) else 0

    def _factored_tame_nontrivial(self) -> bool:
        F = self.field
        gen = F.teichmuller(F.res_of(F.xi()))
        z, m = char_exponents((self,), gen)[0]
        return z % m != 0

    def standard_rep(self) -> TowerElement:
        """The monomial tau(r) pi^(1-c) representing the top layer."""
        c = self.conductor()
        if c < 2:
            raise ConductorTooSmall("standard representative needs conductor >= 2")
        g = self.gamma_full()
        return self.field.monomial(g.residue(), g.v)

    def c_rep(self) -> TowerElement:
        """Canonical exact representative of c_theta: the parameter truncated
        to the window [1-f, 1-r), r = floor((f+1)/2).  theta(1+x) = psi(c x)
        for x in P^r."""
        f = self.conductor()
        if f < 2:
            raise ConductorTooSmall("c_theta needs conductor >= 2")
        r = (f + 1) // 2
        return truncate_to(self.gamma_full(), 1 - r)

    # ------------------------------------------------------------- group ops

    def mul(self, other: "MulChar") -> "MulChar":
        if self.field is not other.field:
            raise ConfigError("characters on different fields")
        if self.parts is None and other.parts is None:
            g1, g2 = self.gamma, other.gamma
            if g1 is None:
                g = g2
            elif g2 is None:
                g = g1
            else:
                g = g1 + g2
            return MulChar(self.field, _add_exponents(*self.w, *other.w),
                           self.t + other.t, g)
        return MulChar(self.field, parts=_as_parts(self) + _as_parts(other))

    def inv(self) -> "MulChar":
        if self.parts is None:
            g = None if self.gamma is None else -self.gamma
            return MulChar(self.field, (-self.w[0], self.w[1]), -self.t, g)
        return MulChar(self.field,
                       parts=tuple((h, c.inv()) for h, c in self.parts))

    def __mul__(self, other):
        return self.mul(other)

    def is_trivial_params(self) -> bool:
        return (self.parts is None and self.w[0] == 0 and
                self.t % (self.field.q - 1) == 0 and self.gamma is None)

    def equals(self, other: "MulChar") -> bool:
        """Exact equality of parametric characters."""
        if self.parts is not None or other.parts is not None:
            raise ConfigError("equality only for parametric characters")
        if self.field is not other.field:
            return False
        if not same_root(self.w, other.w):
            return False
        if (self.t - other.t) % (self.field.q - 1):
            return False
        d = self.mul(other.inv())
        return d.gamma is None


def _add_exponents(z1: int, m1: int, z2: int, m2: int):
    """zeta_m1^z1 * zeta_m2^z2 as (z, lcm(m1, m2))."""
    m = math.lcm(m1, m2)
    return (z1 * (m // m1) + z2 * (m // m2)) % m, m


def same_root(a, b) -> bool:
    """Whether the exponent pairs a = (z1, m1), b = (z2, m2) name the same
    root of unity, zeta_m1^z1 = zeta_m2^z2."""
    return (a[0] * b[1] - b[0] * a[1]) % (a[1] * b[1]) == 0


def char_exponents(chars, x: TowerElement):
    """(z, m) per character of x's field, with chi(x) = zeta_m^z.

    The shared evaluation.  With x = pi^v u, parametric characters share one
    principal_split of the unit u = tau(r) u1 and one log_principal(u1) per
    window max(conductor, 1) (its own window, as AddChar.exponent's modulus
    reads digits above it; twins share theirs); each adds its principal and
    tame exponents and, when v != 0, v times its uniformizer exponent w.  A
    factored character adds its parts' exponents at the norms of u and, when
    v != 0, v times their exponents at the norms of pi, so the norms see
    only units.  m is the modulus of the value's CycNumber: it takes the lcm
    with the uniformizer exponent's modulus exactly when v != 0.
    PrecisionLoss when u1 is certified below a conductor."""
    if x.is_zero():
        raise ConfigError("character of zero")
    F = x.field
    v = x.v
    unit = TowerElement(F, 0, x.core, x.prec, x.store) if v else x
    split = None
    logs = {}
    out = []
    for chi in chars:
        if chi.parts is not None:
            z, m = 0, 1
            for handle, part in chi.parts:
                z, m = _add_exponents(
                    z, m, *char_exponents((part,), handle.norm(unit))[0])
                if v:
                    npi = handle.emb.generator_norms()[0]
                    zp, mp = char_exponents((part,), npi)[0]
                    z, m = _add_exponents(z, m, zp * v, mp)
            out.append((z, m))
            continue
        if split is None:
            split = unit.principal_split()
        r, u1 = split
        c = max(chi.conductor(), 1)
        if u1.prec < c:
            raise PrecisionLoss(
                f"need the argument mod P^{c} relative; have {u1.prec}")
        z, m = 0, 1
        if chi.gamma is not None:
            if c not in logs:
                logs[c] = F.log_principal(u1, window=c)
            z, m = make_psi(F).exponent(chi.gamma * logs[c])
        if chi.t:
            z, m = _add_exponents(z, m, chi.t * F.dlog_res(r), F.q - 1)
        if v:
            zw, mw = chi.w
            z, m = _add_exponents(z, m, zw * v, mw)
        out.append((z, m))
    return out


def eval_many(chars, x: TowerElement) -> list:
    """[chi(x) for chi in chars]: the roots of unity named by
    char_exponents.  MulChar.eval is the one-character case."""
    return [CycNumber.root(m, z) for z, m in char_exponents(chars, x)]


def tame_exponent(chi: MulChar, u: TowerElement, n: int) -> int:
    """t with chi(u) = zeta_n^t for a unit u, read from its unit exponent;
    ConfigError when chi(u) is not an n-th root of unity."""
    z, m = char_exponents((chi,), u)[0]
    if z * n % m:
        raise ConfigError("value is not a root of unity of the expected order")
    return z * n // m % n


def _as_parts(chi: MulChar):
    if chi.parts is not None:
        return tuple(chi.parts)
    return ((self_subfield(chi.field), chi),)


def truncate_to(x: TowerElement, hi: int) -> TowerElement:
    """Exact canonical representative of x modulo pi^hi (digits >= hi zeroed)."""
    F = x.field
    if x.is_zero():
        return F.zero()
    if x.window() < hi:
        raise PrecisionLoss("cannot truncate beyond the certified window")
    core = []
    for i, w in enumerate(x.core):
        levels = hi - x.v - i
        m = max(0, min(-(-levels // F.e), F.a))
        pm = F.p**m
        core.append(tuple(c % pm for c in w))
    return F.make(x.v, tuple(core), F.kint, F.kint)


def pullback(chi: MulChar, K: TowerField, emb: EmbeddingMap) -> MulChar:
    """chi o N_{K/S} through the embedding emb: S -> K.

    Returns a parametric character when K supports exp/log (the parameter is
    the embedded parameter of chi: gamma is preserved), otherwise the
    factored form."""
    S = chi.field
    if emb.src is not S or emb.dst is not K:
        raise ConfigError("embedding does not match the inflation")
    if chi.parts is not None:
        return MulChar(K, parts=tuple(
            (Subfield(h.S, K, h.emb.compose(emb)), c) for h, c in chi.parts))
    if not K.explog_ok:
        return MulChar(K, parts=((Subfield(S, K, emb), chi),))
    npi, ngen = emb.generator_norms()
    w_new = char_exponents((chi,), npi)[0]
    t_new = tame_exponent(chi, ngen, K.q - 1) if chi.t else 0
    g_new = None if chi.gamma is None else emb.apply(chi.gamma)
    return MulChar(K, w_new, t_new, g_new)


# ----------------------------------------------------------------- lattices


@lru_cache(maxsize=None)
def subfield_lattice(field: TowerField):
    return tuple(enumerate_subfields(field))


def handle_contains(big: Subfield, small: Subfield) -> bool:
    """Whether the image of `small` lies inside the image of `big` (both
    subfields of the same top field)."""
    if big.T is not small.T:
        raise ConfigError("handles over different top fields")
    if small.S.degree == 1:
        return True
    gens = [small.emb.pi_img]
    if small.S.f > 1:
        gens.append(small.emb.x_img)
    return all(big.in_image(g)[0] for g in gens)


# -------------------------------------------------------------- admissibility


def _tame_norm_kernel_trivial(chi: MulChar, sub: Subfield) -> bool:
    """Is chi trivial on the Teichmuller part of ker N_{E/S}?

    The norm sends tau(xi^j) to tau(xi^(j rel)) with
    rel = e(E/S) (q_E - 1)/(q_S - 1), so the kernel is generated by
    xi^((q_E - 1)/gcd(rel, q_E - 1))."""
    E = chi.field
    n = E.q - 1
    rel = (E.e // sub.S.e) * ((E.q - 1) // (sub.S.q - 1))
    g = n // math.gcd(rel, n)
    return (chi.t * g) % n == 0


def _principal_factors_through(chi: MulChar, sub: Subfield) -> bool:
    """Does chi restricted to 1 + P come via the norm from sub?

    Equivalent (by duality of the trace pairing) to gamma lying in
    S + O_E."""
    g = chi.gamma_full()
    if g is None:
        return True
    m = 0
    y = g
    if g.v < 0:
        m = (-g.v + chi.field.e - 1) // chi.field.e
        y = g.div_p(-m)
    coeffs = sub.decompose(y)
    proj = sub.emb.apply(coeffs[0]).div_p(m)
    diff = (g - proj).cap_window(0)
    return diff.is_zero()


def _full_factors_through(chi: MulChar, sub: Subfield) -> bool:
    return (_tame_norm_kernel_trivial(chi, sub)
            and _principal_factors_through(chi, sub))


def is_admissible(chi: MulChar) -> bool:
    """Admissibility over the prime field: the character does not factor
    through the norm from a proper subfield, and wherever its principal-unit
    restriction does factor, the corresponding extension is unramified."""
    E = chi.field
    subs = subfield_lattice(E)
    for sub in subs:
        if sub.S.degree == E.degree:
            continue
        if _full_factors_through(chi, sub):
            return False
        if E.e // sub.S.e > 1 and _principal_factors_through(chi, sub):
            return False
    return True


# ----------------------------------------------------------- Howe factoring


def _minimal_subfield_containing(E: TowerField, elems, lower: Subfield):
    """Smallest subfield handle containing every element and the handle
    `lower` (subfields come sorted by degree)."""
    for sub in subfield_lattice(E):
        if not handle_contains(sub, lower):
            continue
        if all(sub.in_image(x)[0] for x in elems):
            return sub
    raise ConfigError("no subfield contains the data (lattice incomplete?)")


def howe_factorize(chi: MulChar):
    """Factor an admissible character as chi0 * prod phi_k o N.

    Returns (chi0 on the prime field, [(Subfield handle F_k, phi_k)]) with
    the tower strictly increasing, inflation conductors strictly decreasing,
    each phi_k generic relative to the previous field, and the product of
    the pullbacks equal to the input exactly.  Representatives are
    normalized: every phi_k except the last has trivial uniformizer value
    and tame part.  NotAdmissible when the structure is violated.
    """
    E = chi.field
    base = _prime_handle(E)
    work = chi
    factors = []
    prev = base
    prev_cond = None
    while True:
        f = work.conductor()
        if prev_cond is not None and f >= prev_cond:
            raise NotAdmissible("conductor chain failed to decrease")
        if f >= 2:
            gm = work.standard_rep()
            sub = _minimal_subfield_containing(E, [gm], prev)
            if sub.S.degree == E.degree:
                factors.append((self_subfield(E), work))
                chi0 = MulChar(base.S, None, 0, None)
                return chi0, factors
            prev_cond = f
            gam = sub.project(gm)
            while True:
                phi = MulChar(sub.S, None, 0, gam)
                rest = work.mul(pullback(phi, E, sub.emb).inv())
                fr = rest.conductor()
                if fr < 2:
                    break
                nxt = rest.standard_rep()
                ok, pre = sub.in_image(nxt)
                if not ok:
                    break
                gam = gam + pre
            factors.append((sub, phi))
            work = rest
            prev = sub
            continue
        # factors are appended only for proper subfields (the full field
        # returns above), so a tame stage means the chain never reached E
        raise NotAdmissible(
            "factorization tower did not reach the full field")


def _prime_handle(E: TowerField) -> Subfield:
    for sub in subfield_lattice(E):
        if sub.S.degree == 1:
            return sub
    raise ConfigError("missing prime subfield")


# ----------------------------------------------------------------- randoms


def random_char(field: TowerField, conductor: int, rng) -> MulChar:
    """Random parametric character of the exact given conductor."""
    q = field.q
    w = (rng.randrange(q - 1), q - 1)
    if conductor == 0:
        return MulChar(field, w, 0, None)
    t = rng.randrange(q - 1)
    if conductor == 1:
        t = rng.randrange(1, q - 1)
        return MulChar(field, w, t, None)
    digits = [(1 - conductor, rng.randrange(1, q))]
    digits += [(v, rng.randrange(q)) for v in range(2 - conductor, 0)]
    gamma = field.from_digits(digits)
    return MulChar(field, w, t, gamma)
