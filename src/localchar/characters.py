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
from .errors import (ConductorTooSmall, ConfigError, NotAdmissible,
                     PrecisionLoss, UnsupportedShape)
from .embeddings import EmbeddingMap, Subfield, enumerate_subfields, self_subfield
from .localfield import INF, TowerElement, TowerField


class AddChar:
    """The canonical level-1 additive character of a tower."""

    def __init__(self, field: TowerField):
        self.field = field

    def __repr__(self):
        return f"AddChar({self.field!r})"

    def exponent(self, x: TowerElement):
        """(k, p^m) with psi(x) = zeta_{p^m}^k.  Needs x certified mod P^1:
        x times the exact 1, the one-slot form dotted with 1's core."""
        return self._form_exponent(x, self.trace_form(x, 0, slots=1), 0, INF,
                                   self.field.wone())

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
        y.core; pi^e = U p and tr(pi^(e m) w) = e p^m tr_W(U^m w) are built
        in.  The form covers y's first `slots` core slots (f ints each), all
        e by default."""
        F, e, f = self.field, self.field.e, self.field.f
        slots = e if slots is None else slots
        if x.is_zero():  # a log at or past its window: the digit is 0
            return 1, (0,) * (slots * f)
        i0 = -(x.v + v) % e
        m = (x.v + v + i0) // e
        um = F.upow(m)
        basis = [tuple(int(i == l) for i in range(f)) for l in range(f)]
        form = []
        for k in range(slots):  # slot k of y meets slot i0 - k of x
            w = x.core[i0 - k] if k <= i0 else F.wmul(x.core[i0 + e - k], F.Upw)
            w = F.wmul(w, um)
            form += [e * F.trace_w(F.wmul(w, b)) % F.pa for b in basis]
        return m, tuple(form)

    def _form_exponent(self, x: TowerElement, mform, yv: int, ywindow, ys):
        """exponent(x y): mform = trace_form(x, yv) dotted with the core ints
        ys of y (valuation yv, window ywindow), checked as exponent checks."""
        lo = x.prec if x.v is None else x.v  # v(x), or a zero's bound
        if min(x.window() + yv, ywindow + lo) < 1:  # x y's window
            raise PrecisionLoss("additive character needs the element mod P^1")
        return self.digit_exponent(mform[0], sum(map(mul, mform[1], ys)))

    def log_row(self, y: TowerElement, n: int, window, teich: bool = True):
        """[exponent(y lg) for lg in principal_logs(n, window, teich)]: y's
        core dotted with each lg's trace form at v(y), memoized in the field's
        caches (per (n, window, teich, v(y)), q - 1 forms of e f ints)."""
        F = self.field
        logs = F.principal_logs(n, window, teich)
        memo = F._caches.setdefault("plog_forms", {})
        key = (n, window, teich, y.v)
        if key not in memo:
            memo[key] = tuple(self.trace_form(lg, y.v) for lg in logs)
        ys = [c for w in y.core for c in w]
        return [self._form_exponent(lg, mform, y.v, y.window(), ys)
                for lg, mform in zip(logs, memo[key])]

    def eval(self, x: TowerElement) -> CycNumber:
        z, mod = self.exponent(x)
        return CycNumber.root(mod, z)


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

    __slots__ = ("field", "w", "t", "gamma", "parts", "_gamma_cache", "_crep")

    def __init__(self, field: TowerField, w=None, t: int = 0, gamma=None,
                 parts=None):
        self.field = field
        self.parts = parts
        self._gamma_cache = self._crep = None
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
        z, m = char_exponents((self,), self.field.tau(1))[0]
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
        for x in P^r.  Formed once per character (its fields never change)."""
        if self._crep is None:
            f = self.conductor()
            if f < 2:
                raise ConductorTooSmall("c_theta needs conductor >= 2")
            self._crep = truncate_to(self.gamma_full(), 1 - (f + 1) // 2)
        return self._crep

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
    principal_split of the unit u = tau(n) u1 and one trace form per window
    c = max(conductor, 1): lg = log_principal(u1) at window c (its own, as
    psi's modulus reads digits above it) read at valuation 1 - c = v(gamma).
    Each character is a dot product, psi(gamma lg) = form . coords(gamma),
    plus its tame exponent t n, with n read from the split, and, when
    v != 0, v times its uniformizer one.  A factored character adds its
    parts' exponents at the norms of u and, when v != 0, v times their
    exponents at the norms of pi, so the norms see only units.  m is the
    modulus of the value's CycNumber: it takes the lcm with the uniformizer
    exponent's modulus exactly when v != 0.  PrecisionLoss when u1 is
    certified below a conductor."""
    if x.is_zero():
        raise ConfigError("character of zero")
    F = x.field
    v = x.v
    unit = TowerElement(F, 0, x.core, x.prec, x.store) if v else x
    split = None
    psi = make_psi(F)
    forms = {}
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
        dlog, u1 = split
        c = max(chi.conductor(), 1)
        if u1.prec < c:
            raise PrecisionLoss(
                f"need the argument mod P^{c} relative; have {u1.prec}")
        z, m = 0, 1
        g = chi.gamma
        if g is not None:  # v(g) = 1 - c
            if c not in forms:
                lg = F.log_principal(u1, window=c)
                forms[c] = lg, psi.trace_form(lg, 1 - c)
            z, m = psi._form_exponent(*forms[c], g.v, g.window(),
                                      [d for w in g.core for d in w])
        if chi.t:
            z, m = _add_exponents(z, m, chi.t * dlog, F.q - 1)
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
    return _nth_root_index(*char_exponents((chi,), u)[0], n)


def _nth_root_index(z: int, m: int, n: int) -> int:
    """t with zeta_m^z = zeta_n^t, or ConfigError."""
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
    factored form.  The one-character case of pullbacks."""
    return pullbacks((chi,), K, emb)[0]


def pullbacks(chars, K: TowerField, emb: EmbeddingMap) -> list:
    """[pullback(chi, K, emb) for chi in chars] (a sequence), by one shared
    evaluation: the parametric characters read their uniformizer exponents
    from one char_exponents call at N(pi_K), their tame exponents (t != 0
    only) from one at N(tau(xi_K)), and embed each distinct parameter once.
    Factored characters, and every character when K lacks exp/log, come out
    factored as in pullback."""
    if emb.dst is not K or any(chi.field is not emb.src for chi in chars):
        raise ConfigError("embedding does not match the inflation")
    par = [chi for chi in chars if chi.parts is None] if K.explog_ok else []
    if par:
        npi, ngen = emb.generator_norms()
        ws = iter(char_exponents(par, npi))
        ts = iter(char_exponents([chi for chi in par if chi.t], ngen))
    images = {}
    out = []
    for chi in chars:
        if chi.parts is not None:
            out.append(MulChar(K, parts=tuple(
                (Subfield(h.S, K, h.emb.compose(emb)), c) for h, c in chi.parts)))
        elif not K.explog_ok:
            out.append(MulChar(K, parts=((Subfield(emb.src, K, emb), chi),)))
        else:
            t = _nth_root_index(*next(ts), K.q - 1) if chi.t else 0
            g = chi.gamma
            if g is not None:
                key = (g.v, g.core, g.prec)
                if key not in images:
                    images[key] = emb.apply(g)
                g = images[key]
            out.append(MulChar(K, next(ws), t, g))
    return out


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


def is_admissible(chi: MulChar) -> bool:
    """Howe admissibility over the prime field F: chi does not factor
    through N_{L/S} for a proper subfield S, and where chi|(1+P) does, L/S
    is unramified.  gamma = gamma_full() is peeled from the top into digits
    (i, k), gamma = sum tau(xi^k) pi^i mod O_L, for admissible_on_digits.

    Proof.  chi|(1+P) factors through N iff gamma is in S + O_L, as
    N(exp y) = exp(tr y), psi_L = psi_S o tr and O_L pairs trivially with P.
    ker N lies in mu_{q-1} x (1+P), and N sends xi^j to xi^(j rel), rel =
    e(L/S) (q-1)/(q_S-1): chi factors iff also gcd(rel, q-1) divides t.  An
    expansion in S (Teichmuller digits, S's uniformizer) is the unique one
    in L.  unram(f): pi = p, the subfields are unram(f'), f' | f, whose
    units are the xi^k with s = (q-1)/(p^f'-1) | k, and rel = s.  ram(e, u)
    with f = 1: a degree-d subfield S has a uniformizer z pi^c v, c = e/d,
    z in mu_{p-1} (in F), v in 1 + P_L; v^d is in S, as pi^e = u p is, and v
    is its unique d-th root in 1 + P_L, so S = F(pi^c).  Its digits sit at
    multiples of c, and e(L/S) = c > 1 leaves t no part."""
    L = chi.field
    x = chi.gamma_full()
    digits = []
    while x is not None and not x.is_zero() and x.v < 0:
        k = L.dlog_res(x.residue())
        digits.append((x.v, k))
        x = x - L.tau(k).shift(x.v)
    return admissible_on_digits(L, chi.t, digits)


def admissible_on_digits(L: TowerField, t: int, digits) -> bool:
    """is_admissible for the character of L with tame exponent t and
    principal parameter sum tau(xi^k) pi^i over digits (i, k), i < 0 (its
    docstring has the proof).  UnsupportedShape for a mixed tower."""
    if L.e > 1 and L.f > 1:
        raise UnsupportedShape("admissibility on digits needs f = 1 or e = 1")
    if L.e > 1:
        return math.gcd(L.e, *(i for i, _k in digits)) == 1
    n = L.q - 1
    g = math.gcd(n, t, *(k for _i, k in digits))
    return all(g % (n // (L.p**d - 1)) for d in range(1, L.f) if L.f % d == 0)


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
    """Factor an admissible character as prod phi_k o N.

    Returns [(Subfield handle F_k, phi_k)] with the tower strictly
    increasing, inflation conductors strictly decreasing, each phi_k generic
    relative to the previous field, and the product of the pullbacks equal
    to the input exactly: the last factor, on E itself, takes what the
    others leave, so no prime-field character is left over.
    Representatives are normalized: every phi_k except the last has trivial
    uniformizer value and tame part.  NotAdmissible when the structure is
    violated.
    """
    E = chi.field
    work = chi
    factors = []
    prev = _subfield_handle(E, 1)
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
                return factors
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


def _subfield_handle(E: TowerField, degree: int) -> Subfield:
    """The first subfield of E of the given degree in lattice order."""
    for sub in subfield_lattice(E):
        if sub.S.degree == degree:
            return sub
    raise ConfigError(f"missing degree-{degree} subfield")


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
