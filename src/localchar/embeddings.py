"""Embeddings between tame towers, subfield handles, norms and traces.

An embedding S -> T is pinned by the images of the W generator and the
uniformizer of S.  Images are found exactly: generator images are Hensel
roots of S's defining polynomial, uniformizer images are tau(t) * s * pi_T^c
with the Teichmuller part solved by discrete logarithm and the one-unit part
s by Newton's method (p divides no relevant degree, so both are exact).

A Subfield bundles S with one embedding into T and provides decomposition
over the basis {x_T^j pi_T^i}, multiplication matrices, and norm / trace /
characteristic polynomial computed through them.  Each of these maps is
Z/p^a-linear on the sparse base-0 coordinates (the ints of pi^v core), so
images, decompositions and matrices come from integer column tables: one
sum over the nonzero coordinates (_column_sum), normalized once by make.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

from .errors import (
    CapacityError,
    ConfigError,
    InternalContradiction,
    PrecisionLoss,
)
from .localfield import (
    TowerElement,
    TowerField,
    TameRamified,
    Unramified,
    make_tower,
)
from .zmodpk import charpoly_berkowitz, inverse as mat_inverse

INF = math.inf


def w_nth_root_oneunit(field: TowerField, w, n: int):
    """The unique one-unit z with z^n = w, for w in 1 + pW and p not | n:
    1 + pW has exponent dividing p^(a-1), so z = w^(1/n mod p^(a-1))."""
    if field.res_of(w) != field.res_of(field.wone()):
        raise ConfigError("nth root needs a one-unit")
    if n % field.p == 0:
        raise ConfigError("root degree divisible by p")
    z = field.wpow(w, pow(n, -1, field.p ** (field.a - 1)))
    if field.wpow(z, n) != w:
        raise InternalContradiction("one-unit n-th root check failed")
    return z


def _generator_images(S: TowerField, T: TowerField):
    """All exact roots of S.h in W_T, in residue_roots' order: for S.f = T.f
    the generator's conjugates under Frobenius^0, 1, .., f - 1."""
    if S.f == 1:
        return [T.wone()]
    if T.f % S.f:
        return []
    if S.f < T.f and S.p**S.f > 50000:
        raise CapacityError("generator image search too large")
    return T.residue_roots(S.h, S.f)


def _coords(T: TowerField, x: TowerElement):
    """x's base-0 coordinates: the ints of pi^v core, slot by slot."""
    return [c for w in T.rshift_up(x.core, x.v) for c in w]


def _column_sum(cols, coords, mod: int, f: int):
    """sum_k coords[k] cols[k] mod `mod` over the nonzero coords, split into
    tuples of f ints."""
    acc = [0] * len(cols[0])
    for c, col in zip(coords, cols):
        if c:
            acc = [a + c * b for a, b in zip(acc, col)]
    return list(zip(*[iter([a % mod for a in acc])] * f))


class EmbeddingMap:
    """Ring embedding src -> dst fixing the prime field."""

    __slots__ = ("src", "dst", "x_img", "pi_img", "_cols", "_pi_pows",
                 "_gen_norms")

    def __init__(self, src: TowerField, dst: TowerField,
                 x_img: TowerElement, pi_img: TowerElement):
        self.src = src
        self.dst = dst
        self.x_img = x_img
        self.pi_img = pi_img
        self._cols = None
        self._pi_pows = {}
        self._gen_norms = None

    def _columns(self):
        """(columns, window): the coordinates of the images of pi^i x^j in
        core order, src.degree columns of dst.degree ints that live as long as
        the map (its _twist_context entry or Subfield), and the images' least
        window (dst.kint, unless an image is short)."""
        if self._cols is None:
            S, T = self.src, self.dst
            imgs = [self.pi_img**i * self.x_img**j
                    for i in range(S.e) for j in range(S.f)]
            self._cols = ([_coords(T, y) for y in imgs],
                          min(y.window() for y in imgs))
        return self._cols

    def apply(self, x: TowerElement) -> TowerElement:
        """x's image: one column sum at x's core, made once, times pi_img^v."""
        if x.field is not self.src:
            raise ConfigError("element not in the embedding source")
        T = self.dst
        rho = T.e // self.src.e
        if x.is_zero():
            return T.zero_bounded(x.prec * rho if x.prec is not INF else INF)
        cols, win = self._columns()
        core = _column_sum(cols, [c for w in x.core for c in w], T.pa, T.f)
        acc = T.make(0, tuple(core), win, win)
        if x.v:
            acc = acc * self._pi_pow(x.v)
        return acc.cap_window(rho * x.window())

    def _pi_pow(self, v: int) -> TowerElement:
        """pi_img^v, kept per valuation for |v| <= src.kint, so at most
        2 kint + 1 entries; farther valuations are powered on each call."""
        out = self._pi_pows.get(v)
        if out is None:
            out = self.pi_img**v
            if abs(v) <= self.src.kint:
                self._pi_pows[v] = out
        return out

    def generator_norms(self):
        """(N(pi_dst), N(tau(xi_dst))) down to src, computed once: they fix a
        pulled-back character on the uniformizer and on mu_{q-1}."""
        if self._gen_norms is None:
            T = self.dst
            handle = Subfield(self.src, T, self)
            self._gen_norms = (handle.norm(T.uniformizer()), handle.norm(T.tau(1)))
        return self._gen_norms

    def compose(self, outer: "EmbeddingMap") -> "EmbeddingMap":
        """outer after self: an embedding src -> outer.dst."""
        if outer.src is not self.dst:
            raise ConfigError("embedding composition mismatch")
        return EmbeddingMap(self.src, outer.dst,
                            outer.apply(self.x_img), outer.apply(self.pi_img))

    def same_as(self, other: "EmbeddingMap") -> bool:
        return (self.src is other.src and self.dst is other.dst
                and self.x_img == other.x_img and self.pi_img == other.pi_img)

    def __repr__(self):
        return f"Emb({self.src!r} -> {self.dst!r})"


def identity_embedding(T: TowerField) -> EmbeddingMap:
    if T.f == 1:
        x_img = T.one()
    else:
        x_img = TowerElement(T, 0, T.rfromw((0, 1) + (0,) * (T.f - 2)),
                             T.kint, T.kint)
    return EmbeddingMap(T, T, x_img, T.uniformizer())


def find_embeddings(S: TowerField, T: TowerField):
    """All embeddings S -> T over the prime field (possibly fewer than
    [S : F] when T lacks the roots of unity or Kummer roots)."""
    if S.p != T.p:
        raise ConfigError("different primes")
    if T.e % S.e or T.f % S.f:
        return []
    out = []
    c = T.e // S.e
    n = T.q - 1
    for xr in _generator_images(S, T):
        x_img = TowerElement(T, 0, T.rfromw(xr), T.kint, T.kint)
        if S.e == 1:
            out.append(EmbeddingMap(S, T, x_img, T.from_int(T.p)))
            continue
        # solve g^{e_S} = d, d = S's compiled unit through xr over U_T:
        # d = xi^dr times a one-unit, whose e_S-th root is s
        d = T.wmul(T._weval_poly(S.U, xr), T.Uinv)
        dr = T.dlog_res(d)
        s = w_nth_root_oneunit(T, T.wmul(d, T.xi_pow(-dr)), S.e)
        g = math.gcd(S.e, n)
        if dr % g:
            continue
        l0 = (dr // g) * pow(S.e // g, -1, n // g) % (n // g)
        for j in range(g):
            l = l0 + j * (n // g)
            gw = T.wmul(T.xi_pow(l), s)
            pi_img = TowerElement(T, c, T.rfromw(gw), T.kint, T.kint)
            out.append(EmbeddingMap(S, T, x_img, pi_img))
    return out


def automorphisms(T: TowerField):
    """All automorphisms of T over the prime field."""
    return find_embeddings(T, T)


def verify_embedding(emb: EmbeddingMap):
    """Check the defining relations of the source on the chosen images."""
    S, T = emb.src, emb.dst

    def at_x(coeffs):
        val, xp = T.zero(), T.one()
        for coef in coeffs:
            if coef:
                val = val + xp._scal(coef)
            xp = xp * emb.x_img
        return val

    if S.f > 1 and not at_x(S.h).is_zero():
        raise ConfigError("generator image is not a root")
    uimg = at_x(S.U)
    lhs = emb.pi_img**S.e
    rhs = uimg * T.from_int(T.p)
    if not (lhs - rhs).is_zero():
        raise ConfigError("uniformizer image violates the Eisenstein relation")
    return True


class Subfield:
    """A subfield S of T given by one embedding, with decomposition data.

    _setup builds two integer column tables, kept as long as the handle (a
    subfield_lattice or _twist_context entry): minv's T.degree columns of
    T.degree ints, and for mult_matrix the stacked columns of minv M_b, M_b
    multiplication by basis element b: [T:S] T.degree columns of T.degree ints."""

    def __init__(self, S: TowerField, T: TowerField, emb: EmbeddingMap):
        if emb.src is not S or emb.dst is not T:
            raise ConfigError("embedding does not match the subfield pair")
        self.S = S
        self.T = T
        self.emb = emb
        self.index = T.degree // S.degree
        self._minv = None

    def __repr__(self):
        return f"Subfield({self.S!r} in {self.T!r})"

    # ---------------------------------------------------------- decomposition

    def _setup(self):
        if self._minv is not None:
            return
        S, T = self.S, self.T
        self._basis = [(ib, jb) for ib in range(T.e // S.e)
                       for jb in range(T.f // S.f)]
        x_t = identity_embedding(T).x_img
        tb = [T.uniformizer()**i * x_t**j
              for i in range(T.e) for j in range(T.f)]
        # mults[b][r]: the coordinates of b times T's r-th basis element
        mults = [[_coords(T, tb[ib * T.f + jb] * t) for t in tb]
                 for ib, jb in self._basis]
        cols = [_column_sum(mb, c, T.pa, T.degree)[0]
                for mb in mults for c in self.emb._columns()[0]]
        self._minv = list(zip(*mat_inverse(list(zip(*cols)), T.p, T.pa)))
        self._mult = [[c for mb in mults
                       for c in _column_sum(self._minv, mb[r], T.pa, T.degree)[0]]
                      for r in range(T.degree)]
        self._mod = T.p ** min(T.a, S.a)
        self._sstore = S.e * min(T.a, S.a)

    def decompose(self, x: TowerElement):
        """Coefficients of x over the T/S basis, as elements of S.

        x must be integral (valuation >= 0); entry i belongs to the basis
        element pi_T^ib x_T^jb, (ib, jb) the i-th pair in _setup's order."""
        self._setup()
        S, T = self.S, self.T
        if x.is_zero():
            if x.prec is INF:
                return [S.zero() for _ in self._basis]
            bound = S.e * (int(x.prec) // T.e)
            return [S.zero_bounded(bound) for _ in self._basis]
        if x.v < 0:
            raise ConfigError("decompose needs an integral element")
        rows = _column_sum(self._minv, _coords(T, x), self._mod, S.f)
        sprec = S.e * (min(x.window(), T.kint) // T.e)
        return [S.make(0, tuple(rows[i:i + S.e]), sprec, self._sstore)
                for i in range(0, len(rows), S.e)]

    def in_image(self, x: TowerElement):
        """(membership, preimage in S or None), decided at x's precision."""
        if x.is_zero():
            if x.prec is INF:
                return True, self.S.zero()
            return True, self.S.zero_bounded(
                self.S.e * (int(x.prec) // self.T.e))
        y, m = self._scaled(x)
        coeffs = self.decompose(y)
        if not all(c.is_zero() for c in coeffs[1:]):
            return False, None
        return True, coeffs[0].div_p(m)

    def project(self, x: TowerElement) -> TowerElement:
        """Preimage of x, which must lie in the subfield."""
        ok, pre = self.in_image(x)
        if not ok:
            raise ConfigError("element does not lie in the subfield")
        return pre

    # ------------------------------------------------------- norm and friends

    def mult_matrix(self, x: TowerElement):
        """Matrix of multiplication by x over S in the fixed basis: column b
        decomposes x b, one sum of the stacked minv M_b columns."""
        if x.is_zero():
            raise ConfigError("mult_matrix of zero")
        if x.v < 0:
            raise PrecisionLoss("mult_matrix needs an integral element")
        self._setup()
        S, T = self.S, self.T
        rows = _column_sum(self._mult, _coords(T, x), self._mod, S.f)
        n, se, w = self.index, S.e, x.window()
        cols = []
        for b, (ib, _jb) in enumerate(self._basis):
            sprec = se * (min(w + ib, T.kint) // T.e)
            cols.append([S.make(0, tuple(rows[k:k + se]), sprec, self._sstore)
                         for k in range(b * n * se, (b + 1) * n * se, se)])
        return list(zip(*cols))

    def _scaled(self, x: TowerElement):
        if x.v >= 0:
            return x, 0
        m = (-x.v + self.T.e - 1) // self.T.e
        return x.div_p(-m), m

    def _scaled_charpoly(self, x: TowerElement):
        """(charpoly of x p^m over S, m), x p^m integral."""
        xi, m = self._scaled(x)
        return charpoly_berkowitz(self.mult_matrix(xi), self.S.one()), m

    def charpoly(self, x: TowerElement):
        """Coefficients [1, c_{n-1}, ..., c_0] of det(lambda - x) over S."""
        vec, m = self._scaled_charpoly(x)
        return [coef.div_p(m * i) for i, coef in enumerate(vec)]

    def norm(self, x: TowerElement) -> TowerElement:
        if x.is_zero():
            if x.prec is INF:
                return self.S.zero()
            return self.S.zero_bounded(int(x.prec) * (self.T.f // self.S.f))
        vec, m = self._scaled_charpoly(x)
        n = len(vec) - 1
        det = vec[n] if n % 2 == 0 else -vec[n]
        return det.div_p(m * n)

    def norms_of_shift(self, x: TowerElement, b: TowerElement):
        """(N(b + x), N(x)) for b in S from one matrix: M_{b+x} = b I + M_x
        gives (-1)^n chi(-b) (Horner in S) and (-1)^n chi(0), chi the charpoly
        of x.  Both keep x's scaling by p^m, norm(b + x)'s when v(b) > v(x)."""
        chi, m = self._scaled_charpoly(x)
        n = len(chi) - 1
        t = -b.div_p(-m)
        val = t + chi[1]
        for c in chi[2:]:
            val = val * t + c
        det = chi[n]
        if n % 2:
            val, det = -val, -det
        return val.div_p(m * n), det.div_p(m * n)

    def trace(self, x: TowerElement) -> TowerElement:
        if x.is_zero():
            if x.prec is INF:
                return self.S.zero()
            return self.S.zero_bounded(self.S.e * (int(x.prec) // self.T.e))
        xi, m = self._scaled(x)
        return reduce(add, [r[i] for i, r in enumerate(self.mult_matrix(xi))]).div_p(m)


def self_subfield(T: TowerField) -> Subfield:
    return Subfield(T, T, identity_embedding(T))


def enumerate_subfields(T: TowerField):
    """All intermediate fields F <= S <= T, each with a canonical embedding.

    A subfield is a divisor pair (f', e') of (f, e) together with the coset
    of the Teichmuller twist t on the uniformizer modulo mu_{q'-1}, subject
    to t^{e'} U_T having residue in the degree-f' residue subfield.  With
    t = xi^j that residue is xi^(j e' + dlog U_T), and a residue lies in
    F_{q'} exactly when (q-1)/(q'-1) divides its dlog.
    """
    out = []
    p = T.p
    n = T.q - 1
    dU = T.dlog_res(T.U) if T.e > 1 else None
    for fp in [d for d in range(1, T.f + 1) if T.f % d == 0]:
        qs = p**fp
        for ep in [d for d in range(1, T.e + 1) if T.e % d == 0]:
            if fp == T.f and ep == T.e:
                out.append(self_subfield(T))
                continue
            if ep == 1:
                steps = (Unramified(fp),) if fp > 1 else ()
                S = make_tower(p, steps, T.k)
                embs = find_embeddings(S, T)
                if not embs:
                    raise ConfigError("missing unramified subfield")
                out.append(Subfield(S, T, embs[0]))
                continue
            ncl = n // (qs - 1)
            for j in range(ncl):
                dglob = (j * ep + dU) % n
                if dglob % ncl:
                    continue
                if fp == 1:
                    steps = (TameRamified(ep, T.xi_pow(dglob)[0] % p),)
                else:
                    d0 = T.dlog_res(T.subres_generator(fp))
                    m = (dglob // ncl) * pow(d0 // ncl, -1, qs - 1) % (qs - 1)
                    steps = (Unramified(fp), TameRamified(ep, ("gen", m)))
                S = make_tower(p, steps, T.k)
                chosen = None
                for emb in find_embeddings(S, T):
                    g_res = emb.pi_img.residue()
                    if T.dlog_res(g_res) % ncl == j:
                        chosen = emb
                        break
                if chosen is None:
                    raise ConfigError("no embedding lands in the expected class")
                verify_embedding(chosen)
                out.append(Subfield(S, T, chosen))
    out.sort(key=lambda s: (s.S.degree, s.S.f, s.S.e))
    return out
