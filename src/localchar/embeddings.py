"""Embeddings between tame towers, subfield handles, norms and traces.

An embedding S -> T is pinned by the images of the W generator and the
uniformizer of S.  Images are found exactly: generator images are Hensel
roots of S's defining polynomial, uniformizer images are tau(t) * s * pi_T^c
with the Teichmuller part solved by discrete logarithm and the one-unit part
s by Newton's method (p divides no relevant degree, so both are exact).

A Subfield bundles S with one embedding into T and provides decomposition
over the basis {x_T^j pi_T^i}, multiplication matrices, and norm / trace /
characteristic polynomial computed through them.
"""

from __future__ import annotations

import math

from .errors import (
    CapacityError,
    ConfigError,
    DivisionByZero,
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
    """All exact roots of S.h in W_T, in a deterministic order."""
    if S.f == 1:
        return [T.wone()]
    if T.f % S.f:
        return []
    if S.f == T.f and S.h == T.h:
        gen = (0, 1) + (0,) * (T.f - 2)
        return [T.frob_w(gen, b) for b in range(T.f)]
    qs = S.p**S.f
    if qs > 50000:
        raise CapacityError("generator image search too large")
    return T.residue_roots(S.h, S.f)


class EmbeddingMap:
    """Ring embedding src -> dst fixing the prime field."""

    __slots__ = ("src", "dst", "x_img", "pi_img", "_table", "_pi_inv",
                 "_gen_norms")

    def __init__(self, src: TowerField, dst: TowerField,
                 x_img: TowerElement, pi_img: TowerElement):
        self.src = src
        self.dst = dst
        self.x_img = x_img
        self.pi_img = pi_img
        self._table = None
        self._pi_inv = None
        self._gen_norms = None

    def _basis_table(self):
        if self._table is None:
            S, T = self.src, self.dst
            xpows = [T.one()]
            for _ in range(S.f - 1):
                xpows.append(xpows[-1] * self.x_img)
            tab = []
            cur = T.one()
            for _i in range(S.e):
                tab.append([cur * xp for xp in xpows])
                cur = cur * self.pi_img
            self._table = tab
        return self._table

    def apply(self, x: TowerElement) -> TowerElement:
        if x.field is not self.src:
            raise ConfigError("element not in the embedding source")
        T = self.dst
        rho = T.e // self.src.e
        if x.is_zero():
            return T.zero_bounded(x.prec * rho if x.prec is not INF else INF)
        tab = self._basis_table()
        acc = T.zero()
        for i, w in enumerate(x.core):
            for j, c in enumerate(w):
                if c:
                    acc = acc + tab[i][j]._scal(c)
        if x.v:
            if x.v > 0:
                acc = acc * self.pi_img**x.v
            else:
                if self._pi_inv is None:
                    self._pi_inv = self.pi_img.inv()
                acc = acc * self._pi_inv ** (-x.v)
        return acc.cap_window(rho * x.window())

    def generator_norms(self):
        """(N(pi_dst), N(tau(xi_dst))) down to src, computed once: they fix a
        pulled-back character on the uniformizer and on mu_{q-1}."""
        if self._gen_norms is None:
            T = self.dst
            handle = Subfield(self.src, T, self)
            gen = T.teichmuller(T.res_of(T.xi()))
            self._gen_norms = (handle.norm(T.uniformizer()), handle.norm(gen))
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


def _unit_image_w(S: TowerField, T: TowerField, xr):
    """Image of S's compiled unit in W_T through the generator image xr."""
    out = T.wzero()
    acc = T.wone()
    for c in S.U:
        if c:
            out = T.wadd(out, T.wscal(acc, c))
        acc = T.wmul(acc, xr)
    return out


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
        uimg = _unit_image_w(S, T, xr)
        d = T.wmul(uimg, T.winv(T.U))  # solve g^{e_S} = d
        r_teich = T.teichmuller_w(d)
        v_unit = T.wmul(d, T.winv(r_teich))
        s = w_nth_root_oneunit(T, v_unit, S.e)
        try:
            dr = T.dlog_res(T.res_of(r_teich))
        except DivisionByZero:
            continue
        g = math.gcd(S.e, n)
        if dr % g:
            continue
        l0 = (dr // g) * pow(S.e // g, -1, n // g) % (n // g)
        for j in range(g):
            l = l0 + j * (n // g)
            gw = T.wmul(T.wpow(T.xi(), l), s)
            pi_img = TowerElement(T, c, T.rfromw(gw), T.kint, T.kint)
            out.append(EmbeddingMap(S, T, x_img, pi_img))
    return out


def automorphisms(T: TowerField):
    """All automorphisms of T over the prime field."""
    return find_embeddings(T, T)


def verify_embedding(emb: EmbeddingMap):
    """Check the defining relations of the source on the chosen images."""
    S, T = emb.src, emb.dst
    if S.f > 1:
        hval = T.zero()
        xp = T.one()
        for coef in S.h:
            if coef:
                hval = hval + xp._scal(coef)
            xp = xp * emb.x_img
        if not hval.is_zero():
            raise ConfigError("generator image is not a root")
    uimg = T.zero()
    xp = T.one()
    for coef in S.U:
        if coef:
            uimg = uimg + xp._scal(coef)
        xp = xp * emb.x_img
    lhs = emb.pi_img**S.e
    rhs = uimg * T.from_int(T.p)
    if not (lhs - rhs).is_zero():
        raise ConfigError("uniformizer image violates the Eisenstein relation")
    return True


class Subfield:
    """A subfield S of T given by one embedding, with decomposition data."""

    def __init__(self, S: TowerField, T: TowerField, emb: EmbeddingMap):
        if emb.src is not S or emb.dst is not T:
            raise ConfigError("embedding does not match the subfield pair")
        self.S = S
        self.T = T
        self.emb = emb
        self.index = T.degree // S.degree
        self._minv = None
        self._basis = None
        self._belems = None

    def __repr__(self):
        return f"Subfield({self.S!r} in {self.T!r})"

    # ---------------------------------------------------------- decomposition

    def _coords(self, x: TowerElement):
        core = self.T.rshift_up(x.core, x.v)
        return [c for w in core for c in w]

    def _setup(self):
        if self._minv is not None:
            return
        S, T = self.S, self.T
        eb = T.e // S.e
        fb = T.f // S.f
        basis = [(ib, jb) for ib in range(eb) for jb in range(fb)]
        x_t = identity_embedding(T).x_img
        pi_t = T.uniformizer()
        belems = [pi_t**ib * x_t**jb for ib, jb in basis]
        x_s = identity_embedding(S).x_img
        pi_s = S.uniformizer()
        semb = [self.emb.apply(pi_s**i2 * x_s**j2)
                for i2 in range(S.e) for j2 in range(S.f)]
        cols = [self._coords(be * se) for be in belems for se in semb]
        mat = [[cols[cidx][ridx] for cidx in range(len(cols))]
               for ridx in range(T.degree)]
        self._minv = mat_inverse(mat, T.p, T.pa)
        self._basis = basis
        self._belems = belems

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
        coords = self._coords(x)
        y = [sum(m * c for m, c in zip(row, coords)) % T.pa
             for row in self._minv]
        sprec = S.e * (int(min(x.window(), T.kint)) // T.e)
        sstore = S.e * min(T.a, S.a)
        out = []
        degs = S.degree
        for b in range(len(self._basis)):
            block = y[b * degs:(b + 1) * degs]
            core = []
            idx = 0
            for _i in range(S.e):
                row = []
                for _j in range(S.f):
                    row.append(block[idx] % S.pa)
                    idx += 1
                core.append(tuple(row))
            out.append(S.make(0, tuple(core), sprec, sstore))
        return out

    def in_image(self, x: TowerElement):
        """(membership, preimage in S or None), decided at x's precision."""
        if x.is_zero():
            if x.prec is INF:
                return True, self.S.zero()
            return True, self.S.zero_bounded(
                self.S.e * (int(x.prec) // self.T.e))
        m = 0
        y = x
        if x.v < 0:
            m = (-x.v + self.T.e - 1) // self.T.e
            y = x.div_p(-m)
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
        """Matrix of multiplication by x over S in the fixed basis."""
        if x.is_zero():
            raise ConfigError("mult_matrix of zero")
        if x.v < 0:
            raise PrecisionLoss("mult_matrix needs an integral element")
        self._setup()
        cols = [self.decompose(x * be) for be in self._belems]
        n = len(self._belems)
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def _scaled(self, x: TowerElement):
        if x.v >= 0:
            return x, 0
        m = (-x.v + self.T.e - 1) // self.T.e
        return x.div_p(-m), m

    def _scaled_charpoly(self, x: TowerElement):
        """(charpoly of x p^m over S, m), x p^m integral."""
        xi, m = self._scaled(x)
        mat = self.mult_matrix(xi)
        return charpoly_berkowitz(mat, self.S.zero(), self.S.one()), m

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
        val = chi[0]
        for c in chi[1:]:
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
        mat = self.mult_matrix(xi)
        tr = self.S.zero()
        for i in range(len(mat)):
            tr = tr + mat[i][i]
        return tr.div_p(m)


def self_subfield(T: TowerField) -> Subfield:
    return Subfield(T, T, identity_embedding(T))


def enumerate_subfields(T: TowerField):
    """All intermediate fields F <= S <= T, each with a canonical embedding.

    A subfield is a divisor pair (f', e') of (f, e) together with the coset
    of the Teichmuller twist t on the uniformizer modulo mu_{q'-1}, subject
    to t^{e'} U_T having residue in the degree-f' residue subfield.
    """
    out = []
    p = T.p
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
            ncl = (T.q - 1) // (qs - 1)
            for j in range(ncl):
                tbar = T.res_of(T.wpow(T.xi(), j))
                dd = T.wmul(T.wpow(T.teichmuller_w(
                    tuple(c % T.pa for c in tbar)), ep), T.U)
                dres = T.res_of(dd)
                if T.res_of(T.frob_w(T.wfromres(dres), fp)) != dres:
                    continue
                if fp == 1:
                    spec = T.res_to_int(dres) % p
                    steps = (TameRamified(ep, spec),)
                else:
                    dglob = T.dlog_res(dres)
                    step = (T.q - 1) // (qs - 1)
                    if dglob % step:
                        continue
                    rho0 = T.res_of(T.subres_generator(fp))
                    d0 = T.dlog_res(rho0)
                    m = (dglob // step) * pow(d0 // step, -1, qs - 1) % (qs - 1)
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
