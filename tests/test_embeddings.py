import random
from itertools import islice
from operator import mul

import pytest

from localchar import converse, zmodpk
from localchar import embeddings as embeddings_module
from localchar.characters import _subfield_handle
from localchar.ambient import compositum_abstract
from localchar.embeddings import (
    _generator_images,
    automorphisms,
    enumerate_subfields,
    find_embeddings,
    identity_embedding,
    verify_embedding,
    w_nth_root_oneunit,
)
from localchar.localfield import (TameRamified, TowerElement, Unramified,
                                  make_tower)


def embeddings(S, T):
    """Exactly [S : F] embeddings of S into T; ValueError when T lacks the
    roots of unity or Kummer roots for some of them."""
    out = find_embeddings(S, T)
    if len(out) != S.degree:
        raise ValueError(
            f"found {len(out)} embeddings of a degree-{S.degree} field")
    return out


@pytest.fixture(scope="module")
def E():
    return make_tower(7, [TameRamified(5, 1)], 12)


@pytest.fixture(scope="module")
def T6():
    # residue degree 2, ramification 3
    return make_tower(7, [Unramified(2), TameRamified(3, 1)], 10)


def test_subfields_of_prime_degree_extension(E):
    subs = enumerate_subfields(E)
    assert [(s.S.f, s.S.e) for s in subs] == [(1, 1), (1, 5)]


def test_subfields_of_degree_six_tower(T6):
    subs = enumerate_subfields(T6)
    assert len(subs) == 4
    assert sorted((s.S.f, s.S.e) for s in subs) == [(1, 1), (1, 3), (2, 1), (2, 3)]


def test_three_tame_quadratics_over_p11():
    # unramified, F(sqrt(pches)), F(sqrt(u p)): count subfields of a biquadratic ambient
    M = make_tower(11, [Unramified(2), TameRamified(2, 1)], 8)
    subs = enumerate_subfields(M)
    quadratics = [s for s in subs if s.S.degree == 2]
    assert len(quadratics) == 3
    rams = [s for s in quadratics if s.S.e == 2]
    assert len(rams) == 2
    units = sorted(s.S.U[0] % 11 for s in rams)
    # one class is a square residue times p, the other is not
    assert pow(units[0] * units[1], 5, 11) == 10  # product is a non-residue


def test_norm_trace_of_uniformizer(E, prime_subfield):
    sub = prime_subfield(E)
    assert sub.norm(E.uniformizer()) == sub.S.from_int(7)
    assert sub.trace(E.uniformizer()).is_zero()
    # mult matrix of an element of the subfield itself is scalar-like
    x = E.from_int(3)
    mat = sub.mult_matrix(x)
    for i in range(5):
        for j in range(5):
            if i == j:
                assert mat[i][j] == sub.S.from_int(3)
            else:
                assert mat[i][j].is_zero()


def test_norm_valuation_identity(E, prime_subfield, random_element):
    # val_F(N(x)) = f(E/F) val_E(x); here f = 1
    sub = prime_subfield(E)
    rng = random.Random(0)
    for _ in range(100):
        x = random_element(E, rng, -3, 6)
        assert sub.norm(x).valuation() == x.valuation()
    # N(pi_E)^e and p^[E:F] have equal valuation
    n = sub.norm(E.uniformizer())
    assert (n ** E.e).valuation() == (sub.S.from_int(7) ** E.degree).valuation()


def test_charpoly_of_uniformizer(E, prime_subfield):
    sub = prime_subfield(E)
    vec = sub.charpoly(E.uniformizer())
    # x^5 - p: monic, middle coefficients zero, constant -p
    assert len(vec) == 6
    assert vec[0] == sub.S.one()
    for c in vec[1:5]:
        assert c.is_zero()
    assert vec[5] == sub.S.from_int(-7)


def test_norm_transitivity_three_step(prime_subfield):
    T = make_tower(7, [Unramified(2), TameRamified(3, 1)], 10)
    subs = enumerate_subfields(T)
    mid = next(s for s in subs if s.S.degree == 2)
    base = next(s for s in subs if s.S.degree == 1)
    base_of_mid = prime_subfield(mid.S, base.S.k)
    rng = random.Random(1)
    for _ in range(200):
        x = T.random_unit(rng)
        n1 = base.norm(x)
        n2 = base_of_mid.norm(mid.norm(x))
        assert (n1 - n2).is_zero()
        t1 = base.trace(x)
        t2 = base_of_mid.trace(mid.trace(x))
        assert (t1 - t2).is_zero()


def test_embeddings_count_and_action(E):
    M = make_tower(7, [Unramified(4), TameRamified(5, 1)], 12)
    embs = embeddings(E, M)
    assert len(embs) == 5
    for emb in embs:
        verify_embedding(emb)
    images = [emb.pi_img for emb in embs]
    # the five images differ by fifth roots of unity
    base = images[0]
    for img in images[1:]:
        ratio = img * base.inv()
        assert (ratio ** 5) == M.one()


def test_embeddings_ambient_too_small(E):
    M = make_tower(7, [Unramified(2), TameRamified(5, 1)], 10)
    # mu_5 needs order-5 residue classes: 7^2 - 1 = 48 is not divisible by 5
    with pytest.raises(ValueError,
                       match="^found 1 embeddings of a degree-5 field$"):
        embeddings(E, M)


def test_automorphisms_unramified_quadratic():
    L = make_tower(11, [Unramified(2)], 8)
    auts = automorphisms(L)
    assert len(auts) == 2
    frob = next(a for a in auts if not a.same_as(identity_embedding(L)))
    x = identity_embedding(L).x_img
    assert (frob.apply(frob.apply(x)) - x).is_zero()


def norm_via_conjugates(x, maps):
    """Product of sigma(x) over a list of embeddings (ambient cross-check)."""
    out = None
    for m in maps:
        y = m.apply(x)
        out = y if out is None else out * y
    return out


def test_norm_via_conjugates_cross_check(T6):
    subs = enumerate_subfields(T6)
    base = next(s for s in subs if s.S.degree == 1)
    auts = automorphisms(T6)
    assert len(auts) == 6  # this tower is Galois
    rng = random.Random(2)
    for _ in range(30):
        x = T6.random_unit(rng)
        n1 = base.norm(x)
        n2 = norm_via_conjugates(x, auts)
        ok, pre = base.in_image(n2)
        assert ok and (pre - n1).is_zero()


def test_norm_layer_fact(prime_subfield):
    # N_{K/E}(1 + P_K^n) inside 1 + P_E^ceil(n/e) for a tame quadratic step
    K = make_tower(7, [TameRamified(2, 1)], 12)
    sub = prime_subfield(K)
    rng = random.Random(3)
    for n in range(2, 8):
        for _ in range(30):
            u = K.one() + K.random_unit(rng).shift(n)
            nu = sub.norm(u)
            d = nu - sub.S.one()
            assert d.is_zero() or d.valuation() >= -(-n // 2)


def test_decompose_membership(E, prime_subfield):
    sub = prime_subfield(E)
    ok, pre = sub.in_image(E.from_int(21))
    assert ok and pre == sub.S.from_int(21)
    ok, _ = sub.in_image(E.uniformizer())
    assert not ok
    ok, pre = sub.in_image(E.from_int(7).inv())
    assert ok and (pre - sub.S.from_int(7).inv()).is_zero()


def test_one_unit_root_is_the_one_unit_with_that_power(T6):
    rng = random.Random(3)
    one = T6.res_of(T6.wone())
    for n in (2, 3, 5):
        for _ in range(4):
            dw = tuple(rng.randrange(T6.pa) for _ in range(T6.f))
            w = T6.wadd(T6.wone(), T6.wscal(dw, T6.p))
            z = w_nth_root_oneunit(T6, w, n)
            assert T6.res_of(z) == one and T6.wpow(z, n) == w


def _state(x):
    return (x.v, x.core, x.prec, x.store)


def test_apply_matches_uncached_pi_powers(E, T6):
    rng = random.Random(4)
    maps = [s.emb for s in enumerate_subfields(T6)] + automorphisms(E)
    for emb in maps:
        S = emb.src
        seen = []
        for v in range(-12, 13):
            x = S.random_unit(rng).shift(v)
            want = _former_apply(emb, x)  # powers pi_img^v without the cache
            assert _state(emb.apply(x)) == _state(emb.apply(x)) == _state(want)
            assert _state(emb._pi_pow(v)) == _state(emb.pi_img**v)
            seen.append((x, want))
        # every valuation again, now that all of them are cached
        for x, want in seen:
            assert _state(emb.apply(x)) == _state(want)
        far = S.kint + 1
        assert _state(emb._pi_pow(far)) == _state(emb.pi_img**far)
        assert _state(emb._pi_pow(-far)) == _state(emb.pi_img**-far)
        assert far not in emb._pi_pows and -far not in emb._pi_pows
        assert len(emb._pi_pows) <= 2 * S.kint + 1


def _ramified_subfields_by_frobenius(T):
    """enumerate_subfields' proper ramified subfields as (steps, embedding),
    with "the residue of xi^(j e') U_T lies in F_{q'}" decided by the
    Frobenius matrix, as the lattice scan once did."""
    out = []
    p = T.p
    for fp in [d for d in range(1, T.f + 1) if T.f % d == 0]:
        qs = p**fp
        for ep in [d for d in range(2, T.e + 1) if T.e % d == 0]:
            if (fp, ep) == (T.f, T.e):
                continue
            ncl = (T.q - 1) // (qs - 1)
            for j in range(ncl):
                dres = T.res_of(T.wmul(T.xi_pow(j * ep), T.U))
                if T.res_of(T.wpow(dres, p**fp)) != dres:
                    continue
                if fp == 1:
                    steps = (TameRamified(ep, dres[0]),)
                else:
                    d0 = T.dlog_res(T.subres_generator(fp))
                    m = (T.dlog_res(dres) // ncl) * pow(d0 // ncl, -1, qs - 1)
                    steps = (Unramified(fp), TameRamified(ep, ("gen", m % (qs - 1))))
                S = make_tower(p, steps, T.k)
                emb = next(e for e in find_embeddings(S, T)
                           if T.dlog_res(e.pi_img.residue()) % ncl == j)
                out.append((S, emb))
    out.sort(key=lambda t: (t[0].degree, t[0].f, t[0].e))
    return [(S.steps, emb.x_img.serialize(), emb.pi_img.serialize())
            for S, emb in out]


@pytest.mark.parametrize("p, steps, k", [
    (7, (Unramified(2), TameRamified(3, 1)), 10),
    (11, (Unramified(2), TameRamified(2, 1)), 8),
    (7, (Unramified(2), TameRamified(3, ("gen", 1))), 6),
    (5, (Unramified(2), TameRamified(6, 2)), 6),
    (3, (Unramified(4), TameRamified(2, ("gen", 2))), 4),
    (5, (Unramified(3), TameRamified(4, ("gen", 4))), 4),
])
def test_subfield_scan_matches_frobenius_membership(p, steps, k):
    T = make_tower(p, steps, k)
    got = [(s.S.steps, s.emb.x_img.serialize(), s.emb.pi_img.serialize())
           for s in enumerate_subfields(T) if 1 < s.S.e and s.S is not T]
    assert got == _ramified_subfields_by_frobenius(T)
    assert got


def _frob_w(T, x, power):
    """x under Frobenius^power, as TowerField.frob_w once computed it: the
    generator's image g is x^p Hensel-lifted to a root of h, composed power
    times, and x is applied to it through the matrix of its powers."""
    power %= T.f
    if power == 0:
        return x
    g = T.hensel_root(T.h, T.wpow((0, 1) + (0,) * (T.f - 2), T.p))
    img = g
    for _ in range(power - 1):
        img = T._weval_poly(img, g)
    cols, cur = [], T.wone()
    for _ in range(T.f):
        cols.append(cur)
        cur = T.wmul(cur, img)
    return tuple(sum(map(mul, x, row)) % T.pa for row in zip(*cols))


def _generator_images_by_frobenius(S, T):
    """_generator_images as once written: for S.f = T.f > 1 the generator's
    Frobenius conjugates, otherwise the library's residue-root scan."""
    if 1 < S.f == T.f:
        gen = (0, 1) + (0,) * (T.f - 2)
        return [_frob_w(T, gen, b) for b in range(T.f)]
    return _generator_images(S, T)


def _trace_by_frobenius(T, x):
    s = x
    for b in range(1, T.f):
        s = T.wadd(s, _frob_w(T, x, b))
    assert not any(s[1:]), "the Frobenius sum is not a scalar"
    return s[0]


def _maps(maps):
    return [(m.x_img.serialize(), m.pi_img.serialize()) for m in maps]


# unram(3) at p = 3, a step degree divisible by p, is listed last so that
# the other cases keep their test ids
_GALOIS_FIELDS = [(p, (Unramified(f),), 4) for p in (3, 5, 7, 11, 13)
                  for f in (2, 3, 4, 5)
                  if (f < 5 or p == 3) and (p, f) != (3, 3)] + [
    (11, (Unramified(2), TameRamified(7, 1)), 8),
    (7, (Unramified(2), TameRamified(3, 1)), 6),
    (3, (Unramified(3),), 4),
]


@pytest.mark.parametrize("p, steps, k", _GALOIS_FIELDS)
def test_conjugates_and_traces_match_the_frobenius_route(p, steps, k,
                                                         monkeypatch):
    T = make_tower(p, steps, k)
    got = automorphisms(T)
    assert len(got) >= T.f  # the ramified step's roots of unity may be missing
    rng = random.Random(p * 100 + T.f * 10 + T.e)
    for _ in range(20):
        x = tuple(rng.randrange(T.pa) for _ in range(T.f))
        assert T.trace_w(x) == _trace_by_frobenius(T, x)
    monkeypatch.setattr(embeddings_module, "_generator_images",
                        _generator_images_by_frobenius)
    assert _maps(got) == _maps(automorphisms(T))


def test_compositum_embeddings_match_the_frobenius_route(monkeypatch):
    # coset_products' unram(2) at p = 11 and its compositum with E
    E = make_tower(11, (TameRamified(7, 1),), 28)
    L = make_tower(11, (Unramified(2),), 16)
    K = compositum_abstract(E, L, 66)[0]
    got = find_embeddings(L, K)
    assert len(got) == 2
    monkeypatch.setattr(embeddings_module, "_generator_images",
                        _generator_images_by_frobenius)
    assert _maps(got) == _maps(find_embeddings(L, K))


# ------------------------------------------- the former element-loop norm layer


def _former_apply(emb, x):
    """EmbeddingMap.apply as it read with element loops: one element per
    basis image, scaled, made and added in core order."""
    S, T = emb.src, emb.dst
    rho = T.e // S.e
    if x.is_zero():
        return T.zero_bounded(x.prec * rho if x.prec != float("inf") else x.prec)
    acc = T.zero()
    for i, w in enumerate(x.core):
        for j, c in enumerate(w):
            if c:
                acc = acc + (emb.pi_img**i * emb.x_img**j)._scal(c)
    if x.v:
        acc = acc * emb.pi_img**x.v
    return acc.cap_window(rho * x.window())


def _former_setup(sub):
    """(minv rows, basis, basis elements), built from element products."""
    S, T = sub.S, sub.T
    basis = [(ib, jb) for ib in range(T.e // S.e) for jb in range(T.f // S.f)]
    x_t, pi_t = identity_embedding(T).x_img, T.uniformizer()
    belems = [pi_t**ib * x_t**jb for ib, jb in basis]
    x_s, pi_s = identity_embedding(S).x_img, S.uniformizer()
    semb = [_former_apply(sub.emb, pi_s**i * x_s**j)
            for i in range(S.e) for j in range(S.f)]
    cols = [_former_coords(T, be * se) for be in belems for se in semb]
    mat = [[col[r] for col in cols] for r in range(T.degree)]
    return zmodpk.inverse(mat, T.p, T.pa), basis, belems


def _former_coords(T, x):
    return [c for w in T.rshift_up(x.core, x.v) for c in w]


def _former_decompose(sub, x, setup):
    minv, basis, _ = setup
    S, T = sub.S, sub.T
    if x.is_zero():
        if x.prec == float("inf"):
            return [S.zero() for _ in basis]
        return [S.zero_bounded(S.e * (int(x.prec) // T.e)) for _ in basis]
    coords = _former_coords(T, x)
    y = [sum(map(mul, row, coords)) % T.pa for row in minv]
    sprec = S.e * (int(min(x.window(), T.kint)) // T.e)
    out = []
    for b in range(len(basis)):
        block = y[b * S.degree:(b + 1) * S.degree]
        core = tuple(tuple(block[i * S.f + j] % S.pa for j in range(S.f))
                     for i in range(S.e))
        out.append(S.make(0, core, sprec, S.e * min(T.a, S.a)))
    return out


def _former_mult_matrix(sub, x, setup):
    cols = [_former_decompose(sub, x * be, setup) for be in setup[2]]
    return [[col[i] for col in cols] for i in range(len(cols))]


def _former_berkowitz(a, zero, one):
    n = len(a)
    vec = [one, -a[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        m = n - k - 1
        row = a[k][k + 1:]
        sub = [r[k + 1:] for r in a[k + 1:]]
        t = [one, -a[k][k]]
        w = [a[i][k] for i in range(k + 1, n)]
        for j in range(m):
            s = zero
            for ri, wi in zip(row, w):
                s = s + ri * wi
            t.append(-s)
            if j < m - 1:
                w = [sum((r[l] * w[l] for l in range(m)), zero) for r in sub]
        new = []
        for i in range(m + 2):
            s = zero
            for j in range(min(i, m + 1) + 1):
                if i - j < len(t) and j < len(vec):
                    s = s + t[i - j] * vec[j]
            new.append(s)
        vec = new
    return vec


def _former_charpoly(sub, x, setup):
    """(charpoly of x p^m, m) as the former mult_matrix and Berkowitz gave
    it, with the former Horner's product by one for norms_of_shift."""
    xi, m = sub._scaled(x)
    return _former_berkowitz(_former_mult_matrix(sub, xi, setup),
                             sub.S.zero(), sub.S.one()), m


def _table_element(F, rng, nonzero=False):
    """A sparse element with p-divisible digits and zero slots, at a random
    valuation in -6..3 and precision."""
    core = tuple(tuple(rng.choice((0, 0, 0, 1, F.p, F.p**2)) * rng.randrange(F.pa)
                       % F.pa for _ in range(F.f)) for _ in range(F.e))
    x = F.make(rng.randrange(-6, 4), core, rng.randrange(1, F.kint + 1),
               rng.randrange(F.kint // 2, F.kint + 1))
    return _table_element(F, rng, True) if nonzero and x.is_zero() else x


def _norm_layer_contexts():
    """The five compositum contexts of coset_products' 8 (shape, m) classes
    (unram(2) at k = 66, 74, 102, ram(2, u=g^0), ram(2, u=g^1) at 128) and
    rank-1's prime subfield of Q_7(7^(1/5))."""
    pair = converse.build_twin_characters(converse.TwinConfig(p=11, N=7, precision=28))
    seen = {}
    for tw in islice(converse.iter_twist_pairs(11, 2, 4, 16), 600):
        ctx = converse._context_for(pair.E, 7, tw)
        seen.setdefault(id(ctx), ctx)
    rank1 = converse.build_twin_characters(converse.TwinConfig(p=7, N=5, precision=12))
    return list(seen.values()), _subfield_handle(rank1.E, 1)


def test_column_tables_match_the_former_element_loops():
    ctxs, rank1 = _norm_layer_contexts()
    assert len(ctxs) == 5
    rng = random.Random(30)
    # serialize() and the stored-digit count, so every stored int and bound
    ser = lambda xs: [(x.serialize(), x.store) for x in xs]  # noqa: E731
    handles = [h for c in ctxs for h in (c["handleE"], c["handleF"])] + [rank1]
    maps = [c[k] for c in ctxs for k in ("iE", "iL", "embF")] + [rank1.emb]
    for emb in maps:
        xs = [_table_element(emb.src, rng) for _ in range(24)]
        xs += [emb.src.zero(), emb.src.zero_bounded(5)]
        assert ser(map(emb.apply, xs)) == ser(_former_apply(emb, x) for x in xs)
    for sub in handles:
        S, T = sub.S, sub.T
        setup = _former_setup(sub)
        for _ in range(10):
            x = _table_element(T, rng, True)
            y = sub._scaled(x)[0]
            assert ser(sub.decompose(y)) == ser(_former_decompose(sub, y, setup))
            assert ser(c for r in sub.mult_matrix(y) for c in r) == ser(
                c for r in _former_mult_matrix(sub, y, setup) for c in r)
            chi, m = _former_charpoly(sub, x, setup)
            n = len(chi) - 1
            det = (chi[n] if n % 2 == 0 else -chi[n]).div_p(m * n)
            assert ser([sub.norm(x)]) == ser([det])
            assert ser(sub.charpoly(x)) == ser(c.div_p(m * i) for i, c in enumerate(chi))
            b = _table_element(S, rng, True)
            t, val = -b.div_p(-m), chi[0]
            for c in chi[1:]:
                val = val * t + c
            if n % 2:
                val = -val
            assert ser(sub.norms_of_shift(x, b)) == ser(
                (val.div_p(m * n), det))


def test_table_mult_matrix_makes_no_ring_product_in_T(monkeypatch):
    # once a handle has its tables, a matrix is one column sum and one make
    # per entry; rmul is patched on the instance, as an f = 1 field binds its own
    sub = _norm_layer_contexts()[0][0]["handleE"]
    T = sub.T
    x = sub._scaled(_table_element(T, random.Random(31), True))[0]
    sub.mult_matrix(x)
    calls = []
    rmul = T.rmul
    monkeypatch.setattr(T, "rmul", lambda a, b: calls.append(1) or rmul(a, b))
    mat = sub.mult_matrix(x)
    assert calls == [] and len(mat) == sub.index == 2
    # a 2 x 2 Berkowitz multiplies neither by one nor into zero: 2 products
    mul_ = TowerElement.__mul__
    monkeypatch.setattr(TowerElement, "__mul__",
                        lambda a, b: calls.append(1) or mul_(a, b))
    vec = zmodpk.charpoly_berkowitz(mat, sub.S.one())
    assert len(calls) == 2 and len(vec) == 3
