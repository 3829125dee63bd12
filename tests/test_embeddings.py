import random

import pytest

from localchar.embeddings import (
    automorphisms,
    enumerate_subfields,
    find_embeddings,
    identity_embedding,
    verify_embedding,
    w_nth_root_oneunit,
)
from localchar.localfield import TameRamified, Unramified, make_tower


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


def test_norm_valuation_identity(E, prime_subfield):
    # val_F(N(x)) = f(E/F) val_E(x); here f = 1
    sub = prime_subfield(E)
    rng = random.Random(0)
    for _ in range(100):
        x = E.random_element(rng, -3, 6)
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
