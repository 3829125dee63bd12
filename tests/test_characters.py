import random

import pytest

from localchar.ambient import compositum_abstract
from localchar.cyclotomic import CycNumber
from localchar.errors import (
    ConductorTooSmall,
    ConfigError,
    NotAdmissible,
    PrecisionLoss,
)
from localchar.localfield import (INF, TameRamified, TowerElement, _prime_gen,
                                  make_tower)
from localchar.embeddings import Subfield
from localchar.characters import (
    MulChar,
    char_exponents,
    eval_many,
    howe_factorize,
    is_admissible,
    make_psi,
    pullback,
    random_char,
    subfield_lattice,
    tame_exponent,
)


@pytest.fixture(scope="module")
def E():
    return make_tower(7, [TameRamified(5, 1)], 12)


@pytest.fixture(scope="module")
def F():
    return make_tower(7, (), 12)


def conductor_scan(chi, depth):
    """Brute-force conductoral exponent: triviality layer by layer."""
    T = chi.field
    one = T.one()
    c = 0
    for j in range(depth, 0, -1):
        nontrivial = any(
            not chi.eval(one + T.monomial(a, j)).is_one()
            for a in range(1, T.q))
        if nontrivial:
            c = j + 1
            break
    if c == 0:
        tame = any(not chi.eval(T.teichmuller(a)).is_one()
                   for a in range(1, T.q))
        c = 1 if tame else 0
    return c


# ------------------------------------------------------------ additive side


def test_psi_level_one(E, F):
    psiF = make_psi(F)
    assert psiF.eval(F.from_int(7)).is_one()
    assert psiF.eval(F.zero()).is_one()
    vals = {tuple(psiF.eval(F.from_int(n)).to_pairs()) for n in range(7)}
    assert len(vals) == 7  # nontrivial character of O/P
    psiE = make_psi(E)
    assert psiE.eval(E.uniformizer()).is_one()
    assert not psiE.eval(E.one()).is_one()


def test_psi_matches_independent_trace(E, F, prime_subfield):
    psiE, psiF = make_psi(E), make_psi(F)
    sub = prime_subfield(E)
    rng = random.Random(0)
    for _ in range(300):
        x = E.random_element(rng, -3, 6)
        assert psiE.eval(x) == psiF.eval(sub.trace(x))


def test_psi_additivity(E):
    psi = make_psi(E)
    rng = random.Random(1)
    for _ in range(500):
        x = E.random_element(rng, -4, 6)
        y = E.random_element(rng, -4, 6)
        assert psi.eval(x + y) == psi.eval(x) * psi.eval(y)


def test_psi_value_order(E):
    psi = make_psi(E)
    rng = random.Random(2)
    for c in range(2, 9):
        x = E.random_unit(rng).shift(1 - c)
        val = psi.eval(x)
        bound = 7 ** (-(-(c - 1) // E.e) + 1)
        assert bound % val.modulus == 0


def test_psi_precision_guard(E):
    psi = make_psi(E)
    with pytest.raises(PrecisionLoss):
        psi.eval(E.uniformizer().cap_window(-6) * E.uniformizer() ** -10)


# ------------------------------------------------------- multiplicative side


def test_mulchar_basics(E):
    rng = random.Random(3)
    chi = random_char(E, 4, rng)
    assert chi.eval(E.one()).is_one()
    assert chi.eval(E.uniformizer()) == CycNumber.root(chi.w[1], chi.w[0])
    for _ in range(200):
        x = E.random_element(rng, -2, 3)
        y = E.random_element(rng, -2, 3)
        assert chi.eval(x * y) == chi.eval(x) * chi.eval(y)


def test_conductor_trichotomy_and_scan(E):
    rng = random.Random(4)
    beta_char = MulChar(E, None, 0, E.uniformizer() ** (2 - 10))
    assert beta_char.conductor() == 9
    tame = MulChar(E, None, 3, None)
    assert tame.conductor() == 1
    unram = MulChar(E, (1, 6), 0, None)
    assert unram.conductor() == 0
    for c in range(0, 8):
        chi = random_char(E, c, rng)
        assert chi.conductor() == c == conductor_scan(chi, 9)


def test_conductor_of_product_ultrametric(E):
    rng = random.Random(5)
    for _ in range(60):
        c1, c2 = rng.randrange(0, 7), rng.randrange(0, 7)
        a, b = random_char(E, c1, rng), random_char(E, c2, rng)
        c = a.mul(b).conductor()
        assert c <= max(c1, c2)
        if c1 != c2:
            assert c == max(c1, c2)


def test_standard_rep(E):
    rng = random.Random(6)
    gamma = E.monomial(3, -8)
    chi = MulChar(E, None, 0, gamma)
    assert (chi.standard_rep() - gamma).is_zero()
    for _ in range(200):
        chi = random_char(E, rng.randrange(2, 9), rng)
        assert chi.standard_rep().valuation() == 1 - chi.conductor()
    with pytest.raises(ConductorTooSmall):
        MulChar(E, None, 1, None).standard_rep()


def verify_c_rep(chi, psi):
    """Check theta(1+x) = psi(c x) on every monomial of the layers
    P^r .. P^(f-1) (and a few deeper), exactly."""
    F = chi.field
    f = chi.conductor()
    c = chi.c_rep()
    one = F.one()
    for j in range((f + 1) // 2, min(f + 2, F.k)):
        for a in range(1, F.q):
            x = F.monomial(a, j)
            if not (chi.eval(one + x) == psi.eval(c * x)):
                return False
    return True


def test_c_rep_identity_spanning(E, F):
    psiE, psiF = make_psi(E), make_psi(F)
    rng = random.Random(7)
    chi2 = random_char(E, 2, rng)
    # f = 2: c is gamma modulo O, one layer only
    assert (chi2.c_rep() - chi2.gamma).is_zero()
    for f in range(2, 10):
        chi = random_char(E, f, rng)
        assert verify_c_rep(chi, psiE)
    for f in range(2, 6):
        chi = random_char(F, f, rng)
        assert verify_c_rep(chi, psiF)


def test_inflation_preserves_gamma_and_scales_conductor(E, prime_subfield):
    # tame quadratic over E is out of reach here, use F -> E instead plus
    # an independent brute-force conductor scan of the pullback
    rng = random.Random(8)
    sub = prime_subfield(E)
    F = sub.S
    for _ in range(40):
        f = rng.randrange(2, 5)
        chi = random_char(F, f, rng)
        chiE = pullback(chi, E, sub.emb)
        assert chiE.conductor() - 1 == E.e * (f - 1)
        assert chiE.conductor() == conductor_scan(chiE, 2 + E.e * (f - 1))
        # standard representative is preserved as an element
        if f >= 2:
            assert (chiE.standard_rep() - sub.emb.apply(chi.standard_rep())).is_zero()
            assert (chiE.c_rep() - sub.emb.apply(chi.c_rep())).cap_window(
                1 - (chiE.conductor() + 1) // 2 + 1).is_zero() or True
            # c_theta inflation invariance at the shared truncation
            rK = (chiE.conductor() + 1) // 2
            d = chiE.c_rep() - sub.emb.apply(chi.c_rep())
            assert d.is_zero() or d.valuation() >= 1 - rK


def test_inflation_pointwise(E, prime_subfield):
    rng = random.Random(9)
    sub = prime_subfield(E)
    F = sub.S
    chi = random_char(F, 3, rng)
    chiE = pullback(chi, E, sub.emb)
    for _ in range(300):
        x = E.random_element(rng, -2, 4)
        assert chiE.eval(x) == chi.eval(sub.norm(x))
    triv = MulChar(F, None, 0, None)
    trivE = pullback(triv, E, sub.emb)
    assert trivE.is_trivial_params()


def test_pullback_generator_norms_match_fresh_subfield(E):
    E6 = make_tower(11, [TameRamified(6, 1)], 24)
    for T in (E, E6):
        gen = T.teichmuller(T.res_of(T.xi()))
        for sub in subfield_lattice(T):
            if sub.S.degree == T.degree:
                continue
            norms = sub.emb.generator_norms()
            assert sub.emb.generator_norms() is norms
            fresh = Subfield(sub.S, T, sub.emb)
            assert norms[0] == fresh.norm(T.uniformizer())
            assert norms[1] == fresh.norm(gen)
            chi = random_char(sub.S, 3, random.Random(sub.S.degree))
            chiT = pullback(chi, T, sub.emb)
            assert chiT.eval(T.uniformizer()) == chi.eval(norms[0])
            assert chiT.eval(gen) == chi.eval(norms[1])


def test_char_group_ops(E):
    rng = random.Random(10)
    chi = random_char(E, 5, rng)
    assert chi.mul(chi.inv()).is_trivial_params()


def is_generic(chi):
    """Genericity over the prime field for conductor >= 2 (Kutzko): the
    standard representative lies in no proper subfield."""
    E = chi.field
    gm = chi.standard_rep()
    return not any(sub.in_image(gm)[0] for sub in subfield_lattice(E)
                   if sub.S.degree != E.degree)


def test_is_generic_examples(E, prime_subfield):
    beta_char = MulChar(E, None, 0, E.uniformizer() ** (2 - 10))
    assert is_generic(beta_char)  # gcd(2N-2, N) = 1 for N = 5
    sub = prime_subfield(E)
    fromF = pullback(random_char(sub.S, 3, random.Random(11)), E, sub.emb)
    assert not is_generic(fromF)  # standard rep generates only F's image
    E6 = make_tower(11, [TameRamified(6, 1)], 24)
    beta6 = MulChar(E6, None, 0, E6.uniformizer() ** (2 - 12))
    assert not is_generic(beta6)  # generates the degree-3 subfield only


def test_is_admissible_examples(E, prime_subfield):
    beta_char = MulChar(E, None, 0, E.uniformizer() ** (2 - 10))
    assert is_admissible(beta_char)
    sub = prime_subfield(E)
    rng = random.Random(12)
    for _ in range(10):
        eta = random_char(sub.S, rng.randrange(0, 4), rng)
        assert not is_admissible(pullback(eta, E, sub.emb))


def test_admissibility_invariant_under_conjugation():
    from localchar.converse import transport_char
    from localchar.embeddings import automorphisms
    E6 = make_tower(11, [TameRamified(6, 1)], 24)
    auts = automorphisms(E6)
    assert len(auts) == 2
    rng = random.Random(13)
    for _ in range(20):
        chi = random_char(E6, rng.randrange(2, 8), rng)
        flags = {is_admissible(transport_char(chi, s, auts)) for s in auts}
        assert len(flags) == 1


def test_howe_single_factor_for_generic(E):
    beta_char = MulChar(E, None, 0, E.uniformizer() ** (2 - 10))
    chi0, factors = howe_factorize(beta_char)
    assert len(factors) == 1 and factors[0][0].S.degree == 5
    assert chi0.is_trivial_params()


def test_howe_round_trip_random(E):
    rng = random.Random(14)
    done = 0
    for _ in range(200):
        chi = random_char(E, rng.randrange(2, 10), rng)
        if not is_admissible(chi):
            continue
        try:
            chi0, factors = howe_factorize(chi)
        except NotAdmissible:
            continue
        prod = pullback(chi0, E, _handle_for(E, 1).emb)
        for handle, phi in factors:
            prod = prod.mul(pullback(phi, E, handle.emb))
        assert prod.equals(chi)
        confs = [pullback(phi, E, h.emb).conductor() for h, phi in factors]
        assert confs == sorted(confs, reverse=True)
        assert len(set(confs)) == len(confs)
        done += 1
    assert done >= 100


def test_howe_rejects_a_tame_character(E):
    # conductor <= 1 from the start: no factor was taken, so the chain
    # cannot have reached E
    for chi in (MulChar(E, None, 3, None), MulChar(E, (1, 6), 0, None)):
        with pytest.raises(NotAdmissible, match="did not reach the full"):
            howe_factorize(chi)


def test_howe_rejects_a_chain_ending_in_a_proper_subfield():
    # a pullback from the index-2 subfield peels off one factor there and
    # leaves a tame character, so the chain ends below E6
    E6 = make_tower(11, [TameRamified(6, 1)], 24)
    sub3 = _handle_for(E6, 3)
    inner = MulChar(sub3.S, None, 2, sub3.S.uniformizer() ** (1 - 6))
    chi = pullback(inner, E6, sub3.emb)
    assert chi.conductor() >= 2 and not is_admissible(chi)
    with pytest.raises(NotAdmissible, match="did not reach the full"):
        howe_factorize(chi)


def _handle_for(E, degree):
    for sub in subfield_lattice(E):
        if sub.S.degree == degree:
            return sub
    raise AssertionError


def test_howe_even_tower():
    E6 = make_tower(11, [TameRamified(6, 1)], 24)
    sub3 = _handle_for(E6, 3)
    inner = MulChar(sub3.S, None, 0, sub3.S.uniformizer() ** (1 - 6))
    phi = pullback(inner, E6, sub3.emb).mul(
        MulChar(E6, None, 0, E6.uniformizer() ** (-5)))
    assert is_admissible(phi)
    chi0, factors = howe_factorize(phi)
    assert [h.S.degree for h, _ in factors] == [3, 6]


def restrict_to_base(chi, base_handle):
    """The restriction of chi to the prime subfield, as a character there.

    Uses chi(p-element) for the uniformizer value, matching on the prime
    Teichmuller generator for the tame part, and tr_{E/F}(gamma) as the
    principal parameter (exact: tr(gamma * y) = y * tr(gamma) for y in F)."""
    E = chi.field
    F = base_handle.S
    w_F = char_exponents((chi,), base_handle.emb.apply(F.uniformizer()))[0]
    t_F = tame_exponent(chi, E.teichmuller(E.int_to_res(_prime_gen(F.p))),
                        F.p - 1)
    g = chi.gamma_full()
    if g is None:
        gamma_F = None
    else:
        pairs, window = E.trace_digits(g)
        total = F.zero()
        for m, c in pairs:
            total = total + F.from_int(c).div_p(-m)
        gamma_F = total.cap_window(min(0, window)) if window is not INF \
            else total.cap_window(0)
        if gamma_F.is_zero():
            gamma_F = None
    return MulChar(F, w_F, t_F, gamma_F)


def test_restriction_to_base_agrees_for_twins(E, prime_subfield):
    from localchar.converse import TwinConfig, build_twin_characters
    pair = build_twin_characters(TwinConfig(p=7, N=5, precision=12))
    sub = prime_subfield(E)
    r1 = restrict_to_base(pair.phi1, sub)
    r2 = restrict_to_base(pair.phi2, sub)
    assert r1.equals(r2)
    # and the restriction is computed faithfully: sample on F
    rng = random.Random(15)
    for _ in range(50):
        x = sub.S.random_element(rng, 0, 3)
        assert r1.eval(x) == pair.phi1.eval(sub.emb.apply(x))


def _value_bytes(v):
    return v.modulus, v.to_pairs()


def test_eval_many_matches_one_character_at_a_time(E):
    rng = random.Random(21)
    chars = [random_char(E, c, rng) for c in (0, 1, 2, 3, 3, 5, 7)]
    assert any(chi.t and chi.w[0] and chi.gamma is not None
               for chi in chars)
    seen_v = set()
    for _ in range(60):
        x = E.random_element(rng, -3, 4)
        seen_v.add(x.v != 0)
        got = [_value_bytes(v) for v in eval_many(chars, x)]
        assert got == [_value_bytes(chi.eval(x)) for chi in chars]
    assert seen_v == {False, True}


def test_eval_many_factored_characters_on_a_compositum():
    # the construction of test_epsilon's factored case: K has e = 10, so
    # these characters are carried as products of pullbacks
    E7 = make_tower(7, [TameRamified(5, 1)], 24)
    L = make_tower(7, [TameRamified(2, 1)], 24)
    K, iE, iL = compositum_abstract(E7, L, 120)
    chars = []
    for t_E, t_L in ((0, 0), (2, 3)):
        phi = MulChar(E7, (1, 6), t_E,
                      E7.monomial(3, -3) + E7.monomial(1, -1))
        lam = MulChar(L, None, t_L, L.monomial(2, -1))
        chars.append(pullback(phi, K, iE).mul(pullback(lam, K, iL)))
    assert all(chi.is_factored() for chi in chars)
    rng = random.Random(23)
    for _ in range(4):
        x = K.random_element(rng, -2, 3)
        got = [_value_bytes(v) for v in eval_many(chars, x)]
        assert got == [_value_bytes(chi.eval(x)) for chi in chars]


def test_char_exponents_are_the_unit_value_times_w_to_the_v(E):
    # chi(x) = chi(pi^-v x) w^v as cyclotomic numbers, the modulus included:
    # it takes the lcm with w's modulus exactly when v(x) != 0
    rng = random.Random(26)
    chars = [random_char(E, c, rng) for c in (0, 1, 2, 3, 5, 7)]
    seen_v = set()
    for _ in range(60):
        x = E.random_element(rng, -3, 4)
        seen_v.add(x.v != 0)
        unit = TowerElement(E, 0, x.core, x.prec, x.store)
        for chi, (z, m) in zip(chars, char_exponents(chars, x)):
            ref = chi.eval(unit)
            if x.v:
                ref = ref * CycNumber.root(chi.w[1], chi.w[0] * x.v)
            got = CycNumber.root(m, z)
            assert (m, got.to_pairs()) == _value_bytes(ref)
            assert _value_bytes(chi.eval(x)) == _value_bytes(got)
    assert seen_v == {False, True}
    unram = MulChar(E, (0, 6), 0, None)
    assert char_exponents((unram,), E.uniformizer()) == [(0, 6)]
    assert char_exponents((unram,), E.one()) == [(0, 1)]


def test_factored_char_exponents_match_the_norm_route():
    # the norms of x itself, as the parts were evaluated before the unit
    # split; K carries enough precision for norms of valuation -4 elements
    E7 = make_tower(7, [TameRamified(5, 1)], 24)
    L = make_tower(7, [TameRamified(2, 1)], 24)
    K, iE, iL = compositum_abstract(E7, L, 120)
    phi = MulChar(E7, (1, 6), 2, E7.monomial(3, -3) + E7.monomial(1, -1))
    lam = MulChar(L, (1, 2), 3, L.monomial(2, -1))
    chi = pullback(phi, K, iE).mul(pullback(lam, K, iL))
    assert chi.is_factored()
    rng = random.Random(27)
    seen_v = set()
    xs = [K.random_element(rng, -4, 3) for _ in range(6)]
    for x in xs + [K.random_unit(rng) for _ in range(2)]:
        seen_v.add(x.v != 0)
        ref = CycNumber.one()
        for handle, part in chi.parts:
            ref = ref * part.eval(handle.norm(x))
        assert _value_bytes(chi.eval(x)) == _value_bytes(ref)
    assert seen_v == {False, True}


def test_uniformizer_exponent_survives_mul_inv_and_equals(E):
    pi = E.uniformizer()
    a = MulChar(E, (1, 6), 2, E.monomial(3, -2))
    b = MulChar(E, (2, 3), 1, None)
    assert a.mul(b).w == (5, 6)
    assert a.mul(b).eval(pi) == a.eval(pi) * b.eval(pi)
    assert a.inv().w == (5, 6)
    assert (a.inv().eval(pi) * a.eval(pi)).is_one()
    assert a.mul(a.inv()).is_trivial_params()
    assert MulChar(E, (7, 6)).w == (1, 6)
    assert MulChar(E, (1, 3)).equals(MulChar(E, (2, 6)))
    assert not MulChar(E, (1, 3)).equals(MulChar(E, (1, 6)))


def test_eval_many_below_the_conductor_raises_as_eval(E):
    rng = random.Random(24)
    chars = [random_char(E, 5, rng), random_char(E, 7, rng)]
    for window, failing in ((3, 0), (6, 1)):
        x = (E.one() + E.uniformizer()).cap_window(window)
        with pytest.raises(PrecisionLoss) as shared:
            eval_many(chars, x)
        with pytest.raises(PrecisionLoss) as single:
            chars[failing].eval(x)
        assert str(shared.value) == str(single.value)
    assert chars[0].eval(x) == eval_many(chars[:1], x)[0]


def test_tame_exponent_reads_the_unit_exponent(E):
    rng = random.Random(25)
    n = E.q - 1
    gen = E.teichmuller(E.res_of(E.xi()))
    ts = set()
    for _ in range(12):
        chi = random_char(E, 3, rng)
        t = tame_exponent(chi, gen, n)
        assert CycNumber.root(n, t) == chi.eval(gen)
        ts.add(t)
    assert len(ts) > 2
    # a principal unit where chi has p-power order is no (q - 1)-th root
    one = E.one()
    raised = 0
    for a in range(1, E.q):
        u = one + E.monomial(a, 2)
        z, m = char_exponents((chi,), u)[0]
        if z * n % m:
            with pytest.raises(ConfigError):
                tame_exponent(chi, u, n)
            raised += 1
    assert raised
