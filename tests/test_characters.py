import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from localchar.ambient import compositum_abstract
from localchar.cyclotomic import CycNumber
from localchar.errors import (
    ConductorTooSmall,
    ConfigError,
    NotAdmissible,
    PrecisionLoss,
    UnsupportedShape,
)
from localchar.localfield import (INF, TameRamified, TowerElement, Unramified,
                                  _prime_gen, make_tower)
from localchar.embeddings import Subfield, self_subfield
from localchar.characters import (
    MulChar,
    _add_exponents,
    admissible_on_digits,
    char_exponents,
    eval_many,
    howe_factorize,
    is_admissible,
    make_psi,
    pullback,
    pullbacks,
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
            chi.eval(one + T.monomial(a, j)) != 1
            for a in range(1, T.q))
        if nontrivial:
            c = j + 1
            break
    if c == 0:
        tame = any(chi.eval(T.teichmuller(a)) != 1
                   for a in range(1, T.q))
        c = 1 if tame else 0
    return c


# ------------------------------------------------------------ additive side


def test_psi_level_one(E, F):
    psiF = make_psi(F)
    assert psiF.eval(F.from_int(7)) == 1
    assert psiF.eval(F.zero()) == 1
    vals = {tuple(psiF.eval(F.from_int(n)).to_pairs()) for n in range(7)}
    assert len(vals) == 7  # nontrivial character of O/P
    psiE = make_psi(E)
    assert psiE.eval(E.uniformizer()) == 1
    assert psiE.eval(E.one()) != 1


def test_psi_matches_independent_trace(E, F, prime_subfield, random_element):
    psiE, psiF = make_psi(E), make_psi(F)
    sub = prime_subfield(E)
    rng = random.Random(0)
    for _ in range(300):
        x = random_element(E, rng, -3, 6)
        assert psiE.eval(x) == psiF.eval(sub.trace(x))


def test_psi_additivity(E, random_element):
    psi = make_psi(E)
    rng = random.Random(1)
    for _ in range(500):
        x = random_element(E, rng, -4, 6)
        y = random_element(E, rng, -4, 6)
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


def _exponent_by_trace_digits(F, x):
    """psi(x) as exponent pairs from the trace digits: the former
    TowerField.trace_digits, with its p-adic window checked against P^1."""
    pairs = []
    if x.is_zero():
        window = INF if x.prec is INF else -(-x.prec // F.e)
    else:
        for i in range(F.e):
            if (x.v + i) % F.e == 0:
                m = (x.v + i) // F.e
                c = F.e * F.trace_w(F.wmul(x.core[i], F.upow(m))) % F.pa
                if c:
                    pairs.append((m, c))
        window = -(-x.window() // F.e)
    if window < 1:
        raise PrecisionLoss("additive character needs the element mod P^1")
    return make_psi(F).digit_exponent(*(pairs[0] if pairs else (0, 0)))


@pytest.mark.parametrize("shape", [
    (11, (), 6),
    (11, (Unramified(2),), 6),
    (7, (Unramified(3),), 4),
    (11, (TameRamified(7, 2),), 12),
    (11, (Unramified(2), TameRamified(7, ("gen", 1))), 12),
    (11, (TameRamified(14, 1),), 12),
])
def test_exponent_matches_the_trace_digits(shape, random_element):
    """exponent is the one-slot trace form at 1: the same pairs, and the
    same PrecisionLoss, as the trace digits it replaced."""
    F = make_tower(*shape)
    psi = make_psi(F)
    rng = random.Random(F.q * F.e)
    xs = [F.zero()] + [F.zero_bounded(b) for b in range(-3, 4)]
    for _ in range(400):
        x = random_element(F, rng, -2 * F.e, 3 * F.e)
        xs.append(x.cap_window(rng.randrange(x.v - 2, x.v + F.kint + 1)))
    raised = 0
    for x in xs:
        try:
            ref = _exponent_by_trace_digits(F, x)
        except PrecisionLoss:
            raised += 1
            with pytest.raises(PrecisionLoss):
                psi.exponent(x)
        else:
            assert psi.exponent(x) == ref
    assert 0 < raised < len(xs)


# ------------------------------------------------------- multiplicative side


def test_mulchar_basics(E, random_element):
    rng = random.Random(3)
    chi = random_char(E, 4, rng)
    assert chi.eval(E.one()) == 1
    assert chi.eval(E.uniformizer()) == CycNumber.root(chi.w[1], chi.w[0])
    for _ in range(200):
        x = random_element(E, rng, -2, 3)
        y = random_element(E, rng, -2, 3)
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
    assert chi2.c_rep() is chi2.c_rep()  # formed once per character
    tame = random_char(E, 1, rng)
    for _ in range(2):  # a refused representative is refused every time
        with pytest.raises(ConductorTooSmall):
            tame.c_rep()
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


def test_inflation_pointwise(E, prime_subfield, random_element):
    rng = random.Random(9)
    sub = prime_subfield(E)
    F = sub.S
    chi = random_char(F, 3, rng)
    chiE = pullback(chi, E, sub.emb)
    for _ in range(300):
        x = random_element(E, rng, -2, 4)
        assert chiE.eval(x) == chi.eval(sub.norm(x))
    triv = MulChar(F, None, 0, None)
    trivE = pullback(triv, E, sub.emb)
    assert is_trivial_params(trivE)


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
    assert is_trivial_params(chi.mul(chi.inv()))


def is_trivial_params(chi):
    return (chi.parts is None and chi.w[0] == 0 and
            chi.t % (chi.field.q - 1) == 0 and chi.gamma is None)


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


# The former admissibility route, kept as the reference: for every proper
# subfield, decompose gamma over it (_scaled, decompose, apply, div_p) and
# test the tame part of the norm kernel.


def _former_tame_norm_kernel_trivial(chi, sub):
    E = chi.field
    n = E.q - 1
    rel = (E.e // sub.S.e) * ((E.q - 1) // (sub.S.q - 1))
    g = n // math.gcd(rel, n)
    return (chi.t * g) % n == 0


def _former_principal_factors_through(chi, sub):
    g = chi.gamma_full()
    if g is None:
        return True
    y, m = sub._scaled(g)
    coeffs = sub.decompose(y)
    proj = sub.emb.apply(coeffs[0]).div_p(m)
    return (g - proj).cap_window(0).is_zero()


def _former_is_admissible(chi):
    E = chi.field
    for sub in subfield_lattice(E):
        if sub.S.degree == E.degree:
            continue
        if (_former_tame_norm_kernel_trivial(chi, sub)
                and _former_principal_factors_through(chi, sub)):
            return False
        if E.e // sub.S.e > 1 and _former_principal_factors_through(chi, sub):
            return False
    return True


def _gamma_of(L, digits):
    return sum((L.tau(k).shift(i) for i, k in digits), L.zero())


@pytest.mark.parametrize("p, r, bound, k, count", [
    (11, 2, 4, 16, 15157), (7, 2, 4, 12, 2613), (7, 3, 3, 12, 1076)])
def test_admissibility_on_digits_matches_the_subfield_route_on_every_candidate(
        p, r, bound, k, count):
    # every candidate of iter_twist_pairs(dedupe=False), kept or not
    from localchar.converse import iter_twist_pairs, tame_extensions
    kept, seen = [], set()
    for L, shape in tame_extensions(p, r, k):
        if L is None:
            continue
        cands = [(t, ()) for t in range(1, L.q - 1)]
        for m in range(1, bound):
            positions = range(-m, 1 - (m + 2) // 2)
            for combo in product(range(1, L.q),
                                 *[range(L.q)] * (len(positions) - 1)):
                cands.append((0, [(i, L.dlog_res(d))
                                  for i, d in zip(positions, combo) if d]))
        for t, digits in cands:
            lam = MulChar(L, None, t, _gamma_of(L, digits))
            want = _former_is_admissible(lam)
            assert is_admissible(lam) is want, (shape, t, digits)
            assert admissible_on_digits(L, t, digits) is want, (shape, t, digits)
            seen.add(want)
            if want:
                kept.append((shape, lam.conductor(), lam.t,
                             None if lam.gamma is None else lam.gamma.serialize()))
        count -= len(cands)
    assert count == 0 and seen == {True, False}
    assert sorted(kept, key=repr) == sorted(
        ((tw.shape, tw.lam.conductor(), tw.lam.t, None if tw.lam.gamma is None
          else tw.lam.gamma.serialize())
         for tw in iter_twist_pairs(p, r, bound, k, dedupe=False)), key=repr)


@pytest.mark.parametrize("p, steps", [
    (7, (TameRamified(5, 1),)), (11, (TameRamified(6, 1),)),
    (11, (TameRamified(7, 1),)), (13, (TameRamified(4, 2),)),
    (7, (Unramified(2),)), (5, (Unramified(4),))])
def test_admissibility_on_digits_matches_the_subfield_route_on_random_fields(
        p, steps):
    # half the draws confine gamma's digits (and, on unram(f), t) to a
    # proper subfield: positions at multiples of c | e, or exponents at
    # multiples of s = (q-1)/(p^f'-1), so both verdicts occur
    L = make_tower(p, steps, 12)
    n = L.q - 1
    rng = random.Random(p * 100 + L.degree)
    seen = set()
    for _ in range(150):
        c = rng.choice([d for d in range(1, L.degree + 1) if L.degree % d == 0])
        s = n // (p ** (L.f // c) - 1) if L.e == 1 else 1
        step = c if L.e > 1 else 1
        depth = rng.randrange(0, 8)
        digits = [(i, s * rng.randrange(n)) for i in range(-depth, 0)
                  if i % step == 0 and rng.random() < 0.6]
        t = rng.randrange(n)
        if rng.random() < 0.5:
            t -= t % s
        chi = MulChar(L, (rng.randrange(n), n), t, _gamma_of(L, digits))
        want = _former_is_admissible(chi)
        assert is_admissible(chi) is want, (c, t, digits)
        assert admissible_on_digits(L, chi.t, digits) is want, (c, t, digits)
        seen.add(want)
    assert seen == {True, False}


def test_admissibility_of_a_mixed_tower_is_an_unsupported_shape():
    T = make_tower(7, (Unramified(2), TameRamified(2, 1)), 12)
    for chi in (MulChar(T, None, 1, None),
                MulChar(T, None, 0, T.monomial(1, -3) + T.monomial(2, -1))):
        with pytest.raises(UnsupportedShape, match="f = 1 or e = 1"):
            is_admissible(chi)
    with pytest.raises(UnsupportedShape):
        admissible_on_digits(T, 1, ())


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
    factors = howe_factorize(beta_char)
    assert len(factors) == 1 and factors[0][0].S.degree == 5
    assert factors[0][1] is beta_char


def test_howe_round_trip_random(E):
    rng = random.Random(14)
    done = 0
    for _ in range(200):
        chi = random_char(E, rng.randrange(2, 10), rng)
        if not is_admissible(chi):
            continue
        try:
            factors = howe_factorize(chi)
        except NotAdmissible:
            continue
        prod = MulChar(E, None, 0, None)
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
    factors = howe_factorize(phi)
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
    gamma_F = None if g is None else base_handle.trace(g).cap_window(0)
    if gamma_F is not None and gamma_F.is_zero():
        gamma_F = None
    return MulChar(F, w_F, t_F, gamma_F)


def test_restriction_to_base_agrees_for_twins(E, prime_subfield,
                                              random_element):
    from localchar.converse import TwinConfig, build_twin_characters
    pair = build_twin_characters(TwinConfig(p=7, N=5, precision=12))
    sub = prime_subfield(E)
    r1 = restrict_to_base(pair.phi1, sub)
    r2 = restrict_to_base(pair.phi2, sub)
    assert r1.equals(r2)
    # and the restriction is computed faithfully: sample on F
    rng = random.Random(15)
    for _ in range(50):
        x = random_element(sub.S, rng, 0, 3)
        assert r1.eval(x) == pair.phi1.eval(sub.emb.apply(x))


def _value_bytes(v):
    return v.modulus, v.to_pairs()


def test_eval_many_matches_one_character_at_a_time(E, random_element):
    rng = random.Random(21)
    chars = [random_char(E, c, rng) for c in (0, 1, 2, 3, 3, 5, 7)]
    assert any(chi.t and chi.w[0] and chi.gamma is not None
               for chi in chars)
    seen_v = set()
    for _ in range(60):
        x = random_element(E, rng, -3, 4)
        seen_v.add(x.v != 0)
        got = [_value_bytes(v) for v in eval_many(chars, x)]
        assert got == [_value_bytes(chi.eval(x)) for chi in chars]
    assert seen_v == {False, True}


def test_eval_many_factored_characters_on_a_compositum(random_element):
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
        x = random_element(K, rng, -2, 3)
        got = [_value_bytes(v) for v in eval_many(chars, x)]
        assert got == [_value_bytes(chi.eval(x)) for chi in chars]


def test_char_exponents_are_the_unit_value_times_w_to_the_v(E, random_element):
    # chi(x) = chi(pi^-v x) w^v as cyclotomic numbers, the modulus included:
    # it takes the lcm with w's modulus exactly when v(x) != 0
    rng = random.Random(26)
    chars = [random_char(E, c, rng) for c in (0, 1, 2, 3, 5, 7)]
    seen_v = set()
    for _ in range(60):
        x = random_element(E, rng, -3, 4)
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


_EXPONENT_FIELDS = {
    "Q7": lambda: make_tower(7, (), 12),
    "Q7(7^1/5)": lambda: make_tower(7, [TameRamified(5, 1)], 12),
    "Q11(11^1/7)": lambda: make_tower(11, [TameRamified(7, 1)], 16),
}


def _exponents_by_products(chars, x):
    """char_exponents of parametric characters, each principal part read by
    AddChar.exponent from the product gamma * log_principal(u1, window=c)."""
    F = x.field
    psi = make_psi(F)
    u = TowerElement(F, 0, x.core, x.prec, x.store)
    r = u.residue()
    u1 = u.principal_split()[1]
    out = []
    for chi in chars:
        z, m = 0, 1
        if chi.gamma is not None:
            c = chi.conductor()
            z, m = psi.exponent(chi.gamma * F.log_principal(u1, window=c))
        if chi.t:
            z, m = _add_exponents(z, m, chi.t * F.dlog_res(r), F.q - 1)
        if x.v:
            z, m = _add_exponents(z, m, chi.w[0] * x.v, chi.w[1])
        out.append((z, m))
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_EXPONENT_FIELDS)), st.integers(0, 2**32),
       st.lists(st.integers(0, 7), min_size=1, max_size=6),
       st.integers(-3, 3), st.integers(1, 8))
def test_char_exponents_match_the_product_reference(name, seed, conductors,
                                                    v, n):
    """One trace form per window gives the exponents the products give: mixed
    conductors (twins sharing a window among them), t = 0 and t != 0, gamma
    None, x of any valuation, and x = pi^v (1 + a pi^n), whose log is a
    certified zero in every window c <= n."""
    F = _EXPONENT_FIELDS[name]()
    rng = random.Random(seed)
    chars = []
    for c in conductors + [1]:
        chi = random_char(F, c, rng)
        chars += [chi, MulChar(F, chi.w, 0, chi.gamma)]
    assert any(chi.gamma is None for chi in chars)
    xs = [F.random_unit(rng).shift(v),
          (F.one() + F.monomial(rng.randrange(1, F.q), n)).shift(v),
          F.one().shift(v)]
    for x in xs:
        assert char_exponents(chars, x) == _exponents_by_products(chars, x)
    for chi in chars:  # a unit known mod P^n only, for conductors above n
        if chi.conductor() > n:
            with pytest.raises(PrecisionLoss, match=rf"mod P\^{chi.conductor()} "):
                char_exponents((chi,), xs[0].cap_window(v + n))


def test_char_exponents_certify_the_product_window():
    # gamma known only to pi^-2 meets log(1 + a pi^j) in a product certified
    # to j - 2: psi reads it for j >= 3 and raises PrecisionLoss below
    F = make_tower(7, [TameRamified(5, 1)], 12)
    psi = make_psi(F)
    chi = MulChar(F, None, 0, F.monomial(2, -4).cap_window(-2))
    assert chi.gamma.window() == -2
    for j in range(1, 6):
        x = F.one() + F.monomial(3, j)
        ref = F.log_principal(x, window=5)
        if j < 3:
            with pytest.raises(PrecisionLoss):
                psi.exponent(chi.gamma * ref)
            with pytest.raises(PrecisionLoss):
                char_exponents((chi,), x)
        else:
            assert char_exponents((chi,), x) == [psi.exponent(chi.gamma * ref)]


def test_factored_char_exponents_match_the_norm_route(random_element):
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
    xs = [random_element(K, rng, -4, 3) for _ in range(6)]
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
    assert a.inv().eval(pi) * a.eval(pi) == 1
    assert is_trivial_params(a.mul(a.inv()))
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


def _check_pullbacks(chars, K, sub, points):
    """pullbacks(chars) is pullback per character: exact equality for
    parametric results, values for factored ones, conductors for both; and
    every result is chi o N at the points."""
    batch = pullbacks(chars, K, sub.emb)
    assert len(batch) == len(chars)
    for chi, b in zip(chars, batch):
        o = pullback(chi, K, sub.emb)
        assert b.conductor() == o.conductor()
        assert b.is_factored() == o.is_factored()
        if not o.is_factored():
            assert b.equals(o)
        for x in points:
            assert b.eval(x) == o.eval(x) == chi.eval(sub.norm(x))
    return batch


def _mixed_chars(S, rng):
    """t = 0 and t != 0, gamma None, one gamma object shared, an equal one
    built apart and another of the same valuation, random parameters and a
    factored character."""
    g = S.from_digits([(-1, 3)])
    return [MulChar(S, (1, 6), 0, None), MulChar(S, (2, 6), 3, g),
            MulChar(S, (0, 1), 0, g), MulChar(S, (5, 6), 2, S.from_digits(
                [(-1, 3)])), MulChar(S, (1, 6), 4, S.from_digits([(-1, 5)])),
            random_char(S, 3, rng), random_char(S, 1, rng),
            MulChar(S, parts=((self_subfield(S), random_char(S, 2, rng)),)),
            random_char(S, 0, rng)]


def test_pullbacks_is_pullback_per_character(E):
    sub = _handle_for(E, 1)
    rng = random.Random(41)
    points = [E.random_unit(rng) for _ in range(3)] + [E.uniformizer()]
    _check_pullbacks(_mixed_chars(sub.S, rng), E, sub, points)
    assert pullbacks([], E, sub.emb) == []


def test_pullbacks_into_a_field_without_exp_log(prime_subfield):
    T = make_tower(7, [TameRamified(6, 1)], 24)
    sub = prime_subfield(T, 4)
    rng = random.Random(42)
    points = [T.random_unit(rng) for _ in range(3)] + [T.uniformizer()]
    batch = _check_pullbacks(_mixed_chars(sub.S, rng), T, sub, points)
    assert all(chi.is_factored() for chi in batch)


def test_pullbacks_mismatched_embedding_raises_as_pullback(E, F):
    sub = _handle_for(E, 1)
    chars = _mixed_chars(sub.S, random.Random(43))
    msg = "^embedding does not match the inflation$"
    for bad in ((chars, F, sub.emb), (chars + [MulChar(E, (1, 6))], E,
                                       sub.emb)):
        with pytest.raises(ConfigError, match=msg):
            pullbacks(*bad)
    with pytest.raises(ConfigError, match=msg):
        pullback(chars[0], F, sub.emb)
