import hashlib
import math
import random
import time
from collections import Counter
from itertools import islice
from types import SimpleNamespace

import pytest

from localchar.cyclotomic import CycNumber
from localchar.errors import (ConductorMismatch, ConductorTooSmall,
                              ConfigError, InternalContradiction,
                              RangeViolation, UnsupportedShape)
from localchar.localfield import TameRamified, Unramified, make_tower
from localchar.characters import (MulChar, _subfield_handle, char_exponents,
                                  is_admissible, make_psi, pullback, pullbacks,
                                  random_char, same_root, truncate_to)
from localchar import converse, embeddings
from localchar.ambient import build_ambient, compositum_abstract
from localchar.converse import (
    TwinConfig,
    TwinPair,
    _context_for,
    _twisted_conductor,
    _gamma_key,
    _inverse_symmetric,
    a_exponent,
    base_characters,
    build_twin_characters,
    case_one_scan,
    classify_case,
    is_conjugate,
    iter_twist_pairs,
    mutate_on_level_two,
    search_distinguisher,
    tame_extensions,
    transport_char,
    verify_coset_products,
    verify_rank_one_twists,
    verify_twin_pair,
)
from localchar.embeddings import Subfield, automorphisms, identity_embedding
from localchar.localfield import TowerElement
from localchar.epsilon import epsilon_factors, gauss_sum
from localchar.reporting import canonical_json


def enumerate_twist_pairs(p, r, bound, k, dedupe=True):
    """Materialized iter_twist_pairs, plus the skipped-shape labels."""
    skipped = []
    pairs = list(iter_twist_pairs(p, r, bound, k, dedupe, skipped=skipped))
    return pairs, skipped


@pytest.fixture(scope="module")
def pair5():
    return build_twin_characters(TwinConfig(p=7, N=5, precision=12))


@pytest.fixture(scope="module")
def pair7():
    return build_twin_characters(TwinConfig(p=11, N=7, precision=28))


def test_config_validation():
    with pytest.raises(ConfigError):
        TwinConfig(p=7, N=4).validate()
    with pytest.raises(ConfigError):
        TwinConfig(p=5, N=5).validate()  # p - 1 <= N
    with pytest.raises(ConfigError):
        TwinConfig(p=11, N=6).validate()  # even N needs ell
    with pytest.raises(ConfigError):
        TwinConfig(p=11, N=6, ell=4).validate()  # gcd(ell, N) > 1


def test_twin_pair_odd(pair5):
    checks = verify_twin_pair(pair5)
    assert checks["pass"], checks
    assert pair5.tower == [1, 5]


def test_twin_pair_even():
    pair = build_twin_characters(TwinConfig(p=11, N=6, ell=5, precision=24))
    checks = verify_twin_pair(pair)
    assert checks["pass"], checks
    assert pair.tower == [1, 3, 6]


def _layer_checks_by_points(pair):
    """(agree_on_level_two, differ_on_level_one) as verify_twin_pair read
    them before: one char_exponents call per point 1 + tau(a) pi^j."""
    E, one = pair.E, pair.E.one()

    def agree(x):
        return same_root(*char_exponents((pair.phi1, pair.phi2), x))

    deep = True
    for j in range(2, E.k):
        for a in range(1, E.q):
            if not agree(one + E.monomial(a, j)):
                deep = False
    differ = any(not agree(one + E.monomial(a, 1)) for a in range(1, E.q))
    return deep, differ


@pytest.mark.parametrize("cfg", [TwinConfig(p=7, N=5),
                                 TwinConfig(p=11, N=7),
                                 TwinConfig(p=13, N=6, ell=5)])
def test_twin_pair_layers_match_the_pointwise_checks(cfg):
    """theta_row per layer reads what a char_exponents call per point read,
    on the pair, its level-two mutant and the pair phi2 = phi1."""
    pair = build_twin_characters(cfg)
    mutant = TwinPair(pair.cfg, pair.E, pair.phi1,
                      mutate_on_level_two(pair.phi2), pair.beta,
                      pair.selector, pair.tower)
    same = TwinPair(pair.cfg, pair.E, pair.phi1, pair.phi1, pair.beta,
                    pair.selector, pair.tower)
    for case, expected in ((pair, (True, True)), (mutant, (False, True)),
                           (same, (True, False))):
        checks = verify_twin_pair(case)
        got = checks["agree_on_level_two"], checks["differ_on_level_one"]
        assert got == _layer_checks_by_points(case) == expected
        assert checks["pass"] == (case is pair)


def test_conjugacy_on_field_with_automorphisms():
    E6 = make_tower(11, [TameRamified(6, 1)], 24)
    auts = automorphisms(E6)
    sigma = next(a for a in auts if not (a.pi_img - E6.uniformizer()).is_zero())
    rng = random.Random(0)
    chi = random_char(E6, 5, rng)
    assert is_conjugate(chi, chi)
    assert is_conjugate(chi, transport_char(chi, sigma, auts))


def test_tame_extension_catalog():
    exts = tame_extensions(11, 2, 10)
    labels = sorted(s for _, s in exts)
    assert labels == ["ram(2,u=g^0)", "ram(2,u=g^1)", "unram(2)"]
    exts1 = tame_extensions(7, 1, 10)
    assert len(exts1) == 1 and exts1[0][0].degree == 1
    exts4 = tame_extensions(7, 4, 10)
    assert any(lab.startswith("mixed") and L is None for L, lab in exts4)


def test_enumerated_pairs_admissible(pair7):
    pairs, skipped = enumerate_twist_pairs(11, 2, 2, 16)
    assert not skipped
    assert all(is_admissible(tw.lam) for tw in pairs)
    assert all(tw.lam.conductor() <= 2 for tw in pairs)
    # ramified quadratics carry no admissible tame characters
    assert all(tw.m >= 1 for tw in pairs if tw.shape.startswith("ram"))


def test_catalog_key_matches_transport_char_key():
    pairs, _ = enumerate_twist_pairs(11, 2, 3, 16, dedupe=False)
    auts = {tw.L: automorphisms(tw.L) for tw in pairs}
    kept, seen = [], set()
    for tw in pairs:
        L, lam = tw.L, tw.lam
        if tw.m == 0:
            key = min((lam.t * pow(L.p, b, L.q - 1)) % (L.q - 1)
                      for b in range(L.f))
        else:
            key = min(_gamma_key(transport_char(lam, s, auts[L]))
                      for s in auts[L])
        if (tw.shape, key) not in seen:
            seen.add((tw.shape, key))
            kept.append(tw.label())
    deduped, _ = enumerate_twist_pairs(11, 2, 3, 16)
    assert len(kept) < len(pairs)
    assert [tw.label() for tw in deduped] == kept


def test_digit_tables_reject_an_inexact_uniformizer_image(monkeypatch):
    # sigma(pi) = pi (1 + pi): sigma(pi)/pi is a one-unit, not a lift
    L = make_tower(11, [TameRamified(2, 1)], 16)
    ident = identity_embedding(L)
    bad = embeddings.EmbeddingMap(L, L, ident.x_img,
                                  L.uniformizer() * (L.one() + L.uniformizer()))
    with pytest.raises(InternalContradiction, match="Teichmuller"):
        converse._digit_tables(L, [bad], range(-3, 0))
    # sigma(pi) = pi (1 + p): a unit of W, xi^dlog(1) = 1 but not 1 + p
    near = embeddings.EmbeddingMap(L, L, ident.x_img,
                                   L.uniformizer() * L.from_int(1 + L.p))
    with pytest.raises(InternalContradiction, match="Teichmuller"):
        converse._digit_tables(L, [near], range(-3, 0))
    # the catalog builds its tables before any candidate is formed
    monkeypatch.setattr(converse, "automorphisms", lambda T: [ident, bad])
    with pytest.raises(InternalContradiction):
        next(iter_twist_pairs(11, 2, 3, 16))


def test_digit_tables_match_the_field_action():
    # each table entry is the Teichmuller digit of sigma(tau(d) pi^i),
    # read off the image computed in the field
    for L, shape in tame_extensions(11, 2, 16) + tame_extensions(7, 3, 12):
        auts = automorphisms(L)
        ident = identity_embedding(L)
        others = [s for s in auts if not s.same_as(ident)]
        tables = converse._digit_tables(L, auts, range(-3, 0))
        assert len(tables) == len(others), shape
        for sigma, tab in zip(others, tables):
            for i, row in tab.items():
                assert row[0] == 0
                for d in range(1, L.q):
                    img = sigma.apply(L.monomial(d, i)).serialize()
                    assert img == L.monomial(row[d], i).serialize(), shape


def test_classify_case_examples():
    label, vb, va = classify_case(5, 1, 1, r=1)
    assert (label, vb, va) == ("beta", -8, -5)
    label, vb, va = classify_case(7, 1, 2)
    assert label == "alpha" and vb == -12 and va == -14


def test_case_one_scan_exhaustive():
    rep = case_one_scan((5, 6, 7))
    assert rep["pass"] and rep["instances"] > 50


def test_a_exponent_values_and_guards():
    assert a_exponent(1, 5, 1, 1, 1, r=1) == 3
    with pytest.raises(RangeViolation):
        a_exponent(1, 5, 1, 1, 1, r=2)  # 2r < N-1 fails
    with pytest.raises(RangeViolation):
        a_exponent(2, 7, 1, 1, 1, r=1)  # i > r
    with pytest.raises(RangeViolation):
        a_exponent(0, 5, 1, 1, 1)
    # mirrored case
    assert a_exponent(1, 7, 2, 1, 1, r=2, mirror=True) == 2


def test_double_cosets_trivial_and_quadratic(pair5):
    E = pair5.E
    F = make_tower(7, (), 12)
    assert build_ambient(E, F) == (5, 1)  # deg K = 5, e(K/E) = 1
    L = make_tower(7, [Unramified(2)], 12)
    e_K, f_K = build_ambient(E, L)
    assert (e_K, f_K) == (5, 2) and e_K * f_K == 10  # Mackey dimension count


# (p, N, U_E, L's steps, double cosets, (K.e, K.f) or None); the counts were
# recorded with the metacyclic-ambient orbit count this closed form replaced
_COMPOSITUM_SHAPES = [
    (7, 5, 1, (), 1, (5, 1)),
    (7, 5, 1, (Unramified(2),), 1, (5, 2)),
    (7, 5, 1, (TameRamified(2, 1),), 1, (10, 1)),
    (11, 6, 1, (TameRamified(3, 1),), 2, None),
    (13, 6, 2, (TameRamified(4, 2),), 2, None),
    (11, 5, 2, (Unramified(3),), 1, (5, 3)),
]


@pytest.mark.parametrize("p, N, uE, steps, cosets, ef", _COMPOSITUM_SHAPES,
                         ids=["Q7-F", "Q7-unram2", "Q7-ram2", "Q11-ram3",
                              "Q13-U2-ram4", "Q11-U2-unram3"])
def test_compositum_coset_count_closed_form(p, N, uE, steps, cosets, ef):
    E = make_tower(p, (TameRamified(N, uE),), 12)
    L = make_tower(p, steps, 12)
    if ef is None:
        msg = f"{cosets} double cosets; compositum arithmetic unsupported"
        with pytest.raises(UnsupportedShape, match=f"^{msg}$"):
            compositum_abstract(E, L, 12)
        return
    t0 = time.perf_counter()
    K, _, _ = compositum_abstract(E, L, 12)
    assert time.perf_counter() - t0 < 1.0
    assert build_ambient(E, L) == ef == (K.e, K.f)


@pytest.mark.parametrize("p, N, uE, steps, cosets, ef", [
    s for s in _COMPOSITUM_SHAPES if s[-1] is not None])
def test_classify_case_e_K_is_build_ambient_e_K(p, N, uE, steps, cosets, ef):
    # classify_case's lcm(N, e_L) is a copy of build_ambient's e_K
    E = make_tower(p, (TameRamified(N, uE),), 12)
    L = make_tower(p, steps, 12)
    e_K = build_ambient(E, L)[0]
    assert math.lcm(N, L.e) == e_K
    assert classify_case(N, L.e, 0) == ("beta", -(e_K // N) * (2 * N - 2),
                                        None)


def test_compositum_shapes(pair5):
    E = pair5.E
    L = make_tower(7, [TameRamified(2, 1)], 12)
    K, iE, iL = compositum_abstract(E, L, 40)
    assert (K.e, K.f) == (10, 1)
    Lu = make_tower(7, [Unramified(2)], 12)
    K2, _, _ = compositum_abstract(E, Lu, 40)
    assert (K2.e, K2.f) == (5, 2)


def test_coset_products_r1(pair5):
    pairs, _ = enumerate_twist_pairs(7, 1, 3, 12)
    assert len(pairs) >= 10
    for tw in pairs:
        rep = verify_coset_products(pair5, tw)
        assert rep.verdict, (tw.label(), rep.serialize())


def test_coset_products_r2_samples_both_cases(pair7):
    pairs, _ = enumerate_twist_pairs(11, 2, 3, 16)
    cases = set()
    rng = random.Random(1)
    sample = rng.sample(pairs, 25)
    for tw in sample:
        rep = verify_coset_products(pair7, tw)
        assert rep.verdict, (tw.label(), rep.serialize())
        cases.add(rep.case)
    assert "beta" in cases


def _deep_checks(pair, tw):
    """Per-instance invariants beyond verify_coset_products: conductor
    formula, c-data agreement, the middle-layer agreement criterion and, for
    odd conductors, exact Gauss-sum equality."""
    N = pair.cfg.N
    ctx = _context_for(pair.E, N, tw)
    K = ctx["K"]
    lamK = pullback(tw.lam, K, ctx["iL"])
    th1, th2 = (phK.mul(lamK) for phK in
                pullbacks((pair.phi1, pair.phi2), K, ctx["iE"]))
    e = K.e // N
    f_pred = _twisted_conductor(N, tw)
    out = {"conductor_formula":
           th1.conductor() == th2.conductor() == f_pred}
    x = pair.beta_in(K, ctx["iE"])
    if tw.alpha is not None:
        x = x + ctx["iL"].apply(tw.alpha)
    cx = truncate_to(x, 1 - (f_pred + 1) // 2)
    out["c_data_agreement"] = bool(
        (th1.c_rep() - cx).is_zero() and (th2.c_rep() - cx).is_zero())
    n = (f_pred - 1) // 2
    ok_layer = True
    for j in range(n, min(n + e + 2, K.k)):
        for a in range(1, min(K.q, 30)):
            u = K.one() + K.monomial(a, j)
            if not same_root(*char_exponents((pair.phi1, pair.phi2),
                                             ctx["handleE"].norm(u))):
                ok_layer = False
    out["middle_layer_agreement"] = ok_layer
    if f_pred % 2 == 1:
        psiK = make_psi(K)
        g1 = gauss_sum(th1, psiK, c_rep=cx)
        g2 = gauss_sum(th2, psiK, c_rep=cx)
        out["gauss_sums_equal"] = bool(g1.num == g2.num)
    return out


def test_coset_products_deep_invariants(pair7):
    pairs, _ = enumerate_twist_pairs(11, 2, 3, 16)
    picks = [next(tw for tw in pairs if tw.shape.startswith("ram") and tw.m == 1),
             next(tw for tw in pairs if tw.shape.startswith("unram") and tw.m == 2)]
    for tw in picks:
        assert verify_coset_products(pair7, tw).verdict
        checks = _deep_checks(pair7, tw)
        keys = {"conductor_formula", "c_data_agreement",
                "middle_layer_agreement"}
        if _twisted_conductor(7, tw) % 2 == 1:
            keys.add("gauss_sums_equal")
        assert set(checks) == keys, tw.label()
        assert all(checks.values()), (tw.label(), checks)


def test_every_twisting_pair_is_certified(pair5, pair7):
    # search_distinguisher's proof: n = (f - 1) // 2 >= e (N - 1), so
    # ceil(n/e) >= N - 1 >= 2, with e = e_K/N and K.e = lcm(N, e_L)
    for N in (5, 6, 7):
        for r in range(1, N):
            for e_L in (d for d in range(1, r + 1) if r % d == 0):
                e = math.lcm(N, e_L) // N
                for m in range(13):
                    tw = SimpleNamespace(L=SimpleNamespace(e=e_L), m=m)
                    n = (_twisted_conductor(N, tw) - 1) // 2
                    assert n >= e * (N - 1), (N, r, e_L, m)
    for pair, (p, r, bound, k) in ((pair5, (7, 2, 4, 12)),
                                   (pair7, (11, 2, 3, 16))):
        supported = {shape for L, shape in tame_extensions(p, r, k)
                     if L is not None}
        shapes = {}
        for tw in iter_twist_pairs(p, r, bound, k):
            shapes.setdefault(tw.shape, tw)
            if shapes.keys() == supported:
                break
        assert shapes.keys() == supported
        for tw in shapes.values():
            K = _context_for(pair.E, pair.cfg.N, tw)["K"]
            assert K.e == math.lcm(pair.cfg.N, tw.L.e), tw.label()


def test_mutated_pair_fails_equ6(pair7):
    cfg = pair7.cfg
    bad = TwinPair(cfg, pair7.E, pair7.phi1, mutate_on_level_two(pair7.phi2),
                   pair7.beta, pair7.selector, pair7.tower)
    # a level-2 perturbation needs a twist deep enough that the symmetric
    # term of exponent A = 2 appears: unramified L with m = 2 (case alpha)
    pairs, _ = enumerate_twist_pairs(11, 2, 3, 16)
    sample = [tw for tw in pairs if tw.m == 2 and tw.shape.startswith("unram")]
    results = [verify_coset_products(bad, tw).verdict for tw in sample[:40]]
    assert not all(results)
    # the clean pair passes the same instances
    assert all(verify_coset_products(pair7, tw).verdict for tw in sample[:10])


def test_rank_one_small_bound(pair5):
    rep = verify_rank_one_twists(pair5, 1)
    assert rep["pass"] and rep["twists"] == 36 and rep["all_twisted_ramified"]


def test_search_finds_nothing_at_rank_one(pair5):
    rep = search_distinguisher(pair5, 1, 4)
    assert rep["found"] is None
    assert rep["searched"] > 0


def test_search_finds_distinguisher_and_mutating_back_to_rank_one(pair5):
    rep = search_distinguisher(pair5, 2, 6)
    assert rep["found"] is not None
    assert rep["found"]["reverified"]
    assert rep["found"]["m"] == 3
    # the same conductor on a rank-1 shape does not distinguish
    F = make_tower(7, (), 12)
    alpha = F.from_digits([(-3, 1)])
    lam = MulChar(F, None, 0, alpha)
    from localchar.converse import TwistPair
    tw1 = TwistPair(F, lam, 3, lam.c_rep(), "unram(1)")
    assert verify_coset_products(pair5, tw1).verdict


def test_coset_product_reports_match_recorded_digest(pair7):
    # every fifth pair of the conductor-3 catalog: 35 pairs over every shape,
    # both cases; the digest was recorded when each twin was evaluated on
    # its own, so the shared evaluation must not move a byte
    sample = list(iter_twist_pairs(11, 2, 3, 16))[::5]
    reps = [verify_coset_products(pair7, tw).serialize() for tw in sample]
    assert len(reps) == 35
    assert {r["case"] for r in reps} == {"alpha", "beta"}
    digest = hashlib.sha256(canonical_json(reps).encode()).hexdigest()
    assert digest == (
        "c0953cc754622c489d2ce771b4683c6cb297facaf7d972fc7dee60ce08184a77")


def test_twin_pair_values_are_held_per_pair(pair7):
    tw = next(iter_twist_pairs(11, 2, 2, 16))
    verify_coset_products(pair7, tw)
    held = [CycNumber.root(m, z) for z, m in pair7.beta_values]
    fresh = [pair7.phi1.eval(pair7.beta), pair7.phi2.eval(pair7.beta)]
    assert ([(v.modulus, v.to_pairs()) for v in held]
            == [(v.modulus, v.to_pairs()) for v in fresh])
    assert pair7.beta_inv * pair7.beta == pair7.E.one()
    assert pair7._beta_images
    assert all(beta_K.field is K for K, beta_K in pair7._beta_images.items())
    bad = TwinPair(pair7.cfg, pair7.E, pair7.phi1,
                   mutate_on_level_two(pair7.phi2), pair7.beta,
                   pair7.selector, pair7.tower)
    assert not bad._beta_images
    assert "beta_values" not in vars(bad) and "beta_inv" not in vars(bad)


def test_rank_one_epsilon_reports_match_recorded_digest(pair5):
    # both twins of every bound-2 twist, value and Gauss part, as
    # verify_rank_one_twists computes them; the digest was recorded when
    # each epsilon factor was computed on its own, with the root part
    # multiplied into the Gauss sum as a cyclotomic number
    E = pair5.E
    psi = make_psi(E)
    prime = _subfield_handle(E, 1)
    rows = []
    for chi in base_characters(prime.S, 2):
        chiE = pullback(chi, E, prime.emb)
        twins = (pair5.phi1.mul(chiE), pair5.phi2.mul(chiE))
        for e in epsilon_factors(twins, psi):
            rows.append([e.value.serialize(), e.gauss_part.serialize()])
    assert len(rows) == 2 * 6 * 6 * 7
    digest = hashlib.sha256(canonical_json(rows).encode()).hexdigest()
    assert digest == (
        "16e1bedf9d3370826ff7f78422c24d11389942b03706d8707854e72be8accf07")


def _rank_one_digest(pair, bound):
    rep = verify_rank_one_twists(pair, bound)
    return rep, hashlib.sha256(canonical_json(rep).encode()).hexdigest()


def _with_phi2(pair, phi2):
    return TwinPair(pair.cfg, pair.E, pair.phi1, phi2, pair.beta,
                    pair.selector, pair.tower)


def test_rank_one_reports_match_recorded_digests(pair5):
    # recorded when every twist was evaluated on its own; the mutated pair
    # passes at bound 2 and fails 1512 of 1764 twists at bound 3, in
    # base_characters order
    bad = _with_phi2(pair5, mutate_on_level_two(pair5.phi2))
    clean2, d_clean2 = _rank_one_digest(pair5, 2)
    _, d_bad2 = _rank_one_digest(bad, 2)
    bad3, d_bad3 = _rank_one_digest(bad, 3)
    assert clean2["pass"] and clean2["twists"] == 252
    assert bad3["twists"] == 1764 and len(bad3["failures"]) == 1512
    assert d_clean2 == d_bad2 == (
        "f8927b95a95b68619c608f421cf57fd0f8d1fafd877a6d1dbb76059d6b75300b")
    assert d_bad3 == (
        "df912a6290909c92fe6fc910ed71fc6b7951f1e880dfd57956e2ef38bcc635d8")


def test_rank_one_grouping_keeps_every_check(pair5, capsys):
    E = pair5.E
    f = pair5.phi1.conductor()
    # a level inside the c window [1-f, 1-r) moves every th2's c-rep only
    moved = MulChar(E, pair5.phi2.w, pair5.phi2.t,
                    pair5.phi2.gamma + E.monomial(1, -6))
    assert moved.conductor() == f
    with pytest.raises(ConductorMismatch, match="c-representatives differ"):
        verify_rank_one_twists(_with_phi2(pair5, moved), 2)
    deeper = MulChar(E, pair5.phi2.w, pair5.phi2.t,
                     pair5.phi2.gamma + E.monomial(1, -f))
    with pytest.raises(ConductorMismatch, match=f"^conductors {f} != {f + 1}$"):
        verify_rank_one_twists(_with_phi2(pair5, deeper), 2)
    # a group's later twins are checked against its first, not pairwise
    th = pair5.phi1
    with pytest.raises(ConductorMismatch, match="c-representatives differ"):
        epsilon_factors((th, th, th, th.mul(MulChar(E, None, 0,
                                                    E.monomial(1, -6)))),
                        make_psi(E))
    # tame twins: the closed form refuses before any c-rep is formed
    tame = MulChar(E, None, 1, None)
    with pytest.raises(ConductorTooSmall, match="^closed form needs conductor"):
        verify_rank_one_twists(TwinPair(pair5.cfg, E, tame, tame, pair5.beta,
                                        pair5.selector, pair5.tower), 1)
    capsys.readouterr()
    rep = verify_rank_one_twists(pair5, 1, progress=1)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"  rank-1 twists: {k}/36" for k in range(1, 37)]
    assert rep["twists"] == 36 and rep["pass"]


def _alpha_case_pairs(pair, tws):
    N = pair.cfg.N
    return [tw for tw in tws if tw.alpha is not None
            and classify_case(N, tw.L.e, tw.m)[0] == "alpha"]


def test_one_matrix_norms_match_the_matrix_route(pair5, pair7):
    # every alpha-case pair of the conductor-3 catalog, five m = 3 pairs,
    # and the rank-1 pairs of N = 5, where d = [K : E] = 1 is odd
    r2 = _alpha_case_pairs(pair7, iter_twist_pairs(11, 2, 3, 16))
    m3 = _alpha_case_pairs(pair7, (tw for tw in islice(
        iter_twist_pairs(11, 2, 4, 16), 600) if tw.m == 3))[:5]
    r1 = _alpha_case_pairs(pair5, iter_twist_pairs(7, 1, 3, 12))
    assert len(r2) > 50 and len(m3) == 5 and r1
    for pair, tws in ((pair7, r2 + m3), (pair5, r1)):
        for tw in tws:
            ctx = _context_for(pair.E, pair.cfg.N, tw)
            handleE = ctx["handleE"]
            beta_K = pair.beta_in(ctx["K"], ctx["iE"])
            alpha_K = ctx["iL"].apply(tw.alpha)
            y, dom = handleE.norms_of_shift(alpha_K, pair.beta)
            assert y.serialize() == handleE.norm(beta_K + alpha_K).serialize()
            assert dom.serialize() == handleE.norm(alpha_K).serialize()
            # the reversal certifies a few digits fewer than the charpoly
            # of alpha^-1, so the F side is compared by value
            def sym(x):
                vec = ctx["handleF"].charpoly(x)
                return [c if i % 2 == 0 else -c for i, c in enumerate(vec)]

            got, inv_es = _inverse_symmetric(sym(tw.alpha)), sym(tw.alpha.inv())
            assert len(got) == len(inv_es) == tw.L.degree + 1
            assert all(a == b for a, b in zip(got, inv_es))


def test_coset_verification_work_counts(pair7, monkeypatch):
    pairs = list(iter_twist_pairs(11, 2, 3, 16))
    alpha_tw = _alpha_case_pairs(pair7, pairs)[0]
    beta_tw = next(tw for tw in pairs if tw.alpha is not None
                   and classify_case(7, tw.L.e, tw.m)[0] == "beta")
    for tw in (alpha_tw, beta_tw):
        verify_coset_products(pair7, tw)  # warm every cache and context
    counts = Counter()

    def count(name, fn, when=lambda *a: True):
        def wrapped(*args, **kwargs):
            if when(*args):
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Subfield, "mult_matrix",
                        count("mult_matrix", Subfield.mult_matrix))
    monkeypatch.setattr(Subfield, "norm", count("norm", Subfield.norm))
    for mod in (converse, embeddings):
        monkeypatch.setattr(mod, "find_embeddings",
                            count("find_embeddings", mod.find_embeddings))
    monkeypatch.setattr(TowerElement, "inv", count(
        "inv_in_L", TowerElement.inv, lambda x: x.field is alpha_tw.L))
    rep = verify_coset_products(pair7, alpha_tw)
    assert rep.case == "alpha" and rep.verdict
    assert counts == Counter(mult_matrix=2)
    counts.clear()
    rep = verify_coset_products(pair7, beta_tw)
    assert rep.case == "beta" and rep.verdict
    assert counts["mult_matrix"] == 2


@pytest.mark.parametrize("r", [2, 3])
def test_same_as_finds_the_identity_automorphism(r):
    for L, shape in tame_extensions(11, r, 10):
        if L is None:
            continue
        ident = identity_embedding(L)
        hits = [s for s in automorphisms(L) if s.same_as(ident)]
        assert len(hits) == 1, shape
        x = L.from_digits([(-2, 3), (-1, L.q - 2), (0, 5), (1, 7)])
        assert hits[0].apply(x).serialize() == x.serialize()
