"""Acceptance suite: one test per criterion, each printing a pass line with
its wall time against the stated budget.  Every equality here is exact ring
arithmetic; the only numerical assertion is the embedded Gauss-sum modulus.
"""

import hashlib
import math
import random
import time

import pytest

from localchar.cyclotomic import ScaledCyc
from localchar.localfield import TameRamified, Unramified, make_tower
from localchar.characters import (
    MulChar,
    howe_factorize,
    is_admissible,
    make_psi,
    pullback,
    random_char,
    subfield_lattice,
)
from localchar.epsilon import epsilon_oracle_consistency, epsilon_ratio, gauss_sum
from localchar.oracle import oracle_sum
from localchar.reporting import canonical_json
from localchar.converse import (
    TwinConfig,
    TwinPair,
    a_exponent,
    build_twin_characters,
    case_one_scan,
    classify_case,
    iter_twist_pairs,
    mutate_on_level_two,
    search_distinguisher,
    verify_coset_products,
    verify_rank_one_twists,
    verify_twin_pair,
)


def _report(num, label, t0, budget):
    dt = time.time() - t0
    print(f"criterion {num:>2} ({label}): PASS  ({dt:.1f}s < {budget}s)")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def pair5():
    return build_twin_characters(TwinConfig(p=7, N=5, precision=12))


@pytest.fixture(scope="module")
def pair7():
    return build_twin_characters(TwinConfig(p=11, N=7, precision=28))


def test_criterion_01_construction_fidelity(pair5):
    t0 = time.time()
    checks = verify_twin_pair(pair5)
    assert checks["conductor"], "conductor must be exactly 2N-1 = 9"
    assert checks["uniformizer_value"] and checks["tame_part"]
    assert checks["agree_on_level_two"] and checks["differ_on_level_one"]
    assert checks["admissible"] and checks["non_conjugate"]
    assert checks["difference_conductor"]
    _report(1, "construction fidelity N=5 p=7", t0, 10)


def test_criterion_02_closed_form_vs_oracle():
    t0 = time.time()
    F = make_tower(7, (), 12)
    E = make_tower(7, [TameRamified(5, 1)], 12)
    psiF, psiE = make_psi(F), make_psi(E)
    total = 0
    for field, psi, conductors, per in (
            (F, psiF, (2, 3, 4, 5), 7),
            (E, psiE, (2, 3, 4, 5, 6, 7), 4),
            (E, psiE, (8, 9), 2)):
        chars = []
        for seed in (0, 1):
            rng = random.Random(1000 * field.e + seed)
            for c in conductors:
                chars.extend(random_char(field, c, rng) for _ in range(per))
        total += len(chars)
        rep = epsilon_oracle_consistency(chars, psi, oracle_sum)
        for cls in rep["classes"]:
            assert cls["samples"] >= 2
        for rel in rep["shift_relations"]:
            assert rel["qhalf_shift"] == 2
    assert total >= 100, f"only {total} characters scanned"
    _report(2, f"closed form vs oracle, {total} characters, 2 seeds", t0, 120)


def test_criterion_03_rank_one_twists_exhaustive(pair5):
    t0 = time.time()
    rep = verify_rank_one_twists(pair5, 3)
    assert rep["twists"] == 6 * 6 * 49
    assert rep["all_twisted_ramified"]
    assert not rep["failures"]
    _report(3, f"rank-1 epsilon equality, {rep['twists']} twists", t0, 300)


def test_criterion_04_coset_products_rank_two(pair7):
    t0 = time.time()
    count = 0
    cases = set()
    shapes = set()
    digest = hashlib.sha256()
    for tw in iter_twist_pairs(11, 2, 4, 16):
        rep = verify_coset_products(pair7, tw)
        assert rep.verdict, (tw.label(), rep.serialize())
        digest.update(canonical_json(rep.serialize()).encode())
        assert rep.route_a["equal"]
        assert rep.route_b["agrees_with_route_a"]
        assert rep.route_b["membership_level_two"]
        cases.add(rep.case)
        shapes.add(tw.shape)
        count += 1
    assert count == 7490
    assert shapes == {"ram(2,u=g^0)", "ram(2,u=g^1)", "unram(2)"}
    assert cases == {"beta", "alpha"}
    # every report byte for byte as the two-matrix route gave it
    assert digest.hexdigest() == (
        "f1f719afdd4d628e11e814f705adffa24eca31483117336715c66b54d6ecb1b9")
    _report(4, f"coset products N=7 r=2, {count} pairs", t0, 600)


def test_criterion_05_case_one_impossibility():
    t0 = time.time()
    rep = case_one_scan((5, 6, 7), m_bound=12)
    assert rep["pass"]
    for N in (5, 6, 7):
        for r in range(1, (N - 2) // 2 + 1):
            for e_L in [d for d in range(1, r + 1) if r % d == 0]:
                assert (2 * e_L) % N != 0
    _report(5, f"case-1 impossibility, {rep['instances']} shapes", t0, 10)


def test_criterion_06_congruence_ledger():
    t0 = time.time()
    checked = 0
    for N in (5, 6, 7):
        rmax = (N - 2) // 2
        for r in range(1, rmax + 1):
            for e_L in [d for d in range(1, r + 1) if r % d == 0]:
                e2p = math.gcd(e_L, N)
                e1 = e_L // e2p
                for m in range(1, 13):
                    label, _vb, _va = classify_case(N, e_L, r // e_L, m, r=r)
                    for i in range(1, r + 1):
                        a = a_exponent(i, N, m, e1, e2p, s=r, r=r,
                                       mirror=(label == "alpha"))
                        assert a >= 2
                        if label == "alpha":
                            assert a % N == (2 * i) % N
                        else:
                            assert a % N == (-2 * i) % N
                        checked += 1
    _report(6, f"exponent ledger, {checked} instances", t0, 1)


def test_criterion_07_even_N_construction():
    t0 = time.time()
    cfg = TwinConfig(p=11, N=6, ell=5, precision=24)
    pair = build_twin_characters(cfg)
    checks = verify_twin_pair(pair)
    assert checks["pass"], checks
    assert pair.phi1.conductor() == 11  # 2N - 1
    chi0, factors = howe_factorize(pair.phi1)
    assert [h.S.degree for h, _ in factors] == [3, 6]
    confs = [pullback(phi, pair.E, h.emb).conductor() for h, phi in factors]
    assert confs == sorted(confs, reverse=True) and len(set(confs)) == 2
    # criterion-5/6 analogues for N = 6
    rep = case_one_scan((6,), m_bound=12)
    assert rep["pass"]
    # rank-1 twists with conductor <= 2
    r1 = verify_rank_one_twists(pair, 2)
    assert r1["pass"], r1["failures"][:3]
    _report(7, f"even-N build + {r1['twists']} rank-1 twists", t0, 300)


def test_criterion_08_property_suites(prime_subfield):
    t0 = time.time()
    E = make_tower(7, [TameRamified(5, 1)], 12)
    F = make_tower(7, (), 12)
    psiE = make_psi(E)
    rng = random.Random(8)
    one = E.one()
    # exp/log inversion
    for _ in range(200):
        u = one + E.random_unit(rng).shift(1)
        assert E.exp_principal(E.log_principal(u)).eq_mod(u, 12)
    # norm/trace transitivity on a three-step tower
    T = make_tower(7, [Unramified(2), TameRamified(3, 1)], 10)
    subs = subfield_lattice(T)
    mid = next(s for s in subs if s.S.degree == 2)
    base = next(s for s in subs if s.S.degree == 1)
    base_mid = prime_subfield(mid.S, base.S.k)
    for _ in range(200):
        x = T.random_unit(rng)
        assert (base.norm(x) - base_mid.norm(mid.norm(x))).is_zero()
        assert (base.trace(x) - base_mid.trace(mid.trace(x))).is_zero()
    # parameter preservation under pullback, and c-rep invariance
    sub = next(s for s in subfield_lattice(E) if s.S.degree == 1)
    assert sub.S is F  # same memoized prime field
    for _ in range(200):
        chi = random_char(F, rng.randrange(2, 5), rng)
        chiE = pullback(chi, E, sub.emb)
        assert (chiE.gamma - sub.emb.apply(chi.gamma)).is_zero()
        assert (chiE.standard_rep() - sub.emb.apply(chi.standard_rep())).is_zero()
        rK = (chiE.conductor() + 1) // 2
        d = chiE.c_rep() - sub.emb.apply(chi.c_rep())
        assert d.is_zero() or d.valuation() >= 1 - rK
    # Howe factorization round trip
    done = 0
    handles = {s.S.degree: s for s in subfield_lattice(E)}
    while done < 200:
        chi = random_char(E, rng.randrange(2, 10), rng)
        if not is_admissible(chi):
            continue
        chi0, factors = howe_factorize(chi)
        prod = pullback(chi0, E, handles[1].emb)
        for h, phi in factors:
            prod = prod.mul(pullback(phi, E, h.emb))
        assert prod.equals(chi)
        done += 1
    # Gauss sums: exact unit modulus in the ring and 1e-9 embedded
    for _ in range(200):
        chi = random_char(E, rng.choice([3, 5, 7, 9]), rng)
        g = gauss_sum(chi, psiE)
        assert (g * g.conj()) == ScaledCyc.one(7)
        v, err = g.embed(96)
        assert abs(abs(v) - 1) < 1e-9 + err
    # epsilon ratio cocycle
    for _ in range(200):
        chi = random_char(E, 7, rng)
        t1 = MulChar(E, None, 0, E.monomial(rng.randrange(1, 7), -1))
        t2 = MulChar(E, None, 0, E.monomial(rng.randrange(1, 7), -2))
        a, b, c = chi, chi.mul(t1), chi.mul(t1).mul(t2)
        assert epsilon_ratio(a, c, psiE) == \
            epsilon_ratio(a, b, psiE) * epsilon_ratio(b, c, psiE)
    _report(8, "property suites, 200 instances each", t0, 120)


def test_criterion_09_distinguisher_search(pair5):
    t0 = time.time()
    rep = search_distinguisher(pair5, 2, 6)
    assert rep["found"] is not None, "search outcome: none found (reported)"
    assert rep["found"]["reverified"], "distinguisher must re-verify directly"
    print(f"  distinguisher: {rep['found']['pair']} (case {rep['found']['case']})")
    _report(9, f"rank-2 search, {rep['searched']} pairs scanned", t0, 900)


def test_criterion_10_mutation_tests(pair5, pair7):
    t0 = time.time()
    bad5 = TwinPair(pair5.cfg, pair5.E, pair5.phi1,
                    mutate_on_level_two(pair5.phi2), pair5.beta,
                    pair5.selector, pair5.tower)
    rep = verify_rank_one_twists(bad5, 3)
    assert rep["failures"], "mutated pair must fail the rank-1 criterion"
    bad7 = TwinPair(pair7.cfg, pair7.E, pair7.phi1,
                    mutate_on_level_two(pair7.phi2), pair7.beta,
                    pair7.selector, pair7.tower)
    sample = [tw for tw in iter_twist_pairs(11, 2, 3, 16)
              if tw.m == 2 and tw.shape.startswith("unram")][:40]
    bad_verdicts = [verify_coset_products(bad7, tw).verdict for tw in sample]
    assert not all(bad_verdicts), "mutated pair must fail a coset product"
    # restoring the pair makes the same instances pass again
    assert all(verify_coset_products(pair7, tw).verdict for tw in sample[:10])
    clean = verify_rank_one_twists(pair5, 1)
    assert clean["pass"]
    _report(10, "mutation sensitivity", t0, 300)
