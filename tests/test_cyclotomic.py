import cmath
import json
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localchar.cyclotomic import CycNumber, ScaledCyc, _root_key_terms
from localchar.errors import NotInvertible


def test_make_root_basics():
    assert CycNumber.root(4, 2) == CycNumber.integer(-1, 4)
    assert CycNumber.root(1, 0) == 1
    s = CycNumber.root(3, 0) + CycNumber.root(3, 1) + CycNumber.root(3, 2)
    assert s.is_zero()


def test_root_exponent_addition():
    assert CycNumber.root(8, 1) * CycNumber.root(8, 1) == CycNumber.root(4, 1)


def test_conjugation_inverts_roots():
    assert CycNumber.root(5, 1).conj() == CycNumber.root(5, 4)


def test_zeta6_equals_minus_zeta3_squared():
    assert CycNumber.root(6, 1) == -CycNumber.root(3, 2)


def test_lift_consistency_against_larger_common_multiples():
    rng = random.Random(7)
    for _ in range(50):
        m1 = rng.choice([3, 4, 5, 6, 8, 12])
        m2 = rng.choice([3, 4, 5, 6, 9, 10])
        a = CycNumber.from_root_sum(m1, [(rng.randrange(m1), rng.randint(-3, 3)) for _ in range(4)])
        b = CycNumber.from_root_sum(m2, [(rng.randrange(m2), rng.randint(-3, 3)) for _ in range(4)])
        import math
        lcm = math.lcm(m1, m2)
        eq_lcm = (a.lift(lcm) == b.lift(lcm))
        eq_big = (a.lift(lcm * 6) == b.lift(lcm * 6))
        assert eq_lcm == eq_big == (a == b)


small_modulus = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15])


@st.composite
def cyc_numbers(draw):
    m = draw(small_modulus)
    n = draw(st.integers(min_value=0, max_value=4))
    items = [(draw(st.integers(0, m - 1)), draw(st.integers(-5, 5))) for _ in range(n)]
    return CycNumber.from_root_sum(m, items)


@settings(max_examples=120, deadline=None)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_ring_axioms(a, b, c):
    assert (a + b) == (b + a)
    assert (a * b) == (b * a)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CycNumber.zero() == a
    assert a * CycNumber.one() == a


@settings(max_examples=100, deadline=None)
@given(cyc_numbers())
def test_conj_is_involutive_and_norm_nonnegative(a):
    assert a.conj().conj() == a
    v = ScaledCyc(a * a.conj()).approx()
    assert abs(v.imag) <= 1e-12
    assert v.real >= -1e-12


@settings(max_examples=80, deadline=None)
@given(cyc_numbers())
def test_canonical_form_is_stable(a):
    # re-normalizing (round trip through the term list) changes nothing
    b = CycNumber.from_root_sum(a.modulus, a.to_pairs())
    assert b == a and b.terms == a.terms


def test_canonicity_thousand_randoms():
    rng = random.Random(11)
    for _ in range(1000):
        m = rng.choice([4, 6, 9, 12, 14, 20])
        a = CycNumber.from_root_sum(
            m, [(rng.randrange(m), rng.randint(-4, 4)) for _ in range(4)])
        again = CycNumber.from_root_sum(m, a.to_pairs())
        assert again.terms == a.terms


def test_embed_root_values():
    v = ScaledCyc(CycNumber.root(4, 1)).approx()
    assert abs(v - 1j) < 1e-15


def _legendre(a, p):
    if a % p == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def quadratic_gauss_sum(p):
    """Brute-force quadratic Gauss sum over the p-element field."""
    return CycNumber.from_root_sum(p, [(t, _legendre(t, p)) for t in range(1, p)])


def test_quadratic_gauss_sum_squares_to_minus_seven():
    g = quadratic_gauss_sum(7)
    # 7 = 3 mod 4 so g^2 = -7, fully inside the ring
    assert g * g == CycNumber.integer(-7, 7)


def test_embed_quadratic_gauss_sum_modulus():
    g = quadratic_gauss_sum(7)
    v = ScaledCyc(g, 0, 7).approx()
    assert abs(abs(v) - 7 ** 0.5) < 1e-9


def test_scaledcyc_plain_power_of_q():
    one = ScaledCyc(CycNumber.one(), 2, 7)
    v = one.approx()
    assert abs(v - 7.0) < 1e-12


def test_scaledcyc_q_power_folding_equality():
    a = ScaledCyc(CycNumber.integer(7), 0, 7)
    b = ScaledCyc(CycNumber.one(), 2, 7)
    assert a == b
    assert ScaledCyc(CycNumber.integer(49), -2, 7) == ScaledCyc(CycNumber.integer(7), 0, 7)
    one = ScaledCyc(CycNumber.one(), 2, 7) * ScaledCyc(CycNumber.one(), -2, 7)
    assert one == ScaledCyc.one(7)


def test_scaledcyc_mismatched_parity_equality_via_squares():
    # g_p = sqrt(p) for p = 1 mod 4 and i sqrt(p) for p = 3 mod 4, so with
    # q = p^f, g_p p^(f // 2) q^(-1/2) is the root 1 or i for odd f, and
    # p^(f / 2) q^(-1/2) is 1 for even f; their negatives are not
    for p in (3, 5, 7, 11, 13):
        g = quadratic_gauss_sum(p)
        for f in (1, 2, 3):
            q = p**f
            num, root = CycNumber.integer(p ** (f // 2)), CycNumber.one()
            if f % 2:
                num, root = num * g, CycNumber.root(4, 1 if p % 4 == 3 else 0)
            lhs = ScaledCyc(num, -1, q)
            for shift in (0, 2):  # fold an integer power of q on both sides
                rhs = ScaledCyc(root * q ** (shift // 2), -shift, q)
                assert lhs == rhs and rhs == lhs
                assert not (lhs == ScaledCyc(-root, -shift, q))
                assert not (ScaledCyc(-root, -shift, q) == lhs)


def test_scaledcyc_mismatched_parity_equality_needs_no_floats(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("equality reached mpmath")

    monkeypatch.setattr(mpmath, "mpf", refuse)
    monkeypatch.setattr(mpmath, "mpc", refuse)
    g = quadratic_gauss_sum(7)
    assert ScaledCyc(g, -1, 7) == ScaledCyc(CycNumber.root(4, 1), 0, 7)
    assert not ScaledCyc(g, 1, 7) == ScaledCyc(CycNumber.root(4, 3), 2, 7)


def _rendered_by_embedding(x):
    """serialize()'s "complex" strings as CycNumber.embed(64) and
    ScaledCyc.embed(64) computed them: the root sum, then its scaling by
    q^(qhalf/2), each at 64 + 16 bits."""
    with mpmath.workprec(80):
        total = mpmath.mpc(0)
        for k, c in x.num.to_pairs():
            total += c * mpmath.e ** (2j * mpmath.pi * k / x.num.modulus)
        v = mpmath.mpc(total)
    with mpmath.workprec(80):
        v = complex(v * mpmath.mpf(x.q) ** (mpmath.mpf(x.qhalf) / 2))
    return [f"{v.real:.15g}", f"{v.imag:.15g}"]


def test_serialize_renders_as_the_embedding_did():
    rng = random.Random(25)
    g7 = quadratic_gauss_sum(7)
    values = [ScaledCyc(CycNumber.zero(12), 3, 7), ScaledCyc(CycNumber.zero()),
              ScaledCyc.one(), ScaledCyc(g7, -1, 7), ScaledCyc(g7, 2, 49)]
    values += [ScaledCyc(CycNumber.root(m, k), qhalf, q)
               for m in (1, 4, 7, 9, 20) for k in (0, 1, m // 2)
               for qhalf in (-3, 0, 1) for q in (1, 7, 121)]
    for _ in range(400):
        m = rng.choice([1, 3, 4, 8, 12, 15, 28, 49])
        num = CycNumber.from_root_sum(m, [(rng.randrange(m), rng.randint(-5, 5))
                                          for _ in range(rng.randint(0, 6))])
        values.append(ScaledCyc(num, rng.randint(-6, 6),
                                rng.choice([1, 7, 11, 49, 343])))
    assert {x.qhalf % 2 for x in values} == {0, 1}
    for x in values:
        expected = {"modulus": x.num.modulus,
                    "coeffs": [[k, c] for k, c in x.num.to_pairs()],
                    "qhalf": x.qhalf, "q": x.q,
                    "complex": _rendered_by_embedding(x)}
        assert json.dumps(x.serialize()) == json.dumps(expected)


def test_scaledcyc_inversion_requires_unit_modulus():
    g = quadratic_gauss_sum(7)
    u = ScaledCyc(g, -1, 7)  # |u| = 1
    w = u.invert()
    assert (u * w) == ScaledCyc.one(7)
    with pytest.raises(NotInvertible):
        ScaledCyc(g + CycNumber.one(7), 0, 7).invert()


def test_scaledcyc_inversion_with_default_q():
    # q = 1: only a root of unity has |num|^2 a power of q
    with pytest.raises(NotInvertible):
        ScaledCyc(CycNumber.integer(2)).invert()
    u = ScaledCyc(CycNumber.root(5, 2))
    assert u.invert().num == CycNumber.root(5, 3)
    assert u * u.invert() == ScaledCyc.one()


def test_mul_adds_qhalf():
    a = ScaledCyc(CycNumber.root(3, 1), 1, 7)
    b = ScaledCyc(CycNumber.root(3, 2), 3, 7)
    c = a * b
    assert c.qhalf == 4 and c.num == CycNumber.one(3)


def test_pairs_serialization_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        m = rng.choice([6, 12, 20, 49])
        a = CycNumber.from_root_sum(m, [(rng.randrange(m), rng.randint(-9, 9)) for _ in range(6)])
        assert CycNumber.from_root_sum(m, a.to_pairs()) == a


@st.composite
def dense_counts(draw):
    """A modulus with zero to three prime factors and a count per exponent:
    mostly zeros, some negative, at exponents whose CRT components fall
    both below phi(l^a) and in the folded slots above it."""
    m = draw(st.sampled_from([1, 8, 9, 343, 294, 60, 6 * 7**3]))
    nonzero = draw(st.dictionaries(st.integers(0, m - 1), st.integers(-9, 9),
                                   min_size=1, max_size=40))
    counts = np.zeros(m, dtype=np.int64)
    for k, c in nonzero.items():
        counts[k] = c
    return m, counts


@settings(max_examples=150, deadline=None)
@given(dense_counts())
def test_from_counts_matches_from_root_sum(mc):
    m, counts = mc
    dense = CycNumber.from_counts(m, counts)
    assert dense.modulus == m
    assert dense.terms == CycNumber.from_root_sum(m, enumerate(counts.tolist())).terms


@st.composite
def count_tables(draw):
    """A coprime split m1 x m2 of the modulus, in both orders, and a sparse
    count table whose entry [r, b] counts zeta_m1^r zeta_m2^b: the oracle's
    (q - 1) x p^s tables on Q_7 and two splits with the roles turned."""
    m1, m2 = draw(st.sampled_from([(6, 7**3), (6, 7**5), (7**3, 6), (8, 9)]))
    nonzero = draw(st.dictionaries(
        st.tuples(st.integers(0, m1 - 1), st.integers(0, m2 - 1)),
        st.integers(-9, 9), min_size=1, max_size=40))
    table = np.zeros((m1, m2), dtype=np.int64)
    for rb, c in nonzero.items():
        table[rb] = c
    return table


@settings(max_examples=100, deadline=None)
@given(count_tables())
def test_from_counts_table_matches_from_root_sum(table):
    m1, m2 = table.shape
    dense = CycNumber.from_counts(m1 * m2, table)
    pairs = [(r * m2 + b * m1, int(table[r, b])) for r, b in np.argwhere(table)]
    assert dense.modulus == m1 * m2
    assert dense.terms == CycNumber.from_root_sum(m1 * m2, pairs).terms


def test_from_counts_rejects_a_table_that_does_not_split_the_modulus():
    with pytest.raises(ValueError, match="count table 6 x 6 does not split 36"):
        CycNumber.from_counts(36, np.zeros((6, 6), dtype=np.int64))
    with pytest.raises(ValueError, match="count table 6 x 7 does not split 84"):
        CycNumber.from_counts(84, np.zeros((6, 7), dtype=np.int64))


# M = 1, prime powers, 7, 42, 294 (the rank-1 moduli) and three-prime moduli
root_moduli = st.sampled_from([1, 2, 4, 8, 9, 27, 25, 49, 343, 7, 42, 294,
                               30, 105])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cached_roots_match_the_uncached_expansion(data):
    m = data.draw(root_moduli)
    items = data.draw(st.lists(st.tuples(st.integers(-2 * m, 2 * m),
                                         st.integers(-3, 3)), max_size=5))
    for k, _ in items:
        uncached = dict(_root_key_terms.__wrapped__(m, k % m))
        root = CycNumber.root(m, k)
        assert root.terms == uncached
        assert abs(ScaledCyc(root).approx()
                   - cmath.exp(2j * cmath.pi * k / m)) < 1e-9
    total = CycNumber.zero(m)
    for k, c in items:
        total = total + CycNumber(m, dict(_root_key_terms.__wrapped__(
            m, k % m))) * c
    assert CycNumber.from_root_sum(m, items).terms == total.terms


def test_from_root_sum_leaves_cached_expansions_unchanged():
    before = _root_key_terms(42, 5)
    assert isinstance(before, tuple)
    snapshot = list(before)
    # a zero coefficient, then a pair that cancels (47 = 5 mod 42)
    assert CycNumber.from_root_sum(42, [(5, 0), (5, 3), (47, -3)]).is_zero()
    assert list(_root_key_terms(42, 5)) == snapshot
    assert CycNumber.root(42, 5).terms == dict(snapshot)
    assert CycNumber.from_root_sum(42, [(5, 2)]).terms == {
        key: 2 * s for key, s in snapshot}


def test_root_cache_stays_within_its_stated_bound():
    bound = _root_key_terms.cache_info().maxsize
    assert bound is not None and str(bound) in _root_key_terms.__doc__
    m = 2 * 3 * 5 * 7 * 11
    for k in range(bound + 100):
        CycNumber.root(m, k)
    assert _root_key_terms.cache_info().currsize <= bound
    assert CycNumber.root(m, 0) == 1


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 4, 9, 12, 42, 105, 294]), st.data())
def test_conj_is_the_sum_of_inverse_roots(m, data):
    x = CycNumber.from_root_sum(m, data.draw(st.lists(st.tuples(
        st.integers(0, m - 1), st.integers(-4, 4)), max_size=6)))
    expected = CycNumber.zero(m)
    for k, c in x.to_pairs():
        expected = expected + CycNumber.root(m, -k) * c
    assert x.conj().terms == expected.terms
