import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from localchar.cyclotomic import CycNumber, ScaledCyc
from localchar.errors import (CapacityError, ConductorMismatch, EvenConductor,
                              NotInvertible, PrecisionLoss)
from localchar.localfield import (TameRamified, TowerField, Unramified,
                                  make_tower)
from localchar.ambient import compositum_abstract
from localchar.embeddings import automorphisms
from localchar.characters import (MulChar, _add_exponents, char_exponents,
                                  make_psi, pullback, random_char)
from localchar.epsilon import (
    _psi_row,
    epsilon_factor,
    epsilon_factors,
    epsilon_oracle_consistency,
    gauss_sum,
    theta_row,
)
from localchar.oracle import _digit_sums, _level_rows, _slow_sum, oracle_sum


@pytest.fixture(scope="module")
def E():
    return make_tower(7, [TameRamified(5, 1)], 12)


@pytest.fixture(scope="module")
def F():
    return make_tower(7, (), 12)


@pytest.fixture(scope="module")
def Q3():
    return make_tower(3, (), 12)


@pytest.fixture(scope="module")
def Q13():
    return make_tower(13, (), 12)


def test_gauss_sum_term_count_and_parity_guard(F):
    psi = make_psi(F)
    chi = random_char(F, 3, random.Random(0))
    g = gauss_sum(chi, psi)
    assert g.qhalf == -1
    with pytest.raises(EvenConductor):
        gauss_sum(random_char(F, 4, random.Random(0)), psi)


def _reference_gauss_sum(chi, psi, c):
    """The q terms chi(1 + x)^-1 psi(c x) added one CycNumber at a time."""
    F = chi.field
    n = (chi.conductor() - 1) // 2
    total = CycNumber.one()
    for a in range(1, F.q):
        x = F.monomial(a, n)
        total = total + chi.eval(F.one() + x).conj() * psi.eval(c * x)
    return ScaledCyc(total, -1, F.q)


def _parametric_chars():
    F = make_tower(7, (), 12)
    E = make_tower(7, [TameRamified(5, 1)], 12)
    U = make_tower(11, [Unramified(2)], 16)
    rng = random.Random(14)
    for field, conductors in ((F, (3, 5)), (E, (3, 5, 9)), (U, (3, 5))):
        for c in conductors:
            chi = random_char(field, c, rng)
            yield MulChar(field, chi.w, 0, chi.gamma)
            yield MulChar(field, chi.w, 1 + rng.randrange(field.q - 2),
                          chi.gamma)


def _factored_chars(k=24, k_K=120):
    """Products of pullbacks from E = Q_7(7^(1/5)) and L = Q_7(7^(1/2)) to
    their compositum (e = 10, so no exp/log there): conductor 7, two parts."""
    E = make_tower(7, [TameRamified(5, 1)], k)
    L = make_tower(7, [TameRamified(2, 1)], k)
    K, iE, iL = compositum_abstract(E, L, k_K)
    for t_E, t_L in ((0, 0), (2, 3)):
        phi = MulChar(E, (1, 6), t_E,
                      E.monomial(3, -3) + E.monomial(1, -1))
        lam = MulChar(L, None, t_L, L.monomial(2, -1))
        yield pullback(phi, K, iE).mul(pullback(lam, K, iL))


@pytest.mark.parametrize("chars", [
    pytest.param(_parametric_chars, id="parametric-F-E-unram2"),
    pytest.param(_factored_chars, id="factored-compositum"),
    # the representative c has valuation -6: its norms would burn the
    # subfields' storage, so the character is evaluated at the unit part
    pytest.param(lambda: _factored_chars(12, 24),
                 id="factored-compositum-k24"),
])
def test_gauss_sum_and_epsilon_match_termwise_reference(chars):
    seen_t = set()
    for chi in chars():
        F = chi.field
        psi = make_psi(F)
        f = chi.conductor()
        c = chi.c_rep()
        ref = _reference_gauss_sum(chi, psi, c)
        assert gauss_sum(chi, psi).serialize() == ref.serialize()
        root = ScaledCyc(chi.eval(c).conj() * psi.eval(c), f - 1, F.q)
        eps = epsilon_factor(chi, psi)
        assert eps.value.serialize() == (root * ref).serialize()
        assert eps.gauss_part.serialize() == ref.serialize()
        parts = chi.parts if chi.is_factored() else ((None, chi),)
        seen_t.add(any(part.t for _, part in parts))
    assert seen_t == {False, True}


def test_factored_epsilon_bytes_do_not_depend_on_precision():
    def outputs(k, k_K):
        psi = None
        out = []
        for chi in _factored_chars(k, k_K):
            psi = psi or make_psi(chi.field)
            eps = epsilon_factor(chi, psi)
            out.append((eps.value.serialize(), eps.gauss_part.serialize()))
        return out

    assert outputs(12, 24) == outputs(24, 120)


# the five field shapes the trace-form rows must handle: e and f both 1,
# e > 1, f > 1, both > 1 (with pi^3 = U p for a non-scalar unit U, so the
# forms' U^m and fold matter), and a second prime
_ROW_FIELDS = {
    "Q7": lambda: make_tower(7, (), 12),
    "Q7(7^1/5)": lambda: make_tower(7, [TameRamified(5, 1)], 12),
    "unram2": lambda: make_tower(7, [Unramified(2)], 10),
    "unram2+ram3": lambda: make_tower(
        7, [Unramified(2), TameRamified(3, ("gen", 1))], 10),
    "Q11(11^1/7)": lambda: make_tower(11, [TameRamified(7, 1)], 16),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_ROW_FIELDS)), st.sampled_from([3, 5, 7]),
       st.integers(0, 2**32), st.integers(0, 3), st.integers(-9, 2))
def test_trace_form_rows_match_the_product_reference(random_element, name, f,
                                                     seed, n, vc):
    """theta_row, _psi_row and the oracle's theta digit table give the
    (z, m) pairs of the inline products, moduli included."""
    F = _ROW_FIELDS[name]()
    psi = make_psi(F)
    rng = random.Random(seed)
    # the form itself, on a y with every slot set (the rows' y are not);
    # x y is certified to v(x) + v(y) + k >= 1
    x, y = random_element(F, rng, vc, vc), random_element(F, rng, n, n)
    m, form = psi.trace_form(x, y.v)
    digit = sum(a * b for a, b in zip(form, (c for w in y.core for c in w)))
    assert psi.digit_exponent(m, digit) == psi.exponent(x * y)
    chi = random_char(F, f, rng)
    h = (f - 1) // 2
    tame = F.q - 1 if chi.t else 1
    logs = F.principal_logs(h, f)
    ref = [_add_exponents(0, tame, *psi.exponent(chi.gamma * lg))
           for lg in logs]
    assert theta_row(chi, h) == ref
    assert ref == [char_exponents((chi,), F.one() + F.monomial(a, h))[0]
                   for a in range(1, F.q)]
    for c in (chi.c_rep(), random_element(F, rng, vc, vc)):
        assert _psi_row(psi, c, n) == [psi.exponent(c * F.monomial(a, n))
                                       for a in range(1, F.q)]
    if F.f == 1:  # the oracle's digits: psi(-gamma log(1 + a pi^i))
        for i in range(1, f):
            lgs = F.principal_logs(i, f, teich=False)
            assert psi.log_row(-chi.gamma, i, f, teich=False) == [
                psi.exponent(-chi.gamma * lg) for lg in lgs]


def test_trace_form_rows_raise_precision_loss_where_products_do():
    F = make_tower(7, [TameRamified(5, 1)], 12)
    psi = make_psi(F)
    n = 2
    for w, loses in ((-n, True), (1 - n, False)):
        # c tau(a) pi^n is certified to w + n: psi needs it mod P^1
        c = F.monomial(3, -6).cap_window(w)
        if loses:
            with pytest.raises(PrecisionLoss):
                psi.exponent(c * F.monomial(1, n))
            with pytest.raises(PrecisionLoss):
                _psi_row(psi, c, n)
        else:
            assert _psi_row(psi, c, n) == [psi.exponent(c * F.monomial(a, n))
                                           for a in range(1, F.q)]
    gamma = F.monomial(2, -4)
    # gamma lg is certified to window + v(gamma) = window - 4; from
    # n = window on, every log is a zero known mod P^window
    for n, window, loses in ((1, 4, True), (1, 5, False), (4, 4, True),
                             (5, 5, False), (7, 5, False)):
        logs = F.principal_logs(n, window)
        assert all(lg.is_zero() for lg in logs) == (n >= window)
        if loses:
            with pytest.raises(PrecisionLoss):
                psi.exponent(gamma * logs[0])
            with pytest.raises(PrecisionLoss):
                psi.log_row(gamma, n, window)
        else:
            assert psi.log_row(gamma, n, window) == [
                psi.exponent(gamma * lg) for lg in logs]


def test_log_forms_memo_holds_one_entry_per_key():
    """The forms table keeps one entry per (n, window, teich, v(gamma)) of
    q - 1 forms with e f ints each, shared by the closed form and the
    oracle; reading it again adds nothing."""
    T = TowerField(7, (Unramified(2), TameRamified(3, 1)), 10)
    psi = make_psi(T)
    rng = random.Random(50)
    chars = [random_char(T, f, rng) for f in (3, 3, 5, 7)]
    rows = [theta_row(chi, (chi.conductor() - 1) // 2) for chi in chars]
    memo = dict(T._caches["plog_forms"])
    assert [theta_row(chi, (chi.conductor() - 1) // 2)
            for chi in chars] == rows
    assert T._caches["plog_forms"] == memo
    assert set(memo) == {((f - 1) // 2, f, True, 1 - f) for f in (3, 5, 7)}
    for entry in memo.values():
        assert len(entry) == T.q - 1
        assert all(len(form) == T.e * T.f for _m, form in entry)
    F = TowerField(7, (), 12)
    chi = random_char(F, 3, rng)
    oracle_sum(chi, make_psi(F), F.uniformizer() ** (-2))
    assert set(F._caches["plog_forms"]) == {(1, 3, False, -2),
                                            (2, 3, False, -2)}


def test_gauss_part_is_summed_when_first_read(E, monkeypatch):
    psi = make_psi(E)
    chi = random_char(E, 5, random.Random(51))
    eager = gauss_sum(chi, psi)
    orig = CycNumber.from_root_sum
    calls = []
    monkeypatch.setattr(CycNumber, "from_root_sum", staticmethod(
        lambda modulus, terms: calls.append(modulus) or orig(modulus, terms)))
    eps = epsilon_factor(chi, psi)
    n = len(calls)
    assert n == 2  # the value at c and at the perturbed representative
    assert eps.gauss_part.serialize() == eager.serialize()
    assert len(calls) == n + 1
    assert eps.gauss_part is eps.gauss_part and len(calls) == n + 1


def _sharing_c(field, f, rng):
    """A character of conductor f and twists of it by characters of small
    conductor, with nontrivial w and t: all share f and c_rep."""
    chi = random_char(field, f, rng)
    r = (f + 1) // 2  # c_rep drops the levels 1 - r .. -1
    out = [chi]
    for _ in range(2):
        gamma = None
        if r > 1:
            gamma = field.monomial(rng.randrange(1, field.q),
                                   rng.randrange(1 - r, 0))
        eta = MulChar(field, (rng.randrange(1, 6), 6),
                      rng.randrange(1, field.q - 1), gamma)
        out.append(chi.mul(eta))
    return out


def _epsilon_bytes(e):
    g = None if e.gauss_part is None else e.gauss_part.serialize()
    return e.serialize(), g


@pytest.mark.parametrize("f", [2, 3, 6, 7])
def test_epsilon_factors_match_one_at_a_time(E, f):
    psi = make_psi(E)
    rng = random.Random(30 + f)
    for _ in range(3):
        chars = _sharing_c(E, f, rng)
        assert any(chi.t and chi.w[0] for chi in chars)
        assert len({chi.conductor() for chi in chars}) == 1
        got = [_epsilon_bytes(e) for e in epsilon_factors(chars, psi)]
        assert got == [_epsilon_bytes(epsilon_factor(chi, psi))
                       for chi in chars]
        assert (got[0][1] is None) == (f % 2 == 0)


def test_epsilon_factors_raise_on_differing_c_representatives(E):
    psi = make_psi(E)
    chi = random_char(E, 7, random.Random(40))
    # a level inside the truncation window [1-f, 1-r) moves c, not f
    other = chi.mul(MulChar(E, None, 0, E.monomial(1, -4)))
    assert other.conductor() == 7
    with pytest.raises(ConductorMismatch):
        epsilon_factors((chi, other), psi)
    with pytest.raises(ConductorMismatch):
        epsilon_factors((chi, random_char(E, 5, random.Random(41))), psi)


def test_oracle_grids_belong_to_their_field(clear_oracle_cache):
    rng = random.Random(42)
    # fields built directly, not shared through make_tower's memo
    T, fresh = TowerField(7, (), 12), TowerField(7, (), 12)
    chi = random_char(T, 3, rng)
    oracle_sum(chi, make_psi(T), T.uniformizer() ** (-2))
    (grid,) = T._caches["oracle_grids"].values()
    # one psi exponent per unit of (O/P^3)^x / mu_{q-1}, at the width
    # psw needs: q^(c-1) * 2 bytes at psw = 343
    width = np.min_scalar_type(grid.psw - 1).itemsize
    assert (grid.psw, width) == (343, 2)
    assert sum(row.nbytes for row in grid.blocks) == T.q ** 2 * width
    assert "oracle_grids" not in fresh._caches
    clear_oracle_cache(T)
    assert "oracle_grids" not in T._caches


def test_oracle_grids_keep_one_key_per_field():
    rng = random.Random(43)
    T = TowerField(7, (), 12)  # its own caches, not make_tower's field
    psi = make_psi(T)
    chi3, chi4 = random_char(T, 3, rng), random_char(T, 4, rng)
    d2, d3 = T.uniformizer() ** (-2), T.uniformizer() ** (-3)
    first = oracle_sum(chi3, psi, d2)
    (key,) = T._caches["oracle_grids"]
    oracle_sum(chi4, psi, d3)  # a second key evicts the first
    (second,) = T._caches["oracle_grids"]
    assert second != key and second[0] == 4
    # the first key's grid is built again, and gives the same sum
    assert oracle_sum(chi3, psi, d2) == first
    assert tuple(T._caches["oracle_grids"]) == (key,)


def test_gauss_sum_unit_modulus_exact_and_embedded(E, F):
    rng = random.Random(1)
    for field, psi in ((F, make_psi(F)), (E, make_psi(E))):
        for _ in range(25):
            c = rng.choice([3, 5, 7] if field is E else [3, 5])
            chi = random_char(field, c, rng)
            g = gauss_sum(chi, psi)
            assert (g * g.conj()) == ScaledCyc.one(field.q)
            assert abs(abs(g.approx()) - 1) < 1e-9


def test_gauss_sum_automorphism_invariance():
    E6 = make_tower(11, [TameRamified(6, 1)], 24)
    psi = make_psi(E6)
    auts = automorphisms(E6)
    sigma = next(a for a in auts if not (a.pi_img - E6.uniformizer()).is_zero())
    from localchar.converse import transport_char
    rng = random.Random(2)
    for _ in range(5):
        chi = random_char(E6, 5, rng)
        g1 = gauss_sum(chi, psi)
        g2 = gauss_sum(transport_char(chi, sigma, auts), psi)
        assert g1.num == g2.num


def test_epsilon_assembly_and_modulus(E):
    psi = make_psi(E)
    rng = random.Random(3)
    e2 = epsilon_factor(random_char(E, 2, rng), psi)
    assert e2.parity == "even" and e2.gauss_part is None
    assert e2.value.qhalf == 1
    e3 = epsilon_factor(random_char(E, 3, rng), psi)
    assert e3.parity == "odd" and e3.gauss_part is not None
    assert abs(abs(e3.value.approx()) - 7.0) < 1e-8


def test_epsilon_transport_invariance():
    E6 = make_tower(11, [TameRamified(6, 1)], 24)
    psi = make_psi(E6)
    auts = automorphisms(E6)
    sigma = next(a for a in auts if not (a.pi_img - E6.uniformizer()).is_zero())
    from localchar.converse import transport_char
    chi = random_char(E6, 4, random.Random(4))
    e1 = epsilon_factor(chi, psi)
    e2 = epsilon_factor(transport_char(chi, sigma, auts), psi)
    assert e1.value == e2.value


@pytest.mark.parametrize("name, c, chunk, dense", [
    pytest.param("F", 2, None, False, id="F-c2"),
    # psw ps >= 7^3 7^3 > 49 units: one bincount per Teichmuller row
    pytest.param("F", 3, None, False, id="F-c3-sparse"),
    # 2,058 terms over 343 units: a 6 x 2,401 count table, one bincount per row
    pytest.param("F", 4, None, False, id="F-c4-sparse"),
    # _CHUNK = p^2 on E: 7 blocks of 49 units, level 3 is a high digit;
    # psw ps = 7 * 7 <= 49: one joint histogram per block
    pytest.param("E", 4, 49, True, id="E-c4-blocks"),
    # psw = 3^5 and 13^2: residues fit uint8, their sums need uint16
    pytest.param("Q3", 5, None, False, id="Q3-c5-psw243"),
    pytest.param("Q13", 2, None, False, id="Q13-c2-psw169"),
])
def test_oracle_term_count_and_slow_agreement(name, c, chunk, dense, request,
                                              monkeypatch, clear_oracle_cache):
    import numpy as np
    import localchar.oracle as om
    field = request.getfixturevalue(name)
    psi = make_psi(field)
    chi = random_char(field, c, random.Random(5))
    delta = field.uniformizer() ** (1 - c)
    if chunk:
        monkeypatch.setattr(om, "_CHUNK", chunk)
    shifts = []
    take = np.take_along_axis
    monkeypatch.setattr(np, "take_along_axis",
                        lambda *a: shifts.append(1) or take(*a))
    clear_oracle_cache(field)
    try:
        fast = oracle_sum(chi, psi, delta)
    finally:
        clear_oracle_cache(field)
    assert bool(shifts) == dense  # the dense side shifts the joint table
    slow = ScaledCyc(_slow_sum(chi, psi, delta, c), -c, field.q)
    assert not fast.is_zero()
    assert fast == slow  # q^(c-1)(q-1) terms, order-independent by exactness


def _reference_grid_rows(F, psi, c, delta, psw):
    """psi exponents of u delta over the units u = prod (1 + d_lev pi^lev),
    lowest level fastest, as coordinate table @ psi(pi^i delta) mod psw: the
    coordinates of every unit mod p^amod, rolled by pi with pi^e = p U."""
    p, e = F.p, F.e
    amod = max(1, -(-(1 - delta.valuation()) // e), -(-c // e))
    mod = p ** amod
    wrap = p * F.U[0] % mod

    def pi_pow_mult(x, i):
        q2, r2 = divmod(i, e)
        x = x * pow(wrap, q2, mod) % mod
        return np.concatenate([x[:, e - r2:] * wrap % mod, x[:, :e - r2]], 1)

    units = np.eye(1, e, dtype=np.int64)
    for lev in range(1, c):
        shifted = pi_pow_mult(units, lev)
        units = np.concatenate([(units + d * shifted) % mod for d in range(p)])
    w = [z * (psw // m) % psw
         for z, m in (psi.exponent(delta.shift(i)) for i in range(e))]
    return units @ np.array(w, dtype=np.int64) % psw


@pytest.mark.parametrize("name, c, chunk", [
    pytest.param("F", 3, None, id="F-c3"),
    # 7 blocks of 49 units: nonzero theta offsets in the dense path
    pytest.param("E", 4, 49, id="E-c4-blocks"),
    # 7 blocks of 7^4 units
    pytest.param("E", 6, 7 ** 4, id="E-c6-blocks"),
])
def test_oracle_grid_rows_match_the_coordinate_table(name, c, chunk, request,
                                                     monkeypatch):
    import localchar.oracle as om
    field = request.getfixturevalue(name)
    psi = make_psi(field)
    delta = field.uniformizer() ** (1 - c)
    if chunk:
        monkeypatch.setattr(om, "_CHUNK", chunk)
    grid = om._Grid(field, psi, c, delta)
    assert len(grid.blocks) == (7 if chunk else 1)
    width = np.min_scalar_type(grid.psw - 1)
    assert all(row.dtype == width for row in grid.blocks)
    ref = _reference_grid_rows(field, psi, c, delta, grid.psw)
    assert np.array_equal(np.concatenate(grid.blocks), ref)


def _level_rows_int64(w, p, levels, wrap, psw, keep):
    """Reference: _level_rows with every sum in int64 and reduced by %."""
    e, width = len(w), np.min_scalar_type(psw - 1)
    rows = [np.array([x], dtype=width) for x in w]
    for lev in levels:
        new = []
        for s in range(keep if lev == levels[-1] else e):
            q2, r2 = divmod(s + lev, e)
            acc = rows[s].astype(np.int64)
            step = rows[r2].astype(np.int64) * pow(wrap, q2, psw) % psw
            out = np.empty((p, len(acc)), dtype=width)
            for d in range(p):
                out[d] = acc
                acc += step
                acc %= psw
            new.append(out.ravel())
        rows = new
    return rows[:keep]


def _digit_sums_int64(t1, lo, hi):
    """Reference: the unreduced int64 digit sums."""
    out = np.zeros(1, dtype=np.int64)
    for lev in range(lo, hi):
        out = (t1[lev][:, None] + out).ravel()
    return out


# p: (largest a in psw = p^a, most levels), so psw <= 729 and a row has at
# most p^levels <= 2,401 entries
_KERNEL_SIZES = {3: (6, 7), 5: (4, 4), 7: (3, 4), 11: (2, 3), 13: (2, 3)}


@st.composite
def _oracle_kernel_inputs(draw):
    """(p, psw, ps, weights, levels, wrap, keep, t1 table) with psw = p^a up
    to 729, ps = psw or p psw and keep at most the number of weights."""
    p = draw(st.sampled_from(sorted(_KERNEL_SIZES)))
    top, most_levels = _KERNEL_SIZES[p]
    psw = p ** draw(st.integers(1, top))
    ps = psw * draw(st.sampled_from([1, p]))
    e = draw(st.integers(1, 7))
    w = draw(st.lists(st.integers(0, psw - 1), min_size=e, max_size=e))
    lo = draw(st.integers(1, e + 2))
    levels = range(lo, lo + draw(st.integers(0, most_levels)))
    wrap = p * draw(st.integers(1, psw - 1).filter(lambda u: u % p)) % psw
    t1 = draw(st.lists(st.lists(st.integers(0, ps - 1), min_size=p,
                                max_size=p), min_size=levels.stop,
                       max_size=levels.stop))
    return p, psw, ps, w, levels, wrap, draw(st.integers(1, e)), t1


@settings(max_examples=60, deadline=None)
@given(_oracle_kernel_inputs())
# 169 and 243 store a row in uint8 but sum two residues in uint16
@example((7, 49, 49, [48, 1, 30, 47, 5], range(1, 5), 7 * 3 % 49, 1,
          [[48] * 7] * 5))
@example((13, 169, 169, [168, 167], range(1, 4), 13 * 5 % 169, 2,
          [[168] * 13] * 4))
@example((3, 243, 729, [242, 241, 1], range(2, 9), 3 * 2 % 243, 3,
          [[728, 727, 1]] * 9))
@example((7, 343, 343, [342, 341, 340, 1], range(1, 5), 7 * 6 % 343, 1,
          [[342] * 7] * 5))
# levels from 8: a low pass from level 1 to levels.stop would take 13^10 sums
@example((13, 169, 2197, [168, 167, 1, 2, 3, 4], range(8, 11), 13 * 5 % 169,
          2, [[2196] * 13] * 11))
def test_oracle_kernel_matches_the_int64_reference(args):
    """Grid rows and digit sums, kept in the narrowest unsigned type that
    holds a sum of two residues and reduced by one fold, equal int64 sums
    reduced by %; rows keep their stored width."""
    p, psw, ps, w, levels, wrap, keep, t1 = args
    got = _level_rows(w, p, levels, wrap, psw, keep)
    ref = _level_rows_int64(w, p, levels, wrap, psw, keep)
    assert len(got) == len(ref) == keep
    for row, ref_row in zip(got, ref):
        assert row.dtype == np.min_scalar_type(psw - 1)
        assert np.array_equal(row, ref_row)
    work = np.min_scalar_type(2 * ps - 2)
    for lo, hi in ((1, 1 + len(levels)), (levels.start, levels.stop)):
        sums = _digit_sums(np.array(t1, dtype=work), lo, hi, ps)
        assert sums.dtype == work
        ref_sums = _digit_sums_int64(np.array(t1, dtype=np.int64), lo, hi) % ps
        assert np.array_equal(sums, ref_sums)


def test_oracle_grid_build_memory_per_unit():
    """The rows are built level by level, with no table of unit coordinates:
    one E, c = 6 grid (q^5 units, one block) traces at most 40 bytes a
    unit, against e int64 coordinates and their copies per unit."""
    import localchar.oracle as om
    T = TowerField(7, (TameRamified(5, 1),), 12)
    psi, delta = make_psi(T), T.uniformizer() ** (-5)
    om._Grid(T, psi, 6, delta)  # fill the field's caches first
    tracemalloc.start()
    try:
        grid = om._Grid(T, psi, 6, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid.blocks) == 1
    assert peak <= 40 * T.q ** 5


def _block_wide_joint(blocks, offs, tlow, psw, ps):
    """The dense loop with one key copy and one bincount per whole block,
    each block's table rolled by its theta offset."""
    joint = 0
    for off, pexp in zip(offs, blocks):
        keys = pexp.astype(np.min_scalar_type(psw * ps - 1))
        keys *= ps
        keys += tlow
        table = np.bincount(keys, minlength=psw * ps)
        joint = joint + np.roll(table.reshape(psw, ps), off, axis=1)
    return joint


@pytest.mark.parametrize("c, chunk, slices", [
    # one block of 16,807 units: four slices of 4,096 and one of 423
    pytest.param(6, None, 5, id="E-c6"),
    # 7 blocks of 49 units with nonzero theta offsets, one slice each
    pytest.param(4, 49, 1, id="E-c4-blocks"),
    # 7 blocks of 16,807 units, five slices each
    pytest.param(7, 7 ** 5, 5, id="E-c7-blocks"),
])
def test_oracle_sliced_dense_kernel_matches_the_block_wide_loop(
        E, c, chunk, slices, monkeypatch, clear_oracle_cache):
    import localchar.oracle as om
    monkeypatch.setattr(om, "_SLICE", 4096)
    if chunk:
        monkeypatch.setattr(om, "_CHUNK", chunk)
    bincount, dense_joint, calls = np.bincount, om._dense_joint, []

    def spy(blocks, offs, tlow, psw, ps):
        sizes = []
        with monkeypatch.context() as m:
            m.setattr(np, "bincount", lambda keys, minlength: (
                sizes.append(len(keys)) or bincount(keys, minlength=minlength)))
            got = dense_joint(blocks, offs, tlow, psw, ps)
        calls.append((got, _block_wide_joint(blocks, offs, tlow, psw, ps),
                      sizes, len(blocks), len(tlow), psw * ps, offs))
        return got

    monkeypatch.setattr(om, "_dense_joint", spy)
    chi = random_char(E, c, random.Random(7))
    clear_oracle_cache(E)
    try:
        oracle_sum(chi, psi=make_psi(E), delta=E.uniformizer() ** (1 - c))
    finally:
        clear_oracle_cache(E)
    (got, ref, sizes, blocks, units, table, offs), = calls
    assert got.dtype == np.int64 and np.array_equal(got, ref)
    assert blocks == (7 if chunk else 1) and units == (chunk or E.q ** (c - 1))
    assert (offs != 0).any() == bool(chunk)
    # slices of max(_SLICE, psw ps) units, never fewer than the count table
    # has entries; only the last of a block is shorter
    step = max(4096, table)
    assert len(sizes) == blocks * slices
    assert sizes == blocks * ([step] * (units // step) + [units % step] *
                              (units % step > 0))


def test_oracle_dense_kernel_memory_per_unit():
    """Keys are counted a slice at a time: a warm E, c = 8 sum (q^7 units in
    one block) traces at most 3 bytes a unit, where a block-wide narrow key
    copy and bincount's intp cast of it traced 11."""
    T = TowerField(7, (TameRamified(5, 1),), 12)
    psi, delta = make_psi(T), T.uniformizer() ** (-7)
    chi = random_char(T, 8, random.Random(8))
    oracle_sum(chi, psi, delta)  # build the grid and fill the field's caches
    tracemalloc.start()
    try:
        oracle_sum(chi, psi, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * T.q ** 7


def test_oracle_rejects_a_teichmuller_lift_outside_z_p(monkeypatch):
    """The grid keeps one psi row and multiplies it by t_j mod psw; a
    lift t_j + pi is not in Z_p, so psi is not t_j-linear on it."""
    from localchar.errors import InternalContradiction
    T = TowerField(7, (TameRamified(5, 1),), 12)
    lift = T.tau
    monkeypatch.setattr(T, "tau", lambda n: lift(n) + T.uniformizer())
    chi = random_char(T, 4, random.Random(5))
    with pytest.raises(InternalContradiction, match="not t_j psi"):
        oracle_sum(chi, make_psi(T), T.uniformizer() ** (-3))


def test_oracle_wrong_valuation_vanishes(E):
    psi = make_psi(E)
    rng = random.Random(6)
    chi = random_char(E, 3, rng)
    assert oracle_sum(chi, psi, E.uniformizer() ** (-1)).is_zero()
    assert not oracle_sum(chi, psi, E.uniformizer() ** (-2)).is_zero()


def test_oracle_delta_unit_invariance(E):
    psi = make_psi(E)
    rng = random.Random(7)
    chi = random_char(E, 3, rng)
    base = oracle_sum(chi, psi, E.uniformizer() ** (-2))
    for a in (2, 3, 5):
        delta = E.monomial(a, -2)
        assert oracle_sum(chi, psi, delta) == base


def test_oracle_budget(E):
    psi = make_psi(E)
    chi = random_char(E, 9, random.Random(8))
    with pytest.raises(CapacityError):
        oracle_sum(chi, psi, E.uniformizer() ** (-8), budget=1000)


def test_oracle_count_table_bound_raises_before_allocating():
    """A conductor-7 sum on Q_7 at delta = pi^-9 has 705,894 terms, inside
    the term budget, but its (q-1) x 7^10 int64 count table is 12.6 GiB:
    CapacityError comes before any large allocation."""
    F = make_tower(7, (), 24)
    psi, chi = make_psi(F), random_char(F, 7, random.Random(1))
    delta = F.uniformizer() ** (-9)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="count table"):
            oracle_sum(chi, psi, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_consistency_classes_and_shift(F):
    psi = make_psi(F)
    rng = random.Random(9)
    chars = [random_char(F, c, rng) for c in (2, 3, 4, 5) for _ in range(4)]
    rep = epsilon_oracle_consistency(chars, psi, oracle_sum)
    assert len(rep["classes"]) == 4
    shifts = {(r["from_conductor"], r["to_conductor"]): r["qhalf_shift"]
              for r in rep["shift_relations"]}
    assert shifts == {(2, 4): 2, (3, 5): 2}


def test_oracle_sum_dispatches_to_the_slow_path_off_prime_residues(
        monkeypatch):
    # f = 2: oracle_sum itself must take _slow_sum, and its value must match
    # the closed form, with ratio q^((c-1)/2) as on prime-residue fields
    import localchar.oracle as om
    T = make_tower(3, [Unramified(2)], 8)
    psi = make_psi(T)
    rng = random.Random(3)
    chars = [random_char(T, c, rng) for c in (2, 3) for _ in range(2)]
    slow_calls, values = [], []
    slow = om._slow_sum
    monkeypatch.setattr(om, "_slow_sum",
                        lambda *a: slow_calls.append(1) or slow(*a))

    def oracle_fn(chi, psi_, delta):
        values.append(oracle_sum(chi, psi_, delta))
        return values[-1]

    rep = epsilon_oracle_consistency(chars, psi, oracle_fn)
    assert len(slow_calls) == len(chars)
    assert [c["conductor"] for c in rep["classes"]] == [2, 3]
    assert all(c["ratio"] is not None for c in rep["classes"])
    for chi, orc in zip(chars, values):
        qpow = ScaledCyc(CycNumber.one(), chi.conductor() - 1, T.q)
        assert epsilon_factor(chi, psi).value == orc * qpow


@pytest.mark.parametrize("error, ratio_none", [(NotInvertible, True),
                                               (ValueError, False)])
def test_consistency_ratio_catches_only_not_invertible(F, monkeypatch, error,
                                                       ratio_none):
    def fail(self):
        raise error("injected")

    monkeypatch.setattr(ScaledCyc, "invert", fail)
    chars = [random_char(F, 3, random.Random(9))]
    if ratio_none:
        rep = epsilon_oracle_consistency(chars, make_psi(F), oracle_sum)
        assert rep["classes"][0]["ratio"] is None
    else:
        with pytest.raises(error):
            epsilon_oracle_consistency(chars, make_psi(F), oracle_sum)


def test_consistency_across_three_seeds(F):
    psi = make_psi(F)
    refs = []
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        chi = random_char(F, 3, rng)
        eps = epsilon_factor(chi, psi)
        orc = oracle_sum(chi, psi, F.uniformizer() ** (-2))
        refs.append((eps.value, orc))
    m0, o0 = refs[0]
    for m, o in refs[1:]:
        assert m0 * o == m * o0


def test_oracle_block_split_matches_one_block(E, monkeypatch, clear_oracle_cache):
    import localchar.oracle as om
    psi = make_psi(E)
    chi = random_char(E, 6, random.Random(13))
    delta = E.uniformizer() ** (-5)
    sums = []
    for chunk, blocks in ((om._CHUNK, 1), (1 << 14, 7)):
        monkeypatch.setattr(om, "_CHUNK", chunk)
        clear_oracle_cache(E)
        sums.append(oracle_sum(chi, psi, delta))
        grid, = E._caches["oracle_grids"].values()
        assert len(grid.blocks) == blocks
    clear_oracle_cache(E)
    assert sums[0] == sums[1]


def test_consistency_across_precisions():
    rng_data = [(c, random.Random(100 + c)) for c in (2, 3)]
    vals = {}
    for k in (12, 16):
        F = make_tower(7, (), k)
        psi = make_psi(F)
        for c, _ in rng_data:
            rng = random.Random(100 + c)
            chi = random_char(F, c, rng)
            eps = epsilon_factor(chi, psi)
            orc = oracle_sum(chi, psi, F.uniformizer() ** (1 - c))
            vals.setdefault(c, []).append((eps.value, orc))
    for c, pairs in vals.items():
        (m1, o1), (m2, o2) = pairs
        assert m1 == m2 and o1 == o2


def test_epsilon_ratio_identity_and_twist(E, epsilon_ratio):
    psi = make_psi(E)
    rng = random.Random(10)
    chi = random_char(E, 7, rng)
    assert epsilon_ratio(chi, chi, psi) == ScaledCyc.one(E.q)
    # twist by a shallow character trivial at the c-representative
    eta = MulChar(E, None, 0, E.monomial(2, -1))
    chi2 = chi.mul(eta)
    ratio = epsilon_ratio(chi, chi2, psi)
    c = chi.c_rep()
    # the quotient (chi2/chi)(c) = eta(c): check directly and by oracle
    expected = eta.eval(c)
    assert ratio == ScaledCyc(expected, 0, E.q)
    o1 = oracle_sum(chi, psi, E.uniformizer() ** (1 - 7))
    o2 = oracle_sum(chi2, psi, E.uniformizer() ** (1 - 7))
    assert o1 == o2 * expected  # same ratio through the brute-force route


def test_epsilon_ratio_conductor_guard(E, epsilon_ratio):
    psi = make_psi(E)
    rng = random.Random(11)
    with pytest.raises(ConductorMismatch):
        epsilon_ratio(random_char(E, 5, rng), random_char(E, 7, rng), psi)


def test_epsilon_ratio_cocycle(E, epsilon_ratio):
    psi = make_psi(E)
    rng = random.Random(12)
    done = 0
    while done < 25:
        chi = random_char(E, 7, rng)
        e1 = MulChar(E, None, 0, E.monomial(rng.randrange(1, 7), -1))
        e2 = MulChar(E, None, 0, E.monomial(rng.randrange(1, 7), -2))
        a, b, c = chi, chi.mul(e1), chi.mul(e1).mul(e2)
        r_ab = epsilon_ratio(a, b, psi)
        r_bc = epsilon_ratio(b, c, psi)
        r_ac = epsilon_ratio(a, c, psi)
        assert r_ac == r_ab * r_bc
        done += 1
