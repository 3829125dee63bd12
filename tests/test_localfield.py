import ast
import json
import math
import operator
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import localchar
from localchar.characters import make_psi
from localchar.errors import (
    ConfigError,
    DivisionByZero,
    ExpLogRadius,
    PrecisionLoss,
    WildRamification,
)
from localchar.localfield import (
    TameRamified,
    TowerField,
    Unramified,
    _poly_mul_mod,
    _poly_pow_mod,
    _primitive_poly,
    make_tower,
)


@pytest.fixture(scope="module")
def E():
    return make_tower(7, [TameRamified(5, 1)], 12)


@pytest.fixture(scope="module")
def F():
    return make_tower(7, (), 12)


def test_tower_construction_basics(E):
    assert (E.e, E.f, E.q) == (5, 1, 7)
    L = make_tower(11, [Unramified(2)], 8)
    assert (L.e, L.f, L.q) == (1, 2, 121)


def test_wild_ramification_rejected():
    with pytest.raises(WildRamification):
        make_tower(5, [TameRamified(5, 1)], 8)
    # an unramified step is never wild, whatever its degree
    T = make_tower(5, [Unramified(5)], 4)
    assert (T.e, T.f) == (1, 5)


def test_explog_radius_flag():
    T = make_tower(7, [TameRamified(6, 1)], 8)
    assert not T.explog_ok
    with pytest.raises(ExpLogRadius):
        T.log_principal(T.one() + T.uniformizer())


def test_uniformizer_relation(E):
    assert (E.uniformizer() ** 5) == E.from_int(7)


def test_negative_valuations(E):
    x = E.uniformizer() ** (2 - 10)
    assert x.valuation() == -8
    assert (x * x.inv()) == E.one()


def test_ultrametric_on_random_pairs(E, random_element):
    rng = random.Random(0)
    for _ in range(1000):
        a = random_element(E, rng, -4, 8)
        b = random_element(E, rng, -4, 8)
        s = a + b
        if not s.is_zero():
            assert s.valuation() >= min(a.valuation(), b.valuation())


def test_mul_valuations_add(E, random_element):
    rng = random.Random(1)
    for _ in range(300):
        a = random_element(E, rng, -3, 6)
        b = random_element(E, rng, -3, 6)
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_inverse_on_random_units(E):
    rng = random.Random(2)
    for _ in range(200):
        u = E.random_unit(rng)
        assert (u * u.inv()) == E.one()
    with pytest.raises(DivisionByZero):
        E.zero().inv()


def test_teichmuller(E):
    assert E.teichmuller(1) == E.one()
    t = E.teichmuller(3)
    assert (t ** 6) == E.one()
    assert t.residue() == (3,)


def test_teichmuller_memo_matches_direct_lift():
    for p, steps, k, count in [
        (11, (Unramified(2),), 16, None),
        (11, (), 12, None),
        # q = 4489 > 4096: dlog_res takes the baby-step giant-step path
        (67, (Unramified(2),), 4, 60),
    ]:
        _check_teichmuller_lifts(p, steps, k, count)


def test_dlog_res_takes_int_to_res_codes():
    for p, steps, k in [(11, (), 6), (11, (Unramified(2),), 6),
                        (7, (Unramified(3),), 4),
                        # q = 4489 > 4096: the baby-step giant-step path
                        (67, (Unramified(2),), 4)]:
        T = make_tower(p, steps, k)
        codes = range(1, T.q) if T.q < 500 else random.Random(p).sample(
            range(1, T.q), 200)
        for n in codes:
            assert T.dlog_res(n) == T.dlog_res(T.int_to_res(n)), (T, n)
        for n in (0, T.q):
            with pytest.raises(DivisionByZero):
                T.dlog_res(n)


def _check_teichmuller_lifts(p, steps, k, count):
    T = make_tower(p, steps, k)
    fresh = TowerField(p, steps, k)  # not shared with make_tower
    rng = random.Random(p)
    ns = range(1, T.q) if count is None else rng.sample(range(1, T.q), count)
    for n in ns:
        r = T.int_to_res(n)  # a W element too: its digits lie in [0, p)
        # fill the memo from a representative other than r itself
        noise = tuple(3 * n + i for i in range(1, T.f + 1))
        lifted = T.xi_pow(T.dlog_res(T.wadd(r, T.wscal(noise, T.p))))
        direct = fresh.wpow(r, fresh.q ** (fresh.a + 1))
        assert T.xi_pow(T.dlog_res(r)) == lifted == direct
        # tau(n) = xi^n is the lift of the residue of xi^n
        xin = T.res_of(fresh.wpow(fresh.xi(), n))
        assert T.tau(n).core == T.teichmuller(xin).core
        assert T.tau(n - T.q + 1).core == T.tau(n).core
        assert T.teichmuller(r) ** (T.q - 1) == T.one()
        # tau(r)^-1 = xi^(-dlog r), as principal_split takes it
        tinv = T.xi_pow(-T.dlog_res(r))
        assert T.wmul(direct, tinv) == T.wone()
    with pytest.raises(DivisionByZero):
        T.dlog_res(T.wscal(T.wone(), T.p))
    assert len(T._caches["teich"]) <= T.q - 1


def _residue_roots_by_fp_loop(T, poly, count):
    """residue_roots as once written: the powers of the residue of
    xi^((q-1)/(p^d-1)) in F_p[x]/(h), poly evaluated at each there."""
    d = len(poly) - 1
    hbar = [c % T.p for c in poly]
    tbar = [c % T.p for c in T.h]
    base = _poly_pow_mod(list(T.res_of(T.xi())), (T.q - 1) // (T.p**d - 1),
                         tbar, T.p)
    roots = []
    cur = list(base)
    for _ in range(T.p**d - 1):
        val = [0] * T.f
        acc = [1] + [0] * (T.f - 1)
        for c in hbar:
            if c:
                val = [(x + c * y) % T.p for x, y in zip(val, acc)]
            acc = _poly_mul_mod(acc, cur, tbar, T.p)
        if not any(val):
            roots.append(T.hensel_root(poly, tuple(cur)))
            if len(roots) == count:
                break
        cur = _poly_mul_mod(cur, base, tbar, T.p)
    return roots


@pytest.mark.parametrize("p, f, d", [
    (3, 4, 2), (5, 4, 2), (5, 6, 2), (5, 6, 3), (7, 2, 2), (11, 2, 1),
])
def test_residue_roots_match_residue_field_loop(p, f, d):
    T = make_tower(p, (Unramified(f),), 4)
    poly = _primitive_poly(p, d)
    for count in range(1, d + 2):
        got = T.residue_roots(poly, count)
        assert got == _residue_roots_by_fp_loop(T, poly, count)
        assert len(got) == min(count, d)
        assert all(T._weval_poly(poly, r) == T.wzero() for r in got)


# Fields for the core tests, as (p, steps, k) with (e, f) = (1, 1), (1, 2),
# (2, 1), (7, 1), (7, 2) and (14, 1).
CORE_FIELDS = [
    (11, (), 6),
    (11, (Unramified(2),), 6),
    (11, (TameRamified(2, 1),), 6),
    (11, (TameRamified(7, 2),), 12),
    (11, (Unramified(2), TameRamified(7, ("gen", 1))), 12),
    (11, (TameRamified(14, 1),), 12),
]


# Per-slot references: the W/R core as each slot was once built by W calls.

def _ref_radd(F, x, y):
    return tuple(F.wadd(a, b) for a, b in zip(x, y))


def _ref_rsub(F, x, y):
    return tuple(F.wsub(a, b) for a, b in zip(x, y))


def _ref_rneg(F, x):
    return tuple(tuple((-c) % F.pa for c in a) for a in x)


def _ref_rscal(F, x, c):
    return tuple(F.wscal(a, c) for a in x)


def _ref_rwscal(F, x, w):
    return tuple(F.wmul(a, w) for a in x)


def _ref_rval(F, x, limit=None):
    best = None
    for i, w in enumerate(x):
        v = F._wval(w)
        if v < F.a:
            pos = i + F.e * v
            if best is None or pos < best:
                best = pos
    if best is not None and limit is not None and best >= limit:
        return None
    return best


def _ref_rshift_up(F, x, s):
    e = F.e
    qq, r = divmod(s, e)
    if qq:
        x = _ref_rwscal(F, x, F.wpow(F.Upw, qq))
    for _ in range(r):
        x = (F.wmul(x[e - 1], F.Upw),) + x[: e - 1]
    return x


def _ref_rshift_out(F, x, s):
    e = F.e
    qq, r = divmod(s, e)
    if qq:
        pq = F.p**qq
        x = tuple(tuple(c // pq for c in w) for w in x)
        x = _ref_rwscal(F, x, F.wpow(F.Uinv, qq))
    for _ in range(r):
        w0 = tuple(c // F.p for c in x[0])
        x = x[1:] + (F.wmul(w0, F.Uinv),)
    return x


@st.composite
def _slots(draw, F):
    """A W element: zero, a unit-ish vector, a multiple of p^j, or one
    nonzero coordinate; zero most often, as cores are sparse."""
    kind = draw(st.sampled_from(["zero", "zero", "dense", "pdiv", "sparse"]))
    if kind == "zero":
        return (0,) * F.f
    if kind == "sparse":
        i = draw(st.integers(0, F.f - 1))
        c = draw(st.integers(1, F.pa - 1))
        return tuple(c if j == i else 0 for j in range(F.f))
    pj = F.p ** draw(st.integers(1, F.a)) if kind == "pdiv" else 1
    return tuple(draw(st.integers(0, F.pa - 1)) * pj % F.pa for _ in range(F.f))


@st.composite
def _cores(draw, F):
    return tuple(draw(_slots(F)) for _ in range(F.e))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.sampled_from(CORE_FIELDS))
def test_r_ops_match_per_slot_reference(data, shape):
    F = make_tower(*shape)
    x, y = data.draw(_cores(F)), data.draw(_cores(F))
    w = data.draw(_slots(F))
    c = data.draw(st.integers(-F.pa, F.pa))
    assert F.radd(x, y) == _ref_radd(F, x, y)
    assert F.rsub(x, y) == _ref_rsub(F, x, y)
    assert F.rneg(x) == _ref_rneg(F, x)
    assert F.rscal(x, c) == _ref_rscal(F, x, c)
    assert F.rwscal(x, w) == _ref_rwscal(F, x, w)
    assert F.rval(x) == _ref_rval(F, x)
    limit = data.draw(st.integers(0, F.kint + 2))
    assert F.rval(x, limit) == _ref_rval(F, x, limit)
    s = data.draw(st.integers(0, 3 * F.e + 2))
    assert F.rshift_up(x, s) == _ref_rshift_up(F, x, s)
    rv = F.rval(x)
    if rv is not None:
        s = data.draw(st.integers(0, rv))
        assert F.rshift_out(x, s) == _ref_rshift_out(F, x, s)
    n = data.draw(st.integers(-F.a - 3, F.a + 3))
    assert F.upow(n) == (F.wpow(F.U, n) if n >= 0 else F.wpow(F.Uinv, -n))


@st.composite
def _elements(draw, F):
    kind = draw(st.sampled_from(["exact zero", "bounded zero", "int", "element",
                                 "element"]))
    if kind == "exact zero":
        return F.zero()
    if kind == "bounded zero":
        return F.zero_bounded(draw(st.integers(-4, F.kint)))
    if kind == "int":
        return draw(st.integers(-3 * F.p**2, 3 * F.p**2))
    prec, store = draw(st.integers(1, F.kint)), draw(st.integers(1, F.kint))
    return F.make(draw(st.integers(-4, 6)), draw(_cores(F)), prec, store)


def _state(x):
    return (x.v, x.core, x.prec, x.store)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.sampled_from(CORE_FIELDS))
def test_sub_matches_add_of_negation(data, shape):
    F = make_tower(*shape)
    a = data.draw(_elements(F))
    if isinstance(a, int):
        a = F.from_int(a)
    b = data.draw(_elements(F))
    assert _state(a - b) == _state(a + (-b))
    if not isinstance(b, int):
        assert _state(b - a) == _state(b + (-a))


# The W/R ops as written before a field with f = 1 bound integer kernels and
# wmul reduced by h from the top: the reference for the kernels on f = 1
# fields and for the generic ops on the others.

def _old_wadd(F, x, y):
    return tuple((a + b) % F.pa for a, b in zip(x, y))


def _old_hred(F):
    """x^f, ..., x^(2f-2) mod h."""
    f, rows = F.f, []
    cur = tuple((-F.h[i]) % F.pa for i in range(f))
    rows.append(cur)
    for _ in range(f - 2):
        shifted = (0,) + cur[: f - 1]
        cur = tuple((shifted[i] - cur[f - 1] * F.h[i]) % F.pa for i in range(f))
        rows.append(cur)
    return rows


def _old_wmul(F, x, y):
    f, pa = F.f, F.pa
    if f == 1:
        return ((x[0] * y[0]) % pa,)
    out = [0] * (2 * f - 1)
    for i, ai in enumerate(x):
        if ai:
            for j, bj in enumerate(y):
                out[i + j] += ai * bj
    res = [c % pa for c in out[:f]]
    for d in range(f, 2 * f - 1):
        c = out[d] % pa
        if c:
            row = _old_hred(F)[d - f]
            for i in range(f):
                res[i] = (res[i] + c * row[i]) % pa
    return tuple(res)


def _old_wval(F, x):
    best = F.a
    for c in x:
        if c:
            v = 0
            while c % F.p == 0:
                c //= F.p
                v += 1
            if v < best:
                best = v
                if best == 0:
                    return 0
    return best


def _old_radd(F, x, y):
    return tuple(tuple((c + d) % F.pa for c, d in zip(a, b)) for a, b in zip(x, y))


def _old_rsub(F, x, y):
    return tuple(tuple((c - d) % F.pa for c, d in zip(a, b)) for a, b in zip(x, y))


def _old_rwscal(F, x, w):
    return tuple(_old_wmul(F, a, w) if any(a) else a for a in x)


def _old_rmul(F, x, y):
    e = F.e
    if e == 1:
        return (_old_wmul(F, x[0], y[0]),)
    zero = F.wzero()
    acc = [zero] * e
    for i, xi in enumerate(x):
        if xi == zero:
            continue
        for j, yj in enumerate(y):
            if yj == zero:
                continue
            w = _old_wmul(F, xi, yj)
            d = i + j
            if d >= e:
                w = _old_wmul(F, w, F.Upw)
                d -= e
            acc[d] = _old_wadd(F, acc[d], w)
    return tuple(acc)


def _old_trace_w(F, x):
    if F.f == 1:
        return x[0] % F.pa
    return sum(a * s for a, s in zip(x, F._power_sums)) % F.pa


_OLD_OPS = {"wadd": _old_wadd, "wmul": _old_wmul, "_wval": _old_wval,
            "radd": _old_radd, "rsub": _old_rsub, "rwscal": _old_rwscal,
            "rmul": _old_rmul, "trace_w": _old_trace_w}


def _random_core(F, rng, kind):
    """dense, one nonzero slot, zero slots, p-divisible slots, or only the
    upper slots nonzero, so that products wrap past pi^e."""
    def slot(pj=1):
        return tuple(rng.randrange(F.pa) * pj % F.pa for _ in range(F.f))
    e, zero = F.e, F.wzero()
    if kind == "one slot":
        i = rng.randrange(e)
        return tuple(slot() if j == i else zero for j in range(e))
    if kind == "zero slots":
        return tuple(slot() if rng.randrange(2) else zero for _ in range(e))
    if kind == "p-divisible":
        return tuple(slot(F.p ** rng.randrange(F.a + 1)) for _ in range(e))
    if kind == "upper":
        return tuple(slot() if 2 * j >= e else zero for j in range(e))
    return tuple(slot() for _ in range(e))


_KINDS = ("dense", "one slot", "zero slots", "p-divisible", "upper")


@pytest.mark.parametrize("p, steps, k", CORE_FIELDS + [(7, (TameRamified(5, 1),), 12)])
def test_w_r_ops_match_the_former_generic_code(p, steps, k):
    F = make_tower(p, steps, k)
    assert callable(F.__dict__.get("rmul")) == (F.f == 1)
    old = TowerField(p, steps, k)  # not shared with make_tower
    for name, op in _OLD_OPS.items():
        setattr(old, name, lambda *args, op=op: op(old, *args))
    rng = random.Random(F.e * 100 + F.f)
    for n in range(60):
        x = _random_core(F, rng, _KINDS[n % 5])
        y = _random_core(F, rng, _KINDS[n // 5 % 5])
        w = x[n % F.e]
        assert F.wadd(x[0], w) == _old_wadd(F, x[0], w)
        assert F.wmul(x[0], w) == _old_wmul(F, x[0], w)
        assert F._wval(w) == _old_wval(F, w)
        assert F.trace_w(w) == _old_trace_w(F, w)
        assert F.radd(x, y) == _old_radd(F, x, y)
        assert F.rsub(x, y) == _old_rsub(F, x, y)
        assert F.rwscal(x, w) == _old_rwscal(F, x, w)
        assert F.rmul(x, y) == _old_rmul(F, x, y)
        v, prec, store = rng.randrange(-3, 4), rng.randrange(1, F.kint + 1), F.kint
        a, b = F.make(v, x, prec, store), F.make(v + n % 3, y, F.kint, store)
        a0, b0 = old.make(v, x, prec, store), old.make(v + n % 3, y, F.kint, store)
        for got, want in [(a * b, a0 * b0), (a + b, a0 + b0), (a - b, a0 - b0),
                          (a * 7, a0 * 7), (a ** 3, a0 ** 3)]:
            assert got.serialize() == want.serialize()


@pytest.mark.parametrize("p, steps, k", [CORE_FIELDS[0], CORE_FIELDS[3],
                                         CORE_FIELDS[4]])
def test_operand_checks_behind_the_same_field_fast_path(p, steps, k):
    """+, - and * skip the operand checks for an element of the same
    field; every other operand still takes them."""
    F = make_tower(p, steps, k)
    G = make_tower(p, steps, k + 1)
    rng = random.Random(k)
    x = F.random_unit(rng).shift(1)
    y = G.random_unit(rng)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ConfigError, match="elements of different fields"):
            op(x, y)
        with pytest.raises(TypeError):
            op(x, 2.5)
        with pytest.raises(TypeError):
            op(2.5, x)
        assert op(x, 7).serialize() == op(x, F.from_int(7)).serialize()
        assert op(3, x).serialize() == op(F.from_int(3), x).serialize()
    with pytest.raises(ConfigError, match="elements of different fields"):
        x == y
    assert x != 2.5
    Z, B = F.zero(), F.zero_bounded(3)
    assert (x * Z).serialize() == (Z * B).serialize() == {"zero_mod": None}
    assert (x * 0).serialize() == {"zero_mod": None}
    assert (x * B).serialize() == (B * x).serialize() == {"zero_mod": 4}
    assert (B * B).serialize() == {"zero_mod": 6}
    assert (B + Z).serialize() == (Z - B).serialize() == {"zero_mod": 3}
    assert (x + Z).serialize() == (Z + x).serialize() == x.serialize()
    assert (Z - x).serialize() == (-x).serialize()
    assert (x - B).serialize() == x.cap_window(3).serialize()
    assert (B - x).serialize() == (-x).cap_window(3).serialize()


@pytest.mark.parametrize("p, steps, k", CORE_FIELDS)
def test_principal_split_names_the_teichmuller_exponent(p, steps, k):
    T = make_tower(p, steps, k)
    rng = random.Random(len(steps) * 100 + k)
    for _ in range(20):
        u = T.random_unit(rng)
        n, u1 = u.principal_split()
        assert n == T.dlog_res(u.residue())
        assert T.tau(n) * u1 == u
        assert u1.eq_mod(T.one(), 1)
    with pytest.raises(ConfigError):
        T.uniformizer().principal_split()


def _ref_winv(F, x):
    """winv as once written: its own W-Newton loop from the residue inverse."""
    if F._wval(x) != 0:
        raise DivisionByZero("W element is not a unit")
    hbar = [c % F.p for c in F.h]
    inv0 = _poly_pow_mod([c % F.p for c in x], F.q - 2, hbar, F.p)
    y = tuple(inv0) + (0,) * (F.f - len(inv0))
    for _ in range(max(1, math.ceil(math.log2(max(F.a, 2))) + 1)):
        y = F.wmul(y, F.wsub(F.wint(2), F.wmul(x, y)))
    return y


def _ref_rinv(F, x):
    """rinv as once written: seeded with the W inverse of the first slot."""
    if F.rval(x) != 0:
        raise DivisionByZero("R element is not a unit")
    y = F.rfromw(_ref_winv(F, x[0]))
    for _ in range(max(1, math.ceil(math.log2(max(F.kint, 2))) + 1)):
        y = F.rmul(y, F.rsub(F.rint(2), F.rmul(x, y)))
    return y


def _ref_hensel_root(F, poly, r0):
    """hensel_root as once written: a + 2 Newton steps."""
    dpoly = tuple((i * c) % F.pa for i, c in enumerate(poly))[1:]
    r = tuple(c % F.pa for c in r0)
    for _ in range(F.a + 2):
        r = F.wsub(r, F.wmul(F._weval_poly(poly, r),
                             _ref_winv(F, F._weval_poly(dpoly, r))))
    return r


@pytest.mark.parametrize("p, steps, k", CORE_FIELDS)
def test_newton_lifts_match_the_separate_loops(p, steps, k):
    """winv, rinv and hensel_root share one Newton schedule; each gives the
    unique inverse or simple root that the former separate loops gave."""
    F = make_tower(p, steps, k)
    rng = random.Random(F.e * 100 + F.f)
    for _ in range(30):
        unit = rng.randrange(F.pa // F.p) * F.p + rng.randrange(1, F.p)
        x = tuple(tuple(unit if (i, j) == (0, 0) else rng.randrange(F.pa)
                        for j in range(F.f)) for i in range(F.e))
        y = F.rinv(x)
        assert y == _ref_rinv(F, x)
        assert F.rmul(x, y) == F.rone()
        assert F.winv(x[0]) == _ref_winv(F, x[0])
    # X^(q-1) - 1 lifts a residue to its Teichmuller root; h lifts x^p
    roots = [((-1,) + (0,) * (F.q - 2) + (1,), F.int_to_res(n))
             for n in rng.sample(range(1, F.q), 4)]
    if F.f > 1:
        roots.append((F.h, F.wpow((0, 1) + (0,) * (F.f - 2), F.p)))
    for poly, r0 in roots:
        assert F.hensel_root(poly, r0) == _ref_hensel_root(F, poly, r0)
    for w in (F.wzero(), F.wscal(F.wone(), F.p), F.wint(F.p ** (F.a - 1))):
        with pytest.raises(DivisionByZero):
            F.winv(w)
        with pytest.raises(DivisionByZero):
            F.rinv(F.rfromw(w))
    with pytest.raises(DivisionByZero):
        F.rinv(F.rshift_up(F.rone(), 1))


# The square-and-multiply loops and the coordinate substitution as once
# written, one per layer.

def _ref_poly_pow_mod(a, n, hbar, p):
    res = [1] + [0] * (len(hbar) - 2)
    base = list(a)
    while n:
        if n & 1:
            res = _poly_mul_mod(res, base, hbar, p)
        n >>= 1
        if n:
            base = _poly_mul_mod(base, base, hbar, p)
    return res


def _ref_wpow(F, x, n):
    res, base = F.wone(), x
    while n:
        if n & 1:
            res = F.wmul(res, base)
        n >>= 1
        if n:
            base = F.wmul(base, base)
    return res


def _ref_pow(x, n):
    if n < 0:
        return _ref_pow(x.inv(), -n)
    out, base = x.field.one(), x
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _ref_subst_gen(F, w, g):
    out, cur = F.wzero(), F.wone()
    for c in w:
        if c:
            out = F.wadd(out, F.wscal(cur, c))
        cur = F.wmul(cur, g)
    return out


@pytest.mark.parametrize("p, steps, k", CORE_FIELDS)
def test_one_power_and_one_w_evaluation_match_the_former_loops(
        p, steps, k, monkeypatch):
    """_power serves the residue, W and element layers with the former
    loops' products in their order, so even the stored digits above the
    certified window agree; _weval_poly is the former subst_gen."""
    F = make_tower(p, steps, k)
    rng = random.Random(F.e * 100 + F.f + 1)
    hbar = [c % F.p for c in F.h]
    for _ in range(20):
        n = rng.choice([0, 1, 2, F.q - 2, F.p ** F.a, rng.randrange(200)])
        w = tuple(rng.randrange(F.pa) for _ in range(F.f))
        g = tuple(rng.randrange(F.pa) for _ in range(F.f))
        a = [rng.randrange(F.p) for _ in range(F.f)]
        assert (_poly_pow_mod(a, n, hbar, F.p)
                == _ref_poly_pow_mod(a, n, hbar, F.p))
        assert F.wpow(w, n) == _ref_wpow(F, w, n)
        assert F._weval_poly(w, g) == _ref_subst_gen(F, w, g)
        x = F.random_unit(rng).shift(rng.randrange(-2, 3))
        x = x.cap_window(x.v + rng.randrange(1, F.kint + 1))
        m = rng.randrange(-6, 12)
        assert (json.dumps((x ** m).serialize())
                == json.dumps(_ref_pow(x, m).serialize()))
    # a unit of W takes the W schedule: ceil(log2 a) + 1 steps, two rmul each;
    # counted on fresh instances, as an f = 1 field binds its own rmul
    calls = []
    for G in (TowerField(p, steps, k), TowerField(7, (TameRamified(5, 1),), 12)):
        rmul = G.rmul
        monkeypatch.setattr(G, "rmul",
                            lambda x, y, rmul=rmul: calls.append(1) or rmul(x, y))
        calls.clear()
        assert G.winv(G.U) == G.Uinv
        assert len(calls) == 2 * (math.ceil(math.log2(max(G.a, 2))) + 1)


def test_no_assert_statements_in_package():
    # assert vanishes under python -O; internal checks must raise
    for path in sorted(Path(localchar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def test_no_unused_parameters_in_package():
    # a parameter no body reads is dead API; self, cls and _names are exempt
    unused = []
    for path in sorted(Path(localchar.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg,
                                                              a.kwarg]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            unused += [f"{path.name}:{fn.lineno} {fn.name}({p.arg})"
                       for p in params if p and p.arg not in read
                       and p.arg not in ("self", "cls")
                       and not p.arg.startswith("_")]
    assert not unused, unused


def test_exp_log_inverse_pair(E):
    rng = random.Random(3)
    one = E.one()
    for _ in range(500):
        u = one + E.random_unit(rng).shift(1)
        lg = E.log_principal(u)
        assert lg.valuation() >= 1
        assert E.exp_principal(lg).eq_mod(u, 12)


def test_log_is_homomorphism(E):
    rng = random.Random(4)
    one = E.one()
    for _ in range(200):
        x = E.random_unit(rng).shift(1)
        y = E.random_unit(rng).shift(1)
        lhs = E.log_principal((one + x) * (one + y))
        rhs = E.log_principal(one + x) + E.log_principal(one + y)
        assert (lhs - rhs).is_zero()


def test_exp_log_on_prime_field(F):
    rng = random.Random(5)
    one = F.one()
    for _ in range(100):
        u = one + F.random_unit(rng).shift(1)
        assert F.exp_principal(F.log_principal(u)).eq_mod(u, 12)


def test_precision_tracking_on_add(E):
    x = E.uniformizer() ** 3
    y = (-x).cap_window(9)
    s = x + y
    assert s.is_zero() and s.prec == 9
    with pytest.raises(PrecisionLoss):
        s.eq_mod(E.zero(), 10)


def test_division_by_integers_exact(E):
    x = E.from_digits([(1, 3), (4, 2)])
    y = x.div_int(21)
    assert (y * E.from_int(21) - x).is_zero()


def test_trace_digits_level(E, F):
    # psi(x) = zeta^tr(x): tr(pi^i) vanishes for 5 not dividing i, and
    # tr(1) = 5, read at the digit p^0
    psi = make_psi(E)
    assert psi.exponent(E.one()) == (5, 7)
    assert psi.exponent(E.uniformizer()) == (0, 7)
    # tr(pi^-5) = tr(U^-1 / p) = 5 / p: one digit, at p^-1
    assert psi.exponent(E.uniformizer() ** -5) == (5, 49)
    # tr(1) for residue degree 2: 2 Frobenius conjugates
    L = make_tower(11, [Unramified(2)], 8)
    assert make_psi(L).exponent(L.one()) == (2, 11)


def test_serialization_roundtrip(E, random_element):
    rng = random.Random(6)
    x = random_element(E, rng, -2, 4)
    d = x.serialize()
    assert d["valuation"] == x.valuation()


def test_digit_representation_unique(E):
    rng = random.Random(7)
    for _ in range(50):
        digs = [(v, rng.randrange(7)) for v in range(0, 6)]
        if all(d == 0 for _, d in digs):
            continue
        x = E.from_digits(digs)
        y = E.from_digits(digs)
        assert (x - y).is_zero()


@pytest.mark.parametrize("p, steps, k", [
    (7, (), 12),
    (7, (TameRamified(5, 1),), 12),
    (11, (Unramified(2),), 16),
])
def test_principal_log_table_matches_direct_logs(p, steps, k):
    T = make_tower(p, steps, k)
    fresh = TowerField(p, steps, k)
    one = fresh.one()
    systems = [True] if T.f > 1 else [True, False]
    for n, window in ((1, 3), (2, 5), (4, 9)):
        for teich in systems:
            table = T.principal_logs(n, window, teich=teich)
            assert len(table) == T.q - 1
            assert T.principal_logs(n, window, teich=teich) is table
            for a, lg in enumerate(table, 1):
                x = fresh.monomial(a, n) if teich else fresh.from_int(a).shift(n)
                direct = fresh.log_principal(one + x, window=window)
                assert lg.serialize() == direct.serialize()
    if T.f > 1:
        with pytest.raises(ConfigError):
            T.principal_logs(1, 3, teich=False)


def _long_log(T, u, window):
    """log(u) mod P^window with the series summed to n = p (window + e),
    adding the terms below the window as log_principal does.  Term n has
    valuation n v - e v_p(n) >= n - e log_p(n), which is at least the window
    for every larger n; window + e alone is too few once p^2 | n, as at
    n = 49 on Q_7(7^(1/5)) with v = 1 and window 40 (valuation 39)."""
    y = u - T.one()
    if y.is_zero():
        return T.zero() if y.prec == float("inf") else T.zero_bounded(y.prec)
    window = min(y.window(), T.kint, window)
    acc = T.zero()
    power = T.one()
    for n in range(1, T.p * (window + T.e) + 1):
        power = power * y
        t = power.div_int(n)
        if n % 2 == 0:
            t = -t
        if t.is_zero() or t.v < window:
            acc = acc + t
    return acc.cap_window(window)


@pytest.mark.parametrize("p, steps, k", [
    (7, (), 12),
    (7, (TameRamified(5, 1),), 12),
    (11, (TameRamified(7, 1),), 28),
])
@settings(max_examples=40, deadline=None)
@given(v=st.integers(1, 45), window=st.integers(1, 60),
       lead=st.integers(1, 120), rest=st.lists(st.integers(0, 120), max_size=30))
# v = 1 at the full window runs the series past n = p, 2p, ...
@example(v=1, window=60, lead=1, rest=[5] * 30)
# ... and at window 40 on e = 5 needs the term n = p^2 = 49
@example(v=1, window=40, lead=1, rest=[])
def test_log_term_count_matches_long_series(p, steps, k, v, window, lead, rest):
    T = make_tower(p, steps, k)
    window = min(window, T.kint)
    digits = [(v, 1 + (lead - 1) % (T.q - 1))]
    digits += [(v + i, d % T.q) for i, d in enumerate(rest, 1)]
    u = T.one() + T.from_digits(digits)
    got = T.log_principal(u, window=window)
    assert got.serialize() == _long_log(T, u, window).serialize()
