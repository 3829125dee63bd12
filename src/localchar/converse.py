"""Twin character pairs and the twisted-product equalities they satisfy.

Build: over E = F[pi], pi^N = p, the element beta = pi^(2-2N) pins a
character of 1 + P^(2N-2); for odd N any extension works, for even N the
construction composes a character of the proper subfield E_1 = F[pi^2]
(pulled back through the norm) with a conductor-(l+1) character cut out by
pi^(-l).  The twin pair shares the uniformizer value, the tame part, and the
restriction to 1 + P^2, and differs on 1 + P by a conductor-2 twist chosen
non-conjugate.

Verify: for a twisting pair (L, lambda) with representative alpha, both
routes evaluate the coset product of phi^(i) o N at beta + alpha: Route A by
a multiplication-matrix norm in the compositum, Route B by factoring out the
dominant term and reassembling the complementary product from the
characteristic polynomial of alpha over F, then certifying the remaining
argument falls in 1 + P_E^2 where the twins agree.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dfield
from functools import cached_property, lru_cache
from itertools import product
from operator import getitem

from .cyclotomic import CycNumber
from .errors import ConfigError, InternalContradiction, RangeViolation
from .ambient import build_ambient, compositum_abstract
from .characters import (MulChar, admissible_on_digits, char_exponents,
                         is_admissible, make_psi, pullback, pullbacks,
                         same_root, tame_exponent, truncate_to,
                         _add_exponents, _subfield_handle)
from .embeddings import (Subfield, automorphisms, find_embeddings,
                          identity_embedding)
from .epsilon import epsilon_factors, theta_row
from .localfield import (TameRamified, TowerElement, TowerField, Unramified,
                         _prime_gen, make_tower)


# --------------------------------------------------------------------- config


@dataclass
class TwinConfig:
    p: int
    N: int
    ell: int | None = None
    selector: int | None = None
    conductor_bound: int = 3
    precision: int | None = None
    seed: int = 0

    def validate(self):
        if self.N < 5:
            raise ConfigError("the construction needs N >= 5")
        if self.p - 1 <= self.N:
            raise ConfigError("need p - 1 > N for the tower invariant")
        if self.N % 2 == 0:
            if self.ell is None:
                raise ConfigError("even N needs the split exponent ell")
            if not (2 <= self.ell <= self.N - 1) or math.gcd(self.ell, self.N) != 1:
                raise ConfigError("ell must lie in [2, N-1] and be coprime to N")
        if self.selector is not None and not 1 <= self.selector <= self.p - 1:
            raise ConfigError("selector must lie in [1, p-1]")
        if self.precision is not None and self.precision < 2:
            raise ConfigError("precision must be at least 2")
        return self

    @property
    def k(self) -> int:
        return self.precision if self.precision else 4 * self.N

    def echo(self) -> dict:
        return {"p": self.p, "N": self.N, "ell": self.ell,
                "selector": self.selector,
                "conductor_bound": self.conductor_bound,
                "precision": self.k, "seed": self.seed}


def field_E(cfg: TwinConfig) -> TowerField:
    return make_tower(cfg.p, (TameRamified(cfg.N, 1),), cfg.k)


# ----------------------------------------------------------- pair construction


@dataclass
class TwinPair:
    cfg: TwinConfig
    E: TowerField
    phi1: MulChar
    phi2: MulChar
    beta: TowerElement
    selector: int
    tower: list
    _beta_images: dict = dfield(default_factory=dict, init=False,
                                repr=False, compare=False)

    def difference(self) -> MulChar:
        return self.phi1.mul(self.phi2.inv())

    # values that depend only on the pair, computed on first use; a new
    # TwinPair (such as a mutated one) starts without them

    @cached_property
    def beta_inv(self) -> TowerElement:
        return self.beta.inv()

    @cached_property
    def beta_values(self):
        """(phi1(beta), phi2(beta)) as exponent pairs."""
        return tuple(char_exponents((self.phi1, self.phi2), self.beta))

    def beta_in(self, K: TowerField, iE) -> TowerElement:
        """iota_E(beta) in the compositum K (iE: E -> K)."""
        if K not in self._beta_images:
            self._beta_images[K] = iE.apply(self.beta)
        return self._beta_images[K]


def build_twin_characters(cfg: TwinConfig) -> TwinPair:
    cfg.validate()
    E = field_E(cfg)
    N = cfg.N
    beta = E.monomial(1, 2 - 2 * N)
    tower = [1, N]
    if N % 2 == 1:
        base_gamma = beta
    else:
        e1sub = _subfield_handle(E, N // 2)
        E1 = e1sub.S
        phi_inner = MulChar(E1, None, 0, E1.uniformizer() ** (1 - N))
        infl = pullback(phi_inner, E, e1sub.emb)
        if infl.gamma is None or not (infl.gamma - beta).is_zero():
            raise InternalContradiction("inner pullback parameter mismatch")
        base_gamma = beta + E.uniformizer() ** (-cfg.ell)
        tower = [1, N // 2, N]
    phi1 = MulChar(E, None, 0, base_gamma)
    dsel = cfg.selector
    if dsel is None:
        for d in range(1, E.q):
            cand = MulChar(E, None, 0, base_gamma + E.monomial(d, -1))
            if not is_conjugate(phi1, cand):
                dsel = d
                break
        if dsel is None:
            raise InternalContradiction("no non-conjugate level-one twist found")
    phi2 = MulChar(E, None, 0, base_gamma + E.monomial(dsel, -1))
    return TwinPair(cfg, E, phi1, phi2, beta, dsel, tower)


def verify_twin_pair(pair: TwinPair) -> dict:
    """Mechanical checks of the construction postconditions."""
    E = pair.E
    phi1, phi2 = pair.phi1, pair.phi2
    out = {}
    out["conductor"] = phi1.conductor() == phi2.conductor() == 2 * pair.cfg.N - 1

    def agree(x):
        return same_root(*char_exponents((phi1, phi2), x))

    def layer_agrees(j):  # on 1 + tau(a) pi^j for a = 1..q-1
        return all(map(same_root, theta_row(phi1, j), theta_row(phi2, j)))

    out["uniformizer_value"] = agree(E.uniformizer())
    out["tame_part"] = all(agree(E.tau(n)) for n in range(E.q - 1))
    out["agree_on_level_two"] = all(map(layer_agrees, range(2, E.k)))
    out["differ_on_level_one"] = not layer_agrees(1)
    out["admissible"] = is_admissible(phi1) and is_admissible(phi2)
    out["non_conjugate"] = not is_conjugate(phi1, phi2)
    out["difference_conductor"] = pair.difference().conductor() == 2
    out["pass"] = all(bool(v) for v in out.values())
    return out


# ------------------------------------------------------------------ conjugacy


def transport_char(chi: MulChar, sigma, auts) -> MulChar:
    """chi o sigma for an automorphism sigma of chi's field."""
    E = chi.field
    pi = E.uniformizer()
    ident = identity_embedding(E)
    # sigma^-1: the a with a after sigma the identity
    inv = next((a for a in auts if sigma.compose(a).same_as(ident)), None)
    if inv is None:
        raise ConfigError("automorphism inverse not found")
    w_new = char_exponents((chi,), sigma.apply(pi))[0]
    t_new = tame_exponent(chi, sigma.apply(E.tau(1)), E.q - 1)
    g_new = None if chi.gamma is None else inv.apply(chi.gamma)
    return MulChar(E, w_new, t_new, g_new)


def is_conjugate(chi1: MulChar, chi2: MulChar) -> bool:
    """Conjugacy under the automorphisms of the common field over F."""
    if chi1.field is not chi2.field:
        return False
    auts = automorphisms(chi1.field)
    return any(transport_char(chi1, s, auts).equals(chi2) for s in auts)


# --------------------------------------------------------------- pair catalog


@dataclass
class TwistPair:
    L: TowerField
    lam: MulChar
    m: int
    alpha: TowerElement | None
    shape: str

    def label(self) -> str:
        return f"{self.shape}/m={self.m}/{_gamma_key(self.lam)}"


def _gamma_key(lam: MulChar):
    g = lam.gamma
    if g is None:
        return ("tame", lam.t)
    F = lam.field
    out = []
    core = g.core
    for i in range(F.e):  # the levels with g.v + i + lev e < 0
        for lev in range(min(F.a, -((g.v + i) // F.e))):
            w = tuple((c // F.p**lev) % F.p for c in core[i])
            if any(w):
                out.append((g.v + i + lev * F.e, w))
    return tuple(sorted(out))


def tame_extensions(p: int, r: int, k: int):
    """All tame degree-r extensions of the prime field up to isomorphism,
    as (field, shape label) pairs; mixed shapes are reported unsupported."""
    out = []
    for fp in range(1, r + 1):
        if r % fp:
            continue
        ep = r // fp
        if fp > 1 and ep > 1:
            out.append((None, f"mixed({fp},{ep})"))
            continue
        if ep == 1:
            steps = (Unramified(fp),) if fp > 1 else ()
            out.append((make_tower(p, steps, k), f"unram({fp})"))
            continue
        g = math.gcd(ep, p - 1)
        for j in range(g):
            u = pow(_prime_gen(p), j, p)
            out.append((make_tower(p, (TameRamified(ep, u),), k),
                        f"ram({ep},u=g^{j})"))
    return out


def _digit_tables(L: TowerField, sigmas, positions):
    """Per non-identity sigma, i -> the q-tuple of digits of sigma(tau(d) pi^i)
    = tau(phi(d) z^i) pi^i, with z = sigma(pi)/pi and phi(xi) = sigma(tau(xi))
    mod P, in dlog coordinates; both images must be exact Teichmuller lifts."""
    def dlog(x):
        w = x.core[0] if x.v == 0 and x.prec >= L.kint else None
        k = None if w is None or any(map(any, x.core[1:])) else L.dlog_res(w)
        if k is None or L.xi_pow(k) != w:
            raise InternalContradiction(
                "automorphism image is not an exact Teichmuller lift")
        return k
    n = L.q - 1
    logs = [L.dlog_res(d) for d in range(1, L.q)]
    digit = sorted(range(1, L.q), key=lambda d: logs[d - 1])
    acts = [(dlog(s.pi_img.shift(-1)), dlog(s.apply(L.tau(1)))) for s in sigmas]
    # (kz, kx) fixes sigma, and (0, 1) is the identity
    return [{i: (0,) + tuple(digit[(k * kx + i * kz) % n] for k in logs)
             for i in positions} for kz, kx in acts if (kz, kx) != (0, 1)]


def iter_twist_pairs(p: int, r: int, bound: int, k: int,
                     dedupe: bool = True, skipped=None):
    """Admissible pairs (L/F, lambda) of degree r with conductor <= bound,
    one per conjugacy class (which leaves every verification invariant),
    streamed by increasing conductor.  Classes are decided on digits, before
    any field arithmetic: a tame t is kept iff least in its Frobenius orbit
    {t p^b mod q-1}, a wild gamma = sum tau(d_j) pi^i_j iff its digit tuple
    is lexicographically <= each sigma-image, sigma in Aut(L/F), i.e. first
    of its orbit in product order.  Proof: sigma maps tau(a) pi^i to a
    monomial at i (_digit_tables), so a candidate to that of the image tuple;
    the negative-position digits fix gamma mod O_L, as _gamma_key does;
    lambda o sigma has parameter sigma^-1(gamma), and sigma -> sigma^-1
    permutes Aut(L/F); conductor and admissibility are sigma-invariant.
    Admissibility is read on the same digits (admissible_on_digits, residue
    code d as exponent logs[d]; a tame t has none).  combo[0] != 0 fixes
    v(gamma) = -m, so the conductor is m + 1.  Only kept pairs build gamma
    (in from_digits' order), lambda and alpha = c_rep = gamma truncated at
    positions.stop = 1 - (m + 2) // 2."""
    exts = []
    for L, shape in sorted(tame_extensions(p, r, k), key=lambda t: t[1]):
        if L is None:
            if skipped is not None:
                skipped.append(shape)
            continue
        exts.append((L, shape, (None, *map(L.dlog_res, range(1, L.q))),
                     _digit_tables(L, automorphisms(L), range(1 - bound, 0))
                     if dedupe else []))
    if bound >= 1:
        for L, shape, _logs, _tables in exts:
            n = L.q - 1
            for t in range(1, n):
                if (not dedupe or t == min(t * p**b % n for b in range(L.f))) \
                        and admissible_on_digits(L, t, ()):
                    yield TwistPair(L, MulChar(L, None, t, None), 0, None, shape)
    for m in range(1, bound):
        for L, shape, logs, tables in exts:
            positions = range(-m, 1 - (m + 2) // 2)
            rows = [[tab[i] for i in positions] for tab in tables]
            for combo in product(range(L.q), repeat=len(positions)):
                if not combo[0] or any(tuple(map(getitem, row, combo)) < combo
                                       for row in rows):
                    continue
                digits = [(i, logs[d]) for i, d in zip(positions, combo) if d]
                if admissible_on_digits(L, 0, digits):
                    lam = MulChar(L, None, 0, sum(
                        (L.tau(k).shift(i) for i, k in digits), L.zero()))
                    yield TwistPair(L, lam, m,
                                    truncate_to(lam.gamma, positions.stop), shape)


# ------------------------------------------------------------- case analysis


def classify_case(N: int, e_L: int, m: int, r: int | None = None):
    """Valuation comparison of beta and alpha in the compositum.

    Returns (label, val_beta, val_alpha) with label in {"beta", "alpha"}.
    The equal-valuation case would force N | 2 e_L; when r < (N-1)/2 that is
    impossible and hitting it raises InternalContradiction.  e_K =
    lcm(N, e_L) copies ambient.build_ambient's e_K, the definition, so that
    case_one_scan's abstract shapes need no field."""
    e_K = math.lcm(N, e_L)
    e = e_K // N
    Nprime = e_K // e_L
    val_beta = -e * (2 * N - 2)
    val_alpha = -m * Nprime if m >= 1 else None
    if val_alpha is None or val_beta < val_alpha:
        return "beta", val_beta, val_alpha
    if val_beta > val_alpha:
        return "alpha", val_beta, val_alpha
    if (2 * e_L) % N:
        raise InternalContradiction(
            "equal valuations reached although N does not divide 2 e_L")
    if r is not None and 2 * r < N - 1:
        raise InternalContradiction(
            "equal valuations with r < (N-1)/2: impossible case reached")
    return "equal", val_beta, val_alpha


def a_exponent(i: int, N: int, m: int, e1: int, e2p: int,
               r: int | None = None, mirror: bool = False) -> int:
    """Valuation exponent of the i-th symmetric term, with the congruence
    and lower-bound assertions."""
    if i < 1:
        raise RangeViolation("term index starts at 1")
    if r is not None:
        if i > r:
            raise RangeViolation("need 1 <= i <= r")
        if not (2 * r < N - 1):
            raise RangeViolation("need 2r < N - 1 for the bound chain")
    el = e1 * e2p
    # ceil(-im/el) = -floor(im/el)
    a = i * (2 * N - 2) + N * (-((i * m) // el))
    if not mirror:
        if a % N != (-2 * i) % N:
            raise InternalContradiction("congruence A = -2i mod N failed")
        if r is not None and a < 2:
            raise InternalContradiction("A >= 2 failed inside the valid range")
        return a
    a3 = -a
    if a3 % N != (2 * i) % N:
        raise InternalContradiction("mirror congruence A = 2i mod N failed")
    if r is not None and a3 < 2:
        raise InternalContradiction("mirror A >= 2 failed inside the valid range")
    return a3


def case_one_scan(Ns=(5, 6, 7)) -> dict:
    """Exhaustive impossibility scan: no equal valuations, N never divides
    2 e_L, and the exponent ledger holds, for all shapes with m <= 12."""
    checked = 0
    for N in Ns:
        rmax = (N - 2) // 2  # largest r with 2r < N - 1
        for r in range(1, rmax + 1):
            for fp in [d for d in range(1, r + 1) if r % d == 0]:
                ep = r // fp
                if (2 * ep) % N == 0:
                    raise InternalContradiction("N divides 2 e_L in range")
                for m in range(1, 13):
                    label, vb, va = classify_case(N, ep, m, r=r)
                    if label == "equal":
                        raise InternalContradiction("equal valuations in scan")
                    e2p = math.gcd(ep, N)
                    e1 = ep // e2p
                    for i in range(1, r + 1):
                        a_exponent(i, N, m, e1, e2p, r=r,
                                   mirror=(label == "alpha"))
                    checked += 1
    return {"instances": checked, "pass": True}


# ----------------------------------------------------------- the verification


@lru_cache(maxsize=None)
def _twist_context(E: TowerField, L: TowerField, kk: int, sw: int):
    K, iE, iL = compositum_abstract(E, L, kk, sw)
    handleF = _subfield_handle(L, 1)
    return {"K": K, "iE": iE, "iL": iL, "handleE": Subfield(E, K, iE),
            "handleF": handleF, "embF": find_embeddings(handleF.S, E)[0]}


def _twisted_conductor(N: int, tw: TwistPair) -> int:
    """1 - min(v_K(beta), v_K(alpha)), from classify_case's valuations: the
    conductor of the twins' pullbacks to K = E L twisted by lambda."""
    _label, vb, va = classify_case(N, tw.L.e, tw.m)
    return 1 - (vb if va is None else min(vb, va))


def _context_for(pair_E: TowerField, N: int, tw: TwistPair):
    e_K = build_ambient(pair_E, tw.L)[0]
    fmax = _twisted_conductor(N, tw)
    # headroom: norms of elements down to valuation -(fmax-1) plus the
    # p-divisions the scaling burns, on top of the evaluation window
    kk = 4 * fmax + 2 * e_K
    return _twist_context(pair_E, tw.L, kk, fmax + 6)


@dataclass
class VerificationReport:
    config: dict
    pair_id: str
    case: str
    coset_values: list
    route_a: dict
    route_b: dict
    verdict: bool
    timing: float

    def serialize(self):
        return {
            "config": self.config, "pair": self.pair_id, "case": self.case,
            "coset_values": self.coset_values, "route_a": self.route_a,
            "route_b": self.route_b,
            "verdict": "pass" if self.verdict else "fail",
            "timing": self.timing,
        }


def verify_coset_products(pair: TwinPair, tw: TwistPair) -> VerificationReport:
    """The coset-product equality for one twisting pair, both routes.

    Route A is a determinant over E, N_{K/E}(beta + alpha).  When alpha
    dominates, M_{beta+alpha} = beta I + M_alpha (beta lies in E), so one
    matrix gives it as (-1)^d chi(-beta) and the dominant N_{K/E}(alpha) as
    (-1)^d chi(0).  When beta dominates, chi(-beta) would certify more digits
    than the determinant (prec 75, not 47, on ram(2,u=g^0), m = 1) and change
    norm_image, so the matrix norm of beta + alpha stays.  Route B stays
    independent: it reads e_i(alpha), e_i(alpha^-1) and N_{L/F}(alpha) from
    one charpoly of alpha over F, and checks N_{L/F}(alpha) against chi(0).
    norm_image is serialized with its stored digits above the certified
    window, so route A's order of operations is part of the report bytes."""
    t0 = time.time()
    E = pair.E
    N = pair.cfg.N
    ctx = _context_for(E, N, tw)
    K = ctx["K"]
    phi1, phi2 = pair.phi1, pair.phi2
    label, vb, va = classify_case(N, tw.L.e, tw.m)

    # Route A: the norm of the full representative
    yE, nrm_alpha = _route_a_norms(pair, tw, ctx, label)
    a1, a2 = char_exponents((phi1, phi2), yE)
    route_a = {"equal": same_root(a1, a2),
               "value_1": _cyc(a1), "value_2": _cyc(a2)}

    # Route B: dominant term times the symmetric-function argument
    degKE = K.degree // E.degree
    norm_match = True
    # e_0, ..., e_r of alpha's conjugates over F, from one charpoly
    es = [] if tw.alpha is None else [
        c if i % 2 == 0 else -c
        for i, c in enumerate(ctx["handleF"].charpoly(tw.alpha))]
    if nrm_alpha is None:
        dom1, dom2 = ((z * degKE, m) for z, m in pair.beta_values)
        arg = _symmetric_argument(E, ctx, es, pair.beta_inv)
    else:
        dom1, dom2 = char_exponents((phi1, phi2), nrm_alpha)
        arg = _symmetric_argument(E, ctx, _inverse_symmetric(es), pair.beta)
        # the coset product of the dominant part must be N_{L/F}(alpha)
        norm_match = (nrm_alpha - ctx["embF"].apply(es[-1])).is_zero()
    member = arg.eq_mod(E.one(), 2) if not (arg - E.one()).is_zero() else True
    v1, v2 = char_exponents((phi1, phi2), arg)
    b1 = _add_exponents(*dom1, *v1)
    b2 = _add_exponents(*dom2, *v2)
    route_b = {
        "dominant_equal": same_root(dom1, dom2),
        "dominant_norm_match": bool(norm_match),
        "membership_level_two": bool(member),
        "equal": same_root(b1, b2),
        "agrees_with_route_a": same_root(b1, a1) and same_root(b2, a2),
    }
    verdict = (route_a["equal"] and route_b["membership_level_two"]
               and route_b["dominant_equal"] and route_b["dominant_norm_match"]
               and route_b["agrees_with_route_a"])
    return VerificationReport(
        config=pair.cfg.echo(), pair_id=tw.label(), case=label,
        coset_values=[{"norm_image": yE.serialize(),
                       "value_1": _cyc(a1), "value_2": _cyc(a2)}],
        route_a=route_a, route_b=route_b, verdict=bool(verdict),
        timing=time.time() - t0)


def _route_a_norms(pair: TwinPair, tw: TwistPair, ctx, label):
    """(N_{K/E}(beta + alpha), N_{K/E}(alpha) or None when beta dominates)."""
    handleE = ctx["handleE"]
    beta_K = pair.beta_in(ctx["K"], ctx["iE"])
    if tw.alpha is None:
        return handleE.norm(beta_K), None
    alpha_K = ctx["iL"].apply(tw.alpha)
    if label == "alpha":
        return handleE.norms_of_shift(alpha_K, pair.beta)
    y = handleE.norm(beta_K + alpha_K)
    return y, (None if label == "beta" else handleE.norm(alpha_K))


def _cyc(zm):
    """zeta_m^z for zm = (z, m), rendered as its CycNumber."""
    z, m = zm
    return {"modulus": m,
            "coeffs": [[k, c] for k, c in CycNumber.root(m, z).to_pairs()]}


def _inverse_symmetric(es):
    """e_i(alpha^-1) = e_{d-i}(alpha) / e_d(alpha): the reversed list over
    one division in F."""
    dinv = es[-1].inv()
    return [c * dinv for c in reversed(es)]


def _symmetric_argument(E: TowerField, ctx, es, b):
    """1 + sum_i b^i e_i embedded in E: b = beta^-1 with e_i(alpha), or
    b = beta with e_i(alpha^-1) in the mirrored case."""
    embF = ctx["embF"]
    acc = power = E.one()
    for i, ei in enumerate(es[1:]):
        power = power * b if i else b
        if ei.is_zero():
            continue
        acc = acc + power * embF.apply(ei)
    return acc


# ------------------------------------------------------------- rank-1 twists


def base_characters(F: TowerField, bound: int):
    """Every character of F^x with conductor <= bound, uniformizer values
    capped at the mu_{p-1} subgroup of the value ring."""
    p = F.p
    out = []
    for wexp in range(p - 1):
        w = (wexp, p - 1)
        for t in range(p - 1):
            for combo in product(range(p), repeat=max(bound - 1, 0)):
                digits = [(-(i + 1), d) for i, d in enumerate(combo)]
                gamma = F.from_digits(digits) if any(combo) else None
                out.append(MulChar(F, w, t, gamma))
    return out


def verify_rank_one_twists(pair: TwinPair, bound: int,
                           progress=None) -> dict:
    """Exhaustive epsilon equality over all twists by characters of F^x of
    conductor <= bound, each checked by the closed form and by the
    character-quotient route.

    Twists whose twins share the conductor and th1's c-representative are
    evaluated together: one epsilon_factors call on all their twins (which
    checks every twin's conductor and representative against the first).
    Every quotient th1/th2 is phi1/phi2, so the quotient route is one value
    per group: pair.difference() at the shared representative.  Verdicts and
    progress lines keep base_characters order."""
    E = pair.E
    psiE = make_psi(E)
    primeE = _subfield_handle(E, 1)
    chars = base_characters(primeE.S, bound)
    eta = pair.difference()
    all_ramified = True
    t0 = time.time()
    groups: dict = {}
    for i, chiE in enumerate(pullbacks(chars, E, primeE.emb)):
        th1 = pair.phi1.mul(chiE)
        th2 = pair.phi2.mul(chiE)
        f = th1.conductor()
        if f < 1:
            all_ramified = False
        key = (f, i)  # no c-rep below conductor 2: epsilon_factors raises
        if f >= 2:
            c = th1.c_rep()
            key = (f, c.v, c.core)
        groups.setdefault(key, []).append((i, th1, th2))
    bad = {}
    checked = 0
    for (f, *_), members in groups.items():
        twins = [th for _, th1, th2 in members for th in (th1, th2)]
        eps = epsilon_factors(twins, psiE)
        # independent route: the quotient character at the shared c-rep
        z, m = char_exponents((eta,), twins[0].c_rep())[0]
        for (i, _, _), e1, e2 in zip(members, eps[::2], eps[1::2]):
            ok = (e1.value == e2.value)
            g_eq = f % 2 == 0 or e1.gauss_part.num == e2.gauss_part.num
            ok_ratio = z % m == 0 and g_eq
            if not (ok and ok_ratio):
                bad[i] = (ok, ok_ratio)
            checked += 1
            if progress and checked % progress == 0:
                print(f"  rank-1 twists: {checked}/{len(chars)}")
    failures = [{"w": _cyc(chars[i].w)["coeffs"], "t": chars[i].t,
                 "conductor_twist": chars[i].conductor(),
                 "eps_equal": bool(ok), "quotient_route": bool(ok_ratio)}
                for i, (ok, ok_ratio) in sorted(bad.items())]
    return {"twists": checked, "failures": failures,
            "all_twisted_ramified": all_ramified,
            "pass": not failures and all_ramified,
            "timing": time.time() - t0}


# ------------------------------------------------------------------- search


def search_distinguisher(pair: TwinPair, r: int, bound: int) -> dict:
    """Scan the twisting pairs of degree r for one that separates the twins;
    verify_coset_products verifies a found one once, with no further check.

    Every pair is certified.  Let f = 1 - min(v_K(beta), v_K(alpha)) be
    _twisted_conductor, n = (f - 1) // 2 and e = e_K/N: the middle layer
    1 + P_K^n has norms in 1 + P_E^ceil(n/e), where the twins agree once
    ceil(n/e) >= 2.  K.e = lcm(N, e_L), as field_E makes e_E = N and
    build_ambient takes e_K = lcm(e_E, e_L).  classify_case's v_K(beta) =
    -e(2N - 2) gives n >= e(N - 1), so ceil(n/e) >= N - 1 >= 4 (N >= 5)."""
    E = pair.E
    cfg = pair.cfg
    eta = pair.difference()
    t0 = time.time()
    skipped: list = []
    scanned = 0
    found = None
    for tw in iter_twist_pairs(cfg.p, r, bound, cfg.k, skipped=skipped):
        ctx = _context_for(E, cfg.N, tw)
        label, vb, va = classify_case(cfg.N, tw.L.e, tw.m)
        yE = _route_a_norms(pair, tw, ctx, label)[0]
        ratio = char_exponents((eta,), yE)[0]
        scanned += 1
        if ratio[0] % ratio[1]:
            rep = verify_coset_products(pair, tw)
            found = {"pair": tw.label(), "shape": tw.shape, "m": tw.m,
                     "case": label,
                     "ratio": _cyc(ratio),
                     "reverified": bool(not rep.route_a["equal"])}
            break
    return {"searched": scanned, "skipped_shapes": skipped,
            "found": found, "timing": time.time() - t0}


# ------------------------------------------------------------------ mutation


def mutate_on_level_two(chi: MulChar) -> MulChar:
    """Perturb a twin on 1 + P^2 by adding pi^-2 to its gamma (destroys the
    theorem's hypotheses)."""
    E = chi.field
    return MulChar(E, chi.w, chi.t, chi.gamma + E.monomial(1, -2))
