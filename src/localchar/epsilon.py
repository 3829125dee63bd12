"""Closed-form epsilon factors, Gauss sums, and oracle consistency scans.

The closed form for a ramified character theta with canonical c-representative
c is theta^{-1}(c) psi(c) q^{(f-1)/2}, times the Gauss sum
q^{-1/2} sum_{x in U^n/U^{n+1}} theta^{-1}(x) psi(c (x - 1)) when the
conductor f = 2n + 1 is odd.  The value theta^{-1}(c) psi(c) depends on the
choice of representative modulo P^{1-r} when f is odd, but the assembled
product does not; epsilon_factors recomputes with a perturbed representative
and refuses to return a representative-dependent value.

All of it is integer work on exponents of roots of unity up to one
cyclotomic sum.  psi = psi_F o tr is Z_p-linear, so with one factor fixed
the digit psi reads of a product is an integer form in the other's core
(AddChar.trace_form).  The theta row theta(1 + tau(a) pi^n) dots gamma with
the memoized forms of the field's logs and does not depend on c, so both
representatives reuse it; the psi row psi(c tau(a) pi^n) dots one form of
c with tau(a), and characters sharing c share it and one char_exponents
call for their root parts theta^{-1}(c) psi(c).  The q Gauss-sum terms land
in one histogram of root exponents at the lcm M of their moduli: the
epsilon value is it shifted by the root exponent at lcm(m_root, M), the
Gauss sum its CycNumber.from_root_sum, taken when gauss_part is first read.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import CycNumber, ScaledCyc
from .errors import (
    ConductorMismatch,
    ConductorTooSmall,
    EvenConductor,
    InternalContradiction,
    NotInvertible,
)
from .characters import (AddChar, MulChar, _add_exponents, char_exponents,
                         make_psi)


@dataclass
class EpsilonValue:
    value: ScaledCyc
    conductor: int
    parity: str
    provenance: str
    gauss_hist: tuple = None  # (M, histogram, q) of the Gauss sum, odd f

    @cached_property
    def gauss_part(self):  # summed when first read; None for even f
        return None if self.gauss_hist is None else _gauss_value(*self.gauss_hist)

    def serialize(self):
        return {
            "value": self.value.serialize(),
            "conductor": self.conductor,
            "parity": self.parity,
            "provenance": self.provenance,
        }


def theta_row(chi: MulChar, n: int):
    """theta(1 + tau(a) pi^n) for a = 1..q-1, as (z, m) exponent pairs.

    A parametric character dots gamma with its field's log forms (log_row;
    m takes q - 1 when t != 0, for zeta_{q-1}^0); a factored one takes its
    exponents at the units, which evaluate its parts at the norms."""
    F = chi.field
    if chi.is_factored():
        one = F.one()
        return [char_exponents((chi,), one + F.monomial(a, n))[0]
                for a in range(1, F.q)]
    m = F.q - 1 if chi.t else 1
    row = make_psi(F).log_row(chi.gamma, n, max(chi.conductor(), 1))
    return [_add_exponents(0, m, z, mz) for z, mz in row]


def _psi_row(psi: AddChar, c, n: int):
    """psi(c tau(a) pi^n) for a = 1..q-1, as (z, m) exponent pairs: tau(a)
    is the one nonzero slot of the core, so the form needs only that slot."""
    F = psi.field
    mform = psi.trace_form(c, n, slots=1)
    return [psi._form_exponent(c, mform, n, n + F.kint, F.xi_pow(F.dlog_res(a)))
            for a in range(1, F.q)]


def _gauss_histogram(theta, psi_row):
    """(M, histogram) of the q Gauss-sum terms theta^{-1}(x) psi(c (x - 1))
    as root exponents k of zeta_M, M the lcm of all term moduli (the modulus
    the sum of the terms as CycNumbers carries); a = 0 is the term 1."""
    mod = math.lcm(1, *(m for _, m in theta), *(m for _, m in psi_row))
    hist = Counter({0: 1})
    for (zt, mt), (zp, mp) in zip(theta, psi_row):
        hist[(zp * (mod // mp) - zt * (mod // mt)) % mod] += 1
    return mod, hist


def gauss_sum(chi: MulChar, psi: AddChar, c_rep=None) -> ScaledCyc:
    """q^{-1/2} sum over U^n/U^{n+1} of theta^{-1}(x) psi(c (x-1)).

    The coset representatives are 1 + tau(a) pi^n over the q residues a
    (a = 0 giving x = 1), so the sum has exactly q terms, counted per root
    exponent and summed once."""
    f = chi.conductor()
    if f < 3 or f % 2 == 0:
        raise EvenConductor(f"Gauss sum needs odd conductor >= 3, got {f}")
    n = (f - 1) // 2
    c = c_rep if c_rep is not None else chi.c_rep()
    hist = _gauss_histogram(theta_row(chi, n), _psi_row(psi, c, n))
    return _gauss_value(*hist, chi.field.q)


def epsilon_factor(chi: MulChar, psi: AddChar) -> EpsilonValue:
    """Closed-form epsilon at s = 0 for a character of conductor >= 2."""
    return epsilon_factors((chi,), psi)[0]


def epsilon_factors(chars, psi: AddChar) -> list:
    """epsilon_factor of each character, for characters of one field that
    share the conductor f >= 2 and the c-representative: a twin pair, or
    all twins of the rank-1 twists that share one (verify_rank_one_twists).

    Per representative the characters are evaluated together: one
    char_exponents call, one psi(c) and one psi row.  The perturbed
    representative c2 gets its own evaluation; theta(c2) is never derived
    from theta(c).  ConductorMismatch, naming the first conductor that
    differs from the first character's, when the conductors or the
    c-representatives differ."""
    fs = [chi.conductor() for chi in chars]
    f = fs[0]
    g = next((g for g in fs if g != f), f)
    if g != f:
        raise ConductorMismatch(f"conductors {f} != {g}")
    if f < 2:
        raise ConductorTooSmall(
            "closed form needs conductor >= 2; use the oracle for f <= 1")
    F = chars[0].field
    c = chars[0].c_rep()
    if any((x.v, x.core) != (c.v, c.core) and not (x - c).is_zero()
           for x in (chi.c_rep() for chi in chars[1:])):
        raise ConductorMismatch("c-representatives differ at the shared truncation")
    thetas = [theta_row(chi, (f - 1) // 2) if f % 2 else None for chi in chars]
    vals, hists = _assemble(chars, psi, c, f, thetas)
    c2 = c + F.monomial(1, 1 - (f + 1) // 2)
    vals2, _ = _assemble(chars, psi, c2, f, thetas)
    if not all(v == v2 for v, v2 in zip(vals, vals2)):
        raise InternalContradiction(
            f"epsilon depends on the c-representative at conductor {f}")
    parity = "odd" if f % 2 else "even"
    return [EpsilonValue(v, f, parity, "closed_form",
                         None if h is None else (*h, F.q))
            for v, h in zip(vals, hists)]


def _gauss_value(mod: int, hist, q: int) -> ScaledCyc:
    return ScaledCyc(CycNumber.from_root_sum(mod, hist.items()), -1, q)


def _assemble(chars, psi, c, f, thetas):
    """Epsilon values of chars at the representative c, with their Gauss-sum
    histograms (None for even f).  The root part theta^{-1}(c) psi(c) is an
    exponent (z, m); for odd f the value is the histogram shifted by it."""
    q = psi.field.q
    zp, mp = psi.exponent(c)
    psi_row = _psi_row(psi, c, (f - 1) // 2) if f % 2 else None
    vals, hists = [], []
    for (zc, mc), theta in zip(char_exponents(chars, c), thetas):
        zr, mr = _add_exponents(zp, mp, -zc, mc)
        if psi_row is None:
            vals.append(ScaledCyc(CycNumber.root(mr, zr), f - 1, q))
            hists.append(None)
            continue
        mod, hist = _gauss_histogram(theta, psi_row)
        big = math.lcm(mr, mod)
        shift = zr * (big // mr)
        vals.append(ScaledCyc(CycNumber.from_root_sum(
            big, ((k * (big // mod) + shift, n) for k, n in hist.items())),
            f - 2, q))
        hists.append((mod, hist))
    return vals, hists


def epsilon_oracle_consistency(chars, psi: AddChar, oracle_fn):
    """Ratio protocol between the closed form and the brute-force oracle.

    For every character, computes the closed form and the oracle sum at the
    canonical monomial of valuation 1 - f, groups by (field invariants,
    conductor, parity), and asserts by exact cross-multiplication that the
    ratio is constant within each class.  Returns the per-class reference
    pairs and a relation table between classes of equal parity.
    """
    classes: dict = {}
    F = psi.field
    for chi in chars:
        f = chi.conductor()
        delta = F.uniformizer() ** (1 - f)
        eps = epsilon_factor(chi, psi)
        orc = oracle_fn(chi, psi, delta)
        key = (F.q, F.e, f, "odd" if f % 2 else "even")
        classes.setdefault(key, []).append((eps.value, orc))
    report = {"classes": [], "shift_relations": []}
    for key in sorted(classes):
        pairs = classes[key]
        m0, o0 = pairs[0]
        for m, o in pairs[1:]:
            if not (m0 * o == m * o0):
                raise InternalContradiction(
                    f"oracle/closed-form ratio not constant in class {key}")
        ratio_c = None
        if not o0.is_zero():
            try:
                ratio_c = (m0 / o0).serialize()
            except NotInvertible:
                ratio_c = None
        report["classes"].append({
            "q": key[0], "e": key[1], "conductor": key[2], "parity": key[3],
            "samples": len(pairs),
            "reference": {"closed_form": m0.serialize(), "oracle": o0.serialize()},
            "ratio": ratio_c,
        })
    for key in sorted(classes):
        key2 = (key[0], key[1], key[2] + 2, key[3])
        if key2 in classes:
            m1, o1 = classes[key][0]
            m2, o2 = classes[key2][0]
            # ratio_{c+2} = ratio_c * q^{shift/2} for some even shift
            shift = next((s for s in (2, 0, -2, 4, -4)
                          if m1 * o2 * ScaledCyc(CycNumber.one(), s, m1.q)
                          == m2 * o1), None)
            if shift is None:
                raise InternalContradiction(
                    f"no q-power relates classes {key} and {key2}")
            report["shift_relations"].append(
                {"from_conductor": key[2], "to_conductor": key[2] + 2,
                 "parity": key[3], "qhalf_shift": shift})
    return report
