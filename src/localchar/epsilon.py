"""Closed-form epsilon factors, Gauss sums, ratios, and consistency scans.

The closed form for a ramified character theta with canonical c-representative
c is theta^{-1}(c) psi(c) q^{(f-1)/2}, times the Gauss sum
q^{-1/2} sum_{x in U^n/U^{n+1}} theta^{-1}(x) psi(c (x - 1)) when the
conductor f = 2n + 1 is odd.  The value theta^{-1}(c) psi(c) depends on the
choice of representative modulo P^{1-r} when f is odd, but the assembled
product does not; epsilon_factor recomputes with a perturbed representative
and refuses to return a representative-dependent value.

The Gauss sum is exact integer work up to one cyclotomic sum.  Its theta
row, the exponents of theta(1 + tau(a) pi^n), comes from the field's
memoized table of log(1 + tau(a) pi^n) and does not depend on c, so
epsilon_factor computes it once per character and both representatives
reuse it.  The q terms then land in one histogram of root exponents at the
lcm of their moduli, summed by a single CycNumber.from_root_sum.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .cyclotomic import CycNumber, ScaledCyc
from .errors import (
    ConductorMismatch,
    ConductorTooSmall,
    EvenConductor,
    InternalContradiction,
)
from .characters import AddChar, MulChar, unit_exponents


@dataclass
class EpsilonValue:
    value: ScaledCyc
    conductor: int
    parity: str
    provenance: str
    root_part: ScaledCyc = None
    gauss_part: ScaledCyc = None

    def serialize(self):
        return {
            "value": self.value.serialize(),
            "conductor": self.conductor,
            "parity": self.parity,
            "provenance": self.provenance,
        }


def theta_row(chi: MulChar, n: int):
    """theta(1 + tau(a) pi^n) for a = 1..q-1, as (z, m) exponent pairs.

    A parametric character reads the logs from the field's table; a factored
    one takes its unit exponents, which evaluate its parts at the norms."""
    F = chi.field
    if chi.is_factored():
        one = F.one()
        return [unit_exponents((chi,), one + F.monomial(a, n))[0]
                for a in range(1, F.q)]
    logs = F.principal_logs(n, max(chi.conductor(), 1))
    return [chi.principal_exponent(lg) for lg in logs]


def gauss_sum(chi: MulChar, psi: AddChar, c_rep=None, theta=None) -> ScaledCyc:
    """q^{-1/2} sum over U^n/U^{n+1} of theta^{-1}(x) psi(c (x-1)).

    The coset representatives are 1 + tau(a) pi^n over the q residues a
    (a = 0 giving x = 1), so the sum has exactly q terms.  theta is
    theta_row(chi, n) when the caller already has it.  Each term is the root
    of unity zeta_M^k, M the lcm of all term moduli, which is the modulus the
    sum of the terms as CycNumbers carries; the terms are counted per k and
    summed once."""
    F = chi.field
    f = chi.conductor()
    if f < 3 or f % 2 == 0:
        raise EvenConductor(f"Gauss sum needs odd conductor >= 3, got {f}")
    n = (f - 1) // 2
    c = c_rep if c_rep is not None else chi.c_rep()
    if theta is None:
        theta = theta_row(chi, n)
    psi_row = [psi.exponent(c * F.monomial(a, n)) for a in range(1, F.q)]
    mod = math.lcm(1, *(m for _, m in theta), *(m for _, m in psi_row))
    hist = Counter({0: 1})  # the a = 0 term
    for (zt, mt), (zp, mp) in zip(theta, psi_row):
        hist[(zp * (mod // mp) - zt * (mod // mt)) % mod] += 1
    return ScaledCyc(CycNumber.from_root_sum(mod, hist.items()), -1, F.q)


def epsilon_factor(chi: MulChar, psi: AddChar, check_rep: bool = True) -> EpsilonValue:
    """Closed-form epsilon at s = 0 for a character of conductor >= 2."""
    f = chi.conductor()
    if f < 2:
        raise ConductorTooSmall(
            "closed form needs conductor >= 2; use the oracle for f <= 1")
    F = chi.field
    c = chi.c_rep()
    theta = theta_row(chi, (f - 1) // 2) if f % 2 else None
    val, root, gpart = _assemble(chi, psi, c, f, theta)
    if check_rep:
        r = (f + 1) // 2
        c2 = c + F.monomial(1, 1 - r)
        val2, _, _ = _assemble(chi, psi, c2, f, theta)
        if not (val == val2):
            raise InternalContradiction(
                f"epsilon depends on the c-representative at conductor {f}")
    return EpsilonValue(val, f, "odd" if f % 2 else "even", "closed_form",
                        root_part=root, gauss_part=gpart)


def _assemble(chi, psi, c, f, theta):
    F = chi.field
    root = ScaledCyc(chi.eval(c).conj() * psi.eval(c), f - 1, F.q)
    if f % 2 == 0:
        return root, root, None
    g = gauss_sum(chi, psi, c_rep=c, theta=theta)
    return root * g, root, g


def epsilon_ratio(chi1: MulChar, chi2: MulChar, psi: AddChar) -> ScaledCyc:
    """epsilon(chi1)/epsilon(chi2) for characters sharing conductor and
    c-representative data.

    When the Gauss sums agree exactly (automatic whenever the two characters
    agree on the middle layer) the ratio reduces to the character quotient
    (chi2 chi1^{-1}) at the shared representative; both computations are
    performed and must coincide."""
    f1, f2 = chi1.conductor(), chi2.conductor()
    if f1 != f2:
        raise ConductorMismatch(f"conductors {f1} != {f2}")
    F = chi1.field
    c1, c2 = chi1.c_rep(), chi2.c_rep()
    if not (c1 - c2).is_zero():
        raise ConductorMismatch("c-representatives differ at the shared truncation")
    e1 = epsilon_factor(chi1, psi)
    e2 = epsilon_factor(chi2, psi)
    ratio = e1.value / e2.value
    if f1 % 2 == 1 and e1.gauss_part.num == e2.gauss_part.num:
        quotient = chi2.eval(c1) * chi1.eval(c1).conj()
        if not (ratio == ScaledCyc(quotient, 0, F.q)):
            raise InternalContradiction(
                "epsilon ratio disagrees with the character quotient")
    return ratio


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
            except Exception:
                ratio_c = None
        report["classes"].append({
            "q": key[0], "e": key[1], "conductor": key[2], "parity": key[3],
            "samples": len(pairs),
            "reference": {"closed_form": m0.serialize(), "oracle": o0.serialize()},
            "ratio": ratio_c,
        })
    keys = sorted(classes)
    for key in keys:
        key2 = (key[0], key[1], key[2] + 2, key[3])
        if key2 in classes:
            m1, o1 = classes[key][0]
            m2, o2 = classes[key2][0]
            # ratio_{c+2} = ratio_c * q^{shift/2} for some even shift
            shift = None
            for cand in (2, 0, -2, 4, -4):
                lhs = m1 * o2 * ScaledCyc(CycNumber.one(), cand, m1.q)
                if lhs == m2 * o1:
                    shift = cand
                    break
            if shift is None:
                raise InternalContradiction(
                    f"no q-power relates classes {key} and {key2}")
            report["shift_relations"].append(
                {"from_conductor": key[2], "to_conductor": key[2] + 2,
                 "parity": key[3], "qhalf_shift": shift})
    return report
