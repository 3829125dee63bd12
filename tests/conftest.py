import pytest

from localchar.characters import _add_exponents, char_exponents
from localchar.cyclotomic import CycNumber, ScaledCyc
from localchar.embeddings import Subfield, find_embeddings
from localchar.epsilon import epsilon_factors
from localchar.errors import InternalContradiction
from localchar.localfield import make_tower


def _prime_subfield(T, k_sub=None):
    """The prime field, at precision k_sub (default max(T.a, 2)), inside T
    through its first embedding."""
    F = make_tower(T.p, (), k_sub if k_sub is not None else max(T.a, 2))
    return Subfield(F, T, find_embeddings(F, T)[0])


@pytest.fixture(scope="session")
def prime_subfield():
    return _prime_subfield


def _epsilon_ratio(chi1, chi2, psi):
    """epsilon(chi1)/epsilon(chi2) for characters sharing conductor and
    c-representative data.

    When the Gauss sums agree exactly (automatic whenever the two characters
    agree on the middle layer) the ratio reduces to the character quotient
    (chi2 chi1^{-1}) at the shared representative; both computations are
    performed and must coincide."""
    e1, e2 = epsilon_factors((chi1, chi2), psi)
    ratio = e1.value / e2.value
    if e1.conductor % 2 == 1 and e1.gauss_part.num == e2.gauss_part.num:
        (z1, m1), (z2, m2) = char_exponents((chi1, chi2), chi1.c_rep())
        z, m = _add_exponents(z2, m2, -z1, m1)
        if not (ratio == ScaledCyc(CycNumber.root(m, z), 0, psi.field.q)):
            raise InternalContradiction(
                "epsilon ratio disagrees with the character quotient")
    return ratio


@pytest.fixture(scope="session")
def epsilon_ratio():
    return _epsilon_ratio


def _random_element(F, rng, vmin, vmax):
    """A random unit of F times pi^v, v uniform in [vmin, vmax]."""
    v = rng.randrange(vmin, vmax + 1)
    return F.random_unit(rng).shift(v)


@pytest.fixture(scope="session")
def random_element():
    return _random_element


def _clear_oracle_cache(F):
    """Drop the oracle grids cached on the field F."""
    F._caches.pop("oracle_grids", None)


@pytest.fixture(scope="session")
def clear_oracle_cache():
    return _clear_oracle_cache
