import pytest

from localchar.embeddings import Subfield, find_embeddings
from localchar.localfield import make_tower


def _prime_subfield(T, k_sub=None):
    """The prime field, at precision k_sub (default max(T.a, 2)), inside T
    through its first embedding."""
    F = make_tower(T.p, (), k_sub if k_sub is not None else max(T.a, 2))
    return Subfield(F, T, find_embeddings(F, T)[0])


@pytest.fixture(scope="session")
def prime_subfield():
    return _prime_subfield
