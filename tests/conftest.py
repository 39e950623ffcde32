import numpy as np
import pytest
from hypothesis import settings

from lcmlab import build_ledger, gfpoly, parse_poly

import gf_reference

# CI runs with --hypothesis-profile=ci: the same examples on every run, and
# no deadline per example, a timing assertion that a loaded runner can
# fail. Local runs keep the default profile.
settings.register_profile("ci", derandomize=True, deadline=None)

# The fixed polynomial set used throughout: two quadratics, two cubics,
# all irreducible with distinct leading coefficients and discriminants.
TEST_POLYS = {
    "x^2+1": parse_poly("x^2+1"),
    "x^2+x+1": parse_poly("x^2+x+1"),
    "x^3+2": parse_poly("x^3+2"),
    "2x^3-x+7": parse_poly("2*x^3-x+7"),
}

_ledger_cache = {}


@pytest.fixture(scope="session")
def ledger_factory():
    """Memoized build_ledger so expensive ledgers are shared across tests."""

    def build(f, N, **kwargs):
        key = (f.coeffs, N, tuple(sorted(kwargs.items())))
        if key not in _ledger_cache:
            _ledger_cache[key] = build_ledger(f, N, **kwargs)
        return _ledger_cache[key]

    return build


@pytest.fixture(params=sorted(TEST_POLYS))
def test_poly(request):
    return TEST_POLYS[request.param]


@pytest.fixture
def power_calls(monkeypatch):
    """Each call of gfpoly's kernel grouping, as (degrees of the moduli,
    largest exponent), recorded while the test runs."""
    calls = []
    powers = gfpoly._powers

    def spy(A, E, G, P):
        calls.append((set(gfpoly.degrees(G).tolist()), max(E.tolist(), default=0)))
        return powers(A, E, G, P)

    monkeypatch.setattr(gfpoly, "_powers", spy)
    return calls


@pytest.fixture
def unsplit_blocks(monkeypatch):
    """gfpoly.roots_of_split fails on any call for more than one prime, as
    a Leg 1 block makes; the profile's calls, one prime each, still run."""
    split = gfpoly.roots_of_split

    def unsplit(H, P, seed):
        if len(P) == 1:
            return split(H, P, seed)
        raise ValueError(f"roots_of_split: p={P[0]} did not split")

    monkeypatch.setattr(gfpoly, "roots_of_split", unsplit)


def poly_matrix(hs, ps):
    """The list polynomials hs over GF(p) for p in ps as gfpoly's
    coefficient matrix, one column each, and the modulus column."""
    P = gfpoly.modulus_column(ps)
    height = max(1, *map(len, hs))
    C = np.zeros((height, len(hs)), dtype=P.dtype)
    for i, h in enumerate(hs):
        C[: len(h), i] = h
    return C % P, P


def matrix_polys(C):
    """The columns of a coefficient matrix as trimmed lists."""
    return [gf_reference.trim(c) for c in C.T.tolist()]
