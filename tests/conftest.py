import pytest

from lcmlab import build_ledger, gfpoly, parse_poly

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

    def spy(a, e, gs, ps):
        calls.append(({len(g) - 1 for g in gs}, max(e, default=0)))
        return powers(a, e, gs, ps)

    monkeypatch.setattr(gfpoly, "_powers", spy)
    return calls
