import math
import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlab import gfpoly
from lcmlab.polynomial import (
    IntPoly,
    ZeroDiscriminant,
    discriminant,
    parse_poly,
    profile,
    rational_roots,
    value_bound,
)

from conftest import TEST_POLYS

X = sympy.symbols("x")


def _sympy_poly(f):
    return sum(c * X**i for i, c in enumerate(f.coeffs))


coeff = st.integers(min_value=-50, max_value=50)
polys = st.lists(coeff, min_size=2, max_size=7).filter(lambda c: c[-1] != 0)


def _divisors(n):
    """Positive divisors of n != 0, by trial division to sqrt|n|."""
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def divisor_roots(f):
    """Rational roots of f by the rational root test: every +-a/b with
    a | f_0 and b | f_d, once the factors x are taken out."""
    coeffs = list(f.coeffs)
    roots = set()
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    for b in _divisors(coeffs[-1]) if len(coeffs) > 1 else ():
        for a in _divisors(coeffs[0]):
            for z in (Fraction(a, b), Fraction(-a, b)):
                if sum(c * z**i for i, c in enumerate(coeffs)) == 0:
                    roots.add(z)
    return tuple(sorted(roots))


@st.composite
def split_polys(draw):
    """Products of one to four linear factors a*x - b and a cofactor of
    degree 0 to 2."""
    coeffs = draw(st.lists(coeff, max_size=2)) + [draw(coeff.filter(bool))]
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(1, 12))
        b = draw(st.integers(-30, 30))
        coeffs = [a * hi - b * lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    return IntPoly(tuple(coeffs))


class TestEval:
    def test_examples(self):
        assert IntPoly((1, 0, 1)).eval(3) == 10
        assert IntPoly((1, 0, 1)).eval(0) == 1
        assert IntPoly((7, -1, 0, 2)).eval(-2) == -7

    @given(polys, st.integers(min_value=-1000, max_value=1000))
    def test_horner_matches_power_sum(self, coeffs, n):
        f = IntPoly(tuple(coeffs))
        assert f.eval(n) == sum(c * n**i for i, c in enumerate(coeffs))

    def test_derivative_survives_pickle(self):
        f = IntPoly((7, -1, 0, 2))
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == hash(f) and g == IntPoly([7, -1, 0, 2])
        assert g.deriv_coeffs() == (-1, 0, 6)
        assert g.deriv_eval(3) == f.deriv_eval(3) == 53

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            IntPoly((5,))
        with pytest.raises(ValueError):
            IntPoly((1, 0))


class TestParse:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("x^2+1", (1, 0, 1)),
            ("x^3 - 2*x + 7", (7, -2, 0, 1)),
            ("2,0,1", (2, 0, 1)),
            ("2x^3-x+7", (7, -1, 0, 2)),
            ("-x^2 + 3", (3, 0, -1)),
            ("x", (0, 1)),
        ],
    )
    def test_grammar(self, text, coeffs):
        assert parse_poly(text).coeffs == coeffs

    @pytest.mark.parametrize("text", ["", "y^2", "x^", "1..2,3", "5"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_poly(text)

    def test_str_roundtrip(self):
        for f in TEST_POLYS.values():
            assert parse_poly(str(f)) == f


class TestDiscriminant:
    def test_examples(self):
        assert discriminant(IntPoly((1, 0, 1))) == -4
        assert discriminant(IntPoly((1, 1, 1))) == -3
        assert discriminant(IntPoly((2, 0, 0, 1))) == -108

    @given(polys)
    @settings(max_examples=60)
    def test_matches_sympy(self, coeffs):
        f = IntPoly(tuple(coeffs))
        assert discriminant(f) == sympy.discriminant(_sympy_poly(f), X)

    def test_repeated_factor_detection_mod_p(self):
        # disc = 0 mod p iff f mod p has a repeated factor, i.e. iff
        # gcd(f, f') mod p is non-constant. (A repeated factor need not
        # have a root in GF(p): 3x^4-7x^2+11 = (x^2+x+1)^2 mod 2.)
        fixed = list(TEST_POLYS.values()) + [
            IntPoly(c)
            for c in [
                (1, 2, 3), (5, 0, 0, 0, 1), (-3, 1, 4, 1), (6, -5, 1),
                (1, 1, 1, 1, 1), (11, 0, -7, 0, 3),
            ]
        ]
        assert len(fixed) >= 10
        for f in fixed:
            disc = discriminant(f)
            for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]:
                if f.coeffs[-1] % p == 0:
                    continue  # degree drops; disc comparison not clean
                g = gfpoly.gcd(
                    gfpoly.reduce_mod(f.coeffs, p),
                    gfpoly.reduce_mod(f.deriv_coeffs(), p),
                    p,
                )
                has_repeat = gfpoly.deg(g) >= 1
                assert (disc % p == 0) == has_repeat, (f.coeffs, p)


class TestProfile:
    def test_examples(self):
        prof = profile(IntPoly((1, 0, 1)))
        assert prof.D == 3 and prof.disc == -4
        prof = profile(IntPoly((2, 0, 0, 1)))
        assert prof.D == 4 and prof.disc == -108
        prof = profile(IntPoly((1, 2, 3)))
        assert prof.D == 7 and prof.disc == -8

    def test_zero_discriminant_fatal(self):
        with pytest.raises(ZeroDiscriminant):
            profile(IntPoly((1, 2, 1)))  # (x+1)^2

    @given(polys.filter(lambda c: len(c) >= 3))
    @settings(max_examples=30)
    def test_D_at_least_3(self, coeffs):
        f = IntPoly(tuple(coeffs))
        if discriminant(f) == 0:
            return
        assert profile(f).D >= 3

    def test_irreducibility_hints(self):
        for f in TEST_POLYS.values():
            assert profile(f).irreducible_hint == "proved"
        red = profile(parse_poly("x^2-1"))
        assert red.irreducible_hint == "unknown"
        assert len(red.rational_roots) == 2

    def test_rational_roots(self):
        assert rational_roots(parse_poly("x^2+1")) == ()
        roots = rational_roots(parse_poly("2x^3-x"))  # x(2x^2 - 1)
        assert [float(r) for r in roots] == [0.0]
        assert profile(parse_poly("x^2-1")).integer_roots_in_range(10) == (1,)

    def test_large_constant_term(self):
        # nothing is factored: 10^18 + 3 and a 41-digit semiprime are as
        # cheap as small constant terms
        f = parse_poly("x^2+1000000000000000003")
        assert profile(f).irreducible_hint == "proved"
        g = parse_poly("2x^3-3x^2+2000000000000000006x-3000000000000000009")
        assert rational_roots(g) == (Fraction(3, 2),)  # (2x - 3)(x^2 + 10^18 + 3)
        p, q = 10**20 + 39, 10**20 + 129
        assert rational_roots(IntPoly((p * q, 0, 1))) == ()
        assert rational_roots(IntPoly((p * q, -p - q, 1))) == (p, q)

    @given(split_polys())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_rational_roots_match_divisor_test(self, f):
        if discriminant(f) == 0:
            with pytest.raises(ZeroDiscriminant):
                rational_roots(f)
            return
        assert rational_roots(f) == divisor_roots(f)

    def test_large_discriminant(self):
        # (x - 5000)^6 - (27011^5 + 1) has a 116-digit discriminant that
        # rho cannot split; profile never factors it
        coeffs = [math.comb(6, i) * (-5000) ** (6 - i) for i in range(7)]
        coeffs[0] -= 27011**5 + 1
        prof = profile(IntPoly(tuple(coeffs)))
        assert len(str(abs(prof.disc))) == 116
        assert prof.rational_roots == () and prof.D == 7


class TestValueBound:
    @given(polys, st.integers(min_value=1, max_value=200))
    @settings(max_examples=60)
    def test_bounds_full_scan(self, coeffs, N):
        f = IntPoly(tuple(coeffs))
        assert value_bound(f, N) >= max(abs(f.eval(n)) for n in range(1, N + 1))
