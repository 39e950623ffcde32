import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcmlab import gfpoly
from lcmlab.modular import (
    count_progression,
    lift_roots,
    roots_mod_p,
    roots_mod_primes,
)
from lcmlab.polynomial import IntPoly, discriminant, parse_poly
from lcmlab.primes import sieve_primes

from conftest import TEST_POLYS

F = parse_poly("x^2+1")

# Every prime up to 3000 (p = 2, 3, primes of the content and of the leading
# coefficient among them), and a few beyond.
SCAN_PRIMES = sieve_primes(3000) + [3001, 4001, 5003, 65537]
# Checked against the generic GF(p) route only: the scan would be too slow.
# 2^31 - 1 is the largest prime of the int64 lockstep, the rest lie above it.
REFERENCE_PRIMES = [2**31 - 1, 2**31 + 11, 2**32 + 15, 10**12 + 39, 2**61 - 1]


def scan_roots(f, p):
    """Roots of f mod p and their simple flags, by evaluating f and f' at
    every residue."""
    x = np.arange(p, dtype=np.int64)
    val = np.zeros(p, dtype=np.int64)
    der = np.zeros(p, dtype=np.int64)
    for c in reversed(f.coeffs):
        der = (der * x + val) % p
        val = (val * x + c % p) % p
    roots = np.flatnonzero(val == 0)
    return tuple(roots.tolist()), tuple((der[roots] != 0).tolist())


def reference_roots(f, p):
    """Roots of f mod p by gcd(x^p - x, f) and equal-degree splitting, for
    p not dividing the content of f."""
    g = gfpoly.frobenius_root_poly(gfpoly.reduce_mod(f.coeffs, p), p)
    if gfpoly.deg(g) == 0:
        return ()
    return tuple(gfpoly.roots_of_split(g, p, random.Random(p)))


@st.composite
def polys(draw):
    """Integer polynomials of degree 2 to 5: nonmonic, either sign of
    leading coefficient, content up to 6."""
    d = draw(st.integers(min_value=2, max_value=5))
    low = draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d))
    lead = draw(st.integers(-60, 60).filter(bool))
    content = draw(st.sampled_from([1, 1, 2, 3, 6]))
    return IntPoly(tuple(content * c for c in low + [lead]))


class TestRootsModP:
    def test_examples(self):
        assert roots_mod_p(F, 5).roots == (2, 3)
        assert roots_mod_p(F, 3).roots == ()
        rs = roots_mod_p(F, 2)
        assert rs.roots == (1,) and rs.simple_flags == (False,)

    @pytest.mark.parametrize("p", [2053, 3001, 4001, 5003, 65537])
    def test_gcd_path_matches_scan(self, p):
        for f in TEST_POLYS.values():
            rs = roots_mod_p(f, p)
            assert (rs.roots, rs.simple_flags) == scan_roots(f, p)

    @given(
        polys(),
        st.integers(0, 2**20),
        st.lists(st.integers(3000, 2**31 - 1), min_size=3, max_size=3),
    )
    @example(parse_poly("x^2+x+2"), 0, [3000, 3000, 3000])  # 2 | f(n) for all n
    @example(parse_poly("-6*x^5+4*x^2-2"), 1, [3000, 3000, 3000])
    @example(parse_poly("9*x^3-9"), 7, [3000, 3000, 3000])  # p = 3 kills f
    # primes of the leading coefficient where f keeps degree >= 3: p = 3
    # (int64 lockstep) and p = 2^31 + 11 (Python-int lockstep), also with
    # content 2, which p = 2 refuses
    @example(parse_poly("6*x^5+x^4+x+1"), 0, [3000, 3000, 3000])
    @example(parse_poly("6*x^5+2*x^4+2*x+2"), 0, [3000, 3000, 3000])
    @example(IntPoly((1, 2, 0, 1, 0, 2**31 + 11)), 0, [3000, 3000, 3000])
    @example(IntPoly((2, 4, 0, 2, 0, 2**32 + 22)), 0, [3000, 3000, 3000])
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_matches_scan_and_reference(self, f, seed, starts):
        # f is refused at the primes of its content; its primitive part is
        # compared with the scan at every prime
        c = math.gcd(*f.coeffs)
        for p in SCAN_PRIMES:
            if c % p == 0:
                with pytest.raises(ValueError, match="vanishes identically"):
                    roots_mod_p(f, p)
        g = IntPoly(tuple(x // c for x in f.coeffs))
        found = roots_mod_primes(g, SCAN_PRIMES, seed=seed)
        assert [rs.p for rs in found] == SCAN_PRIMES
        for rs in found:
            assert (rs.roots, rs.simple_flags) == scan_roots(g, rs.p), rs.p
        sampled = [int(sympy.nextprime(s)) for s in starts] + REFERENCE_PRIMES
        for rs in roots_mod_primes(f, sampled, seed=seed):
            assert rs.roots == reference_roots(f, rs.p), rs.p
            assert rs.simple_flags == tuple(
                f.deriv_eval(r) % rs.p != 0 for r in rs.roots
            )

    def test_root_count_at_most_d(self):
        for f in TEST_POLYS.values():
            for p in sieve_primes(200):
                assert len(roots_mod_p(f, p).roots) <= min(f.degree, p)


class TestLiftRoots:
    def test_example_mod_25(self):
        rs = lift_roots(F, roots_mod_p(F, 5))
        assert rs.roots == (7, 18)

    def test_ramified_level_2_empty(self):
        # f(1) = 2 and f(3) = 10 are both 2 mod 4, so no roots mod 4
        rs = lift_roots(F, roots_mod_p(F, 2))
        assert rs.roots == ()

    def test_exhaustive_equivalence(self):
        # lift chain equals brute force {r : p^k | f(r)} for all p^k <= 1e5
        for f in TEST_POLYS.values():
            for p in sieve_primes(50):
                rs = roots_mod_p(f, p)
                k = 2
                while p**k <= 10**5:
                    rs = lift_roots(f, rs)
                    pk = p**k
                    brute = tuple(r for r in range(pk) if f.eval(r) % pk == 0)
                    assert rs.roots == brute, (f.coeffs, p, k)
                    k += 1

    def test_reduction_coherence(self):
        for f in TEST_POLYS.values():
            for p in sieve_primes(50):
                prev = roots_mod_p(f, p)
                k = 2
                while p**k <= 10**6:
                    cur = lift_roots(f, prev)
                    prev_set = set(prev.roots)
                    assert all(r % p ** (k - 1) in prev_set for r in cur.roots)
                    prev = cur
                    k += 1

    def test_hensel_regularity_unramified(self):
        # p not dividing disc: level counts stay at rho for all p^k <= 1e6
        for f in TEST_POLYS.values():
            disc = discriminant(f)
            for p in sieve_primes(50):
                if disc % p == 0:
                    continue
                rs = roots_mod_p(f, p)
                rho = len(rs.roots)
                k = 2
                while p**k <= 10**6:
                    rs = lift_roots(f, rs)
                    assert len(rs.roots) == rho, (f.coeffs, p, k)
                    k += 1


class TestCountProgression:
    def test_examples(self):
        assert count_progression(2, 5, 12) == 3
        assert count_progression(0, 5, 12) == 2
        assert count_progression(7, 25, 5) == 0

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=200)
    def test_matches_enumeration(self, m, N):
        for r in range(m):
            expected = sum(1 for n in range(1, N + 1) if n % m == r)
            assert count_progression(r, m, N) == expected

    def test_rejects_bad_residue(self):
        with pytest.raises(ValueError):
            count_progression(5, 5, 10)
