import hashlib
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcmlab import gfpoly
from lcmlab.modular import (
    BLOCK_SIZE,
    lift_columns,
    lift_roots,
    powers,
    roots_mod_p,
    roots_mod_primes,
)
from lcmlab.polynomial import IntPoly, discriminant, parse_poly
from lcmlab.primes import sieve_primes
from lcmlab.sieve import _count_progression

import gf_reference
from conftest import TEST_POLYS, matrix_polys, poly_matrix

F = parse_poly("x^2+1")
X = sympy.Symbol("x")

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
    """Roots of f mod p by gcd(x^p - x, f) and equal-degree splitting, one
    prime at a time in pure Python, for p not dividing the content of f."""
    g = gf_reference.frobenius_root_poly(gf_reference.reduce_mod(f.coeffs, p), p)
    if gf_reference.deg(g) == 0:
        return ()
    return tuple(gf_reference.roots_of_split(g, p, random.Random(p)))


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
        found = list(roots_mod_primes(g, SCAN_PRIMES, seed=seed).root_sets())
        assert [rs.p for rs in found] == SCAN_PRIMES
        for rs in found:
            assert (rs.roots, rs.simple_flags) == scan_roots(g, rs.p), rs.p
        sampled = [int(sympy.nextprime(s)) for s in starts] + REFERENCE_PRIMES
        deriv = f.deriv_coeffs()
        for rs in roots_mod_primes(f, sampled, seed=seed).root_sets():
            assert rs.roots == reference_roots(f, rs.p), rs.p
            assert rs.simple_flags == tuple(
                sum(c * r**i for i, c in enumerate(deriv)) % rs.p != 0
                for r in rs.roots
            )

    def test_root_count_at_most_d(self):
        for f in TEST_POLYS.values():
            for p in sieve_primes(200):
                assert len(roots_mod_p(f, p).roots) <= min(f.degree, p)


class TestLockstepSplitting:
    """The lockstep splitter against the per-prime reference, on blocks
    whose roots take several rounds of splitting."""

    SEEDS = (0, 1, 2**20)
    CUBIC = parse_poly("x^3+2")
    # splits into six linear factors at every prime, distinct above 7
    SEXTIC_ROOTS = (1, -2, 3, -5, 7, -11)
    SEXTIC = IntPoly(
        tuple(int(c) for c in sympy.Poly(math.prod(X - r for r in SEXTIC_ROOTS), X).all_coeffs()[::-1])
    )

    def test_cubic_splits_over_rounds(self, power_calls):
        # x^3 + 2 has 0 or 3 roots at p = 1 mod 3; the 3 are split apart
        ps = [p for p in sieve_primes(20000) if p % 3 == 1]
        expected = [reference_roots(self.CUBIC, p) for p in ps]
        assert sum(len(r) == 3 for r in expected) > 300
        for seed in self.SEEDS:
            power_calls.clear()
            found = roots_mod_primes(self.CUBIC, ps, seed=seed).root_sets()
            assert [rs.roots for rs in found] == expected, seed
            # x^p, then at least two splitting rounds
            assert len(power_calls) >= 3

    def test_sextic_pieces_meet_in_a_round(self, power_calls):
        ps = sieve_primes(3000)[1:]
        for seed in self.SEEDS:
            power_calls.clear()
            found = roots_mod_primes(self.SEXTIC, ps, seed=seed).root_sets()
            for rs in found:
                assert rs.roots == reference_roots(self.SEXTIC, rs.p), (seed, rs.p)
                assert rs.roots == tuple(sorted({r % rs.p for r in self.SEXTIC_ROOTS}))
            # some round splits factors of degree 3 and 4 in one call
            assert any({3, 4} <= degrees for degrees, _ in power_calls[1:]), seed

    @pytest.mark.parametrize("f", [CUBIC, SEXTIC], ids=["cubic", "sextic"])
    def test_python_int_columns(self, f):
        expected = [reference_roots(f, p) for p in REFERENCE_PRIMES]
        assert any(len(r) >= 3 for r in expected)
        for seed in self.SEEDS:
            found = roots_mod_primes(f, REFERENCE_PRIMES, seed=seed).root_sets()
            assert [rs.roots for rs in found] == expected, seed

    def test_unsplittable_factor_raises(self, power_calls):
        # x^3 - 2 is irreducible mod 7 (the cubes mod 7 are 0, 1 and 6); next
        # to it x^3 - x = x(x - 1)(x + 1) splits as before
        with pytest.raises(ValueError, match=r"\[5, 0, 0, 1\] mod p=7 did not split"):
            gfpoly.roots_of_split(*poly_matrix([[5, 0, 0, 1], [0, 6, 0, 1]], [7, 7]), 0)
        assert len(power_calls) == gfpoly._SPLIT_ROUNDS
        row, r = gfpoly.roots_of_split(*poly_matrix([[0, 6, 0, 1]], [7]), 0)
        assert (row.tolist(), r.tolist()) == ([0, 0, 0], [0, 1, 6])


# Primes of each column dtype: int64 below 2^31, Python ints above
COLUMN_PRIMES = (
    [3, 5, 7, 13, 101, 65537, 2**31 - 1],
    [2**31 + 11, 2**32 + 15, 10**12 + 39, 2**61 - 1],
)


@st.composite
def column_polys(draw, count, max_degree=6):
    """``count`` lists of coefficients of degree -1 (zero) to max_degree,
    unreduced: a top coefficient that vanishes mod p lowers the degree."""
    return [
        draw(st.lists(st.integers(0, 2**62), max_size=max_degree + 1))
        for _ in range(count)
    ]


@st.composite
def column_cases(draw, max_degree=6):
    """(ps, as, bs): up to 12 columns of one dtype, each a prime and two
    polynomials reduced mod it."""
    primes = st.sampled_from(COLUMN_PRIMES[draw(st.booleans())])
    ps = draw(st.lists(primes, min_size=1, max_size=12))
    a, b = (draw(column_polys(len(ps), max_degree)) for _ in range(2))
    reduce = gf_reference.reduce_mod
    return (
        ps,
        [reduce(x, p) for x, p in zip(a, ps)],
        [reduce(x, p) for x, p in zip(b, ps)],
    )


class TestLockstepEuclid:
    """gfpoly's lockstep gcd and exact division on coefficient matrices,
    against the per-prime list routines of gf_reference."""

    @given(column_cases())
    # zero a or b, both zero, constants, and equal degrees, in one call
    @example(
        (
            [7, 7, 7, 7, 7],
            [[], [3, 1], [], [5], [1, 2, 3]],
            [[2, 1], [], [], [0, 4], [4, 5, 6]],
        )
    )
    @example(([2**61 - 1] * 3, [[], [1], [6, 0, 1]], [[5], [], [2**60, 1, 1]]))
    # a common factor of degree 2 at mixed degrees
    @example(
        (
            [13, 13, 101],
            [[1, 0, 1], [2, 3, 3, 1], [7, 1]],
            [[1, 0, 1], [2, 0, 1, 0, 1], [7, 1]],
        )
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_gcd_matches_reference(self, case):
        ps, a, b = case
        C, P = poly_matrix(a + b, ps + ps)
        n = len(ps)
        G, degree = gfpoly._gcd(C[:, :n], C[:, n:], P[:n])
        expected = [gf_reference.gcd(x, y, p) for x, y, p in zip(a, b, ps)]
        assert matrix_polys(G) == expected
        assert degree.tolist() == [len(g) - 1 for g in expected]
        assert G.dtype == P.dtype

    @given(column_cases(max_degree=4))
    @example(([5, 5, 5], [[], [1], [2, 3]], [[1], [4], [1]]))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_exact_quotient_matches_reference(self, case):
        # h = u * q for a monic u of degree >= 0 and any q, zero included
        ps, us, qs = case
        us = [gf_reference.monic(u, p) or [1] for u, p in zip(us, ps)]
        hs = [gf_reference.mul(u, q, p) for u, q, p in zip(us, qs, ps)]
        C, P = poly_matrix(hs + us, ps + ps)
        n = len(ps)
        U = C[:, n:]
        Q = gfpoly._quotient(C[:, :n], U, gfpoly.degrees(U), P[:n])
        expected = [gf_reference.quo(h, u, p) for h, u, p in zip(hs, us, ps)]
        assert matrix_polys(Q) == expected == qs

    @pytest.mark.parametrize("d", [1, 3, 5, 8])
    def test_kernel_at_the_reduction_cut(self, d):
        # below (2d + 1) p^2 < 2^63 the kernel sums products before it
        # reduces them; the primes on either side of that cut and the
        # largest int64 prime must agree with the list powering
        cut = math.isqrt((2**63 - 1) // (2 * d + 1))
        ps = [int(sympy.prevprime(cut)), int(sympy.nextprime(cut)), 2**31 - 1] * 4
        rng = random.Random(d)
        gs = [[rng.randrange(p) for _ in range(d)] + [1] for p in ps]
        a = [rng.randrange(p) for p in ps]
        e = [p - 1 - rng.randrange(2) for p in ps]
        G, P = poly_matrix(gs, ps)
        got = gfpoly._pow_columns(np.array(a), np.array(e), -G[:d] % P, P)
        assert matrix_polys(got) == [
            gf_reference.powmod([x, 1], k, g, p) for x, k, g, p in zip(a, e, gs, ps)
        ]


RANDOM_QUARTIC = IntPoly((-41, 17, 0, -23, 6))
RANDOM_SEXTIC = IntPoly((29, -8, 15, 0, -31, 4, 3))
# SHA-256 of the rows repr((p, roots, simple_flags)) of roots_mod_primes
# with seed 3, in order: at every prime up to 2*10^5 in blocks of
# BLOCK_SIZE, or of 2048 (nine blocks, the last short), and at the 24
# primes after 2^31, 2^40 and 2^61 (8 each), in one call on Python-int
# columns. The roots do not depend on the partition. Recorded from the
# per-prime list gcd that the lockstep Euclid replaced, whose roots and
# flags were checked against the scan and the reference above.
RECORDED_ROOTS = {
    "x^2+1": (
        "5488c8ad0680534e22ae752e1fdef1576efe477734f06f1f838b00a1a0f2c175",
        "535ab90495aed1bc87d23be33edf1fdd3589149146d5ab4d6e2b090751cce4a6",
    ),
    "x^2+x+1": (
        "528e94f60a0a6fe38207a8645b861ae8463deb81849f84b58ab390c7708002b2",
        "eacc45184130ddaef6b5b66b2be77aec9a6718245345f8583d889018961dffb6",
    ),
    "x^3+2": (
        "d3ee4ccb44f3f1d255f1c21221f772cc8de3cd09d01013e4caa0aff4178797e6",
        "4e2958710ef48445822f8195115d3be42032bf790ae6f1c9b33801be412cd128",
    ),
    "2x^3-x+7": (
        "d6f39dfbe735d148e2c27354baf7504e66acb137558c01b2fdb21745775ea79a",
        "e5d0b9033da5c51feec1c1d4495186d83631270b38ce73e4027cc06992548650",
    ),
    "x^5-x+1": (
        "ae1b106b0f824838ebf6d37db561d2b4767f7b8f1ecb47bde00c553d55fd10ed",
        "c79e436d907fbf77919be08d940c2eca1ab1590ce791a9799cd9fea81d96c7e1",
    ),
    "quartic": (
        "c6be3f2c15a8a5d03210eb07977fd51fbcbbf9072fe66665cd8052ac0db650b2",
        "47e65d000ff6e186414dafa119348a8c04c9636c5ec93e7cc118b74603b66f30",
    ),
    "sextic": (
        "5c33013dd7f2dbac2a18db467bd9ef77f7131515f7c84783ecbef602bf81441b",
        "07d4526bf41365f2113754186e7b666415a201f6aa350360672d186f01fcd14a",
    ),
}


@pytest.mark.parametrize(
    "name, size",
    [
        pytest.param(name, size, id=name if size == BLOCK_SIZE else f"{name}-{size}")
        for name in sorted(RECORDED_ROOTS)
        for size in (BLOCK_SIZE, 2048)
    ],
)
def test_roots_match_recorded(name, size):
    others = {
        "x^5-x+1": parse_poly("x^5-x+1"),
        "quartic": RANDOM_QUARTIC,
        "sextic": RANDOM_SEXTIC,
    }
    f = {**TEST_POLYS, **others}[name]
    small = sieve_primes(200_000)
    wide = []
    for start in (2**31, 2**40, 2**61):
        for _ in range(8):
            start = int(sympy.nextprime(start))
            wide.append(start)
    blocks = [small[lo : lo + size] for lo in range(0, len(small), size)]
    calls = (blocks, [wide])
    for recorded, blocks in zip(RECORDED_ROOTS[name], calls):
        digest = hashlib.sha256()
        for block in blocks:
            for rs in roots_mod_primes(f, block, seed=3).root_sets():
                digest.update(repr((rs.p, rs.roots, rs.simple_flags)).encode())
        assert digest.hexdigest() == recorded


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
    """The closed form the ledger counts its progressions by, scalar and
    vectorised."""

    def test_examples(self):
        assert _count_progression(2, 5, 12) == 3
        assert _count_progression(0, 5, 12) == 2
        assert _count_progression(7, 25, 5) == 0
        r, m = np.array([2, 0, 7]), np.array([5, 5, 25])
        assert _count_progression(r, m, 12).tolist() == [3, 2, 1]

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=200)
    def test_matches_enumeration(self, m, N):
        expected = [sum(1 for n in range(1, N + 1) if n % m == r) for r in range(m)]
        assert [_count_progression(r, m, N) for r in range(m)] == expected
        r = np.arange(m)
        assert _count_progression(r, np.full(m, m), N).tolist() == expected


ODD_PRIMES = sieve_primes(3000)[1:]
# 16 primes from 2^31 on: the closed form runs on Python-int columns
WIDE_PRIMES = [int(sympy.nextprime(2**31))]
while len(WIDE_PRIMES) < 16:
    WIDE_PRIMES.append(int(sympy.nextprime(WIDE_PRIMES[-1])))


def brute_lifts(f, p, k):
    """{r < p^k : p^k | f(r)}, sorted."""
    pk = p**k
    return tuple(r for r in range(pk) if f.eval(r) % pk == 0)


class TestClosedForm:
    """gfpoly.low_degree_roots, the one root finder for degree <= 2, alone
    and behind roots_mod_primes, against brute force and the per-prime
    Tonelli-Shanks reference; its lockstep Tonelli-Shanks square root and
    the nonresidues it takes from quadratic reciprocity, against brute
    force and pow."""

    @pytest.mark.parametrize("poly", ["x^2+1", "x^2+x+1", "x^2-2"])
    def test_every_odd_prime_below_3000(self, poly):
        f = parse_poly(poly)
        P = gfpoly.modulus_column(ODD_PRIMES)
        c0, c1, _ = (np.array([c % p for p in ODD_PRIMES]) for c in f.coeffs)
        roots, count = gfpoly.low_degree_roots(c0, c1, np.ones(len(P), bool), P)
        found = roots_mod_primes(f, ODD_PRIMES).root_sets()
        for i, (p, rs) in enumerate(zip(ODD_PRIMES, found)):
            expected = scan_roots(f, p)
            assert tuple(roots[: count[i], i].tolist()) == expected[0], p
            assert (rs.roots, rs.simple_flags) == expected, p

    def test_degree_drops_at_a_prime_of_the_lead(self):
        # 3x^2 + 5x + 7 is 2x + 1 mod 3, whose root is 1
        f = parse_poly("3x^2+5x+7")
        found = list(roots_mod_primes(f, ODD_PRIMES).root_sets())
        assert found[0].p == 3 and found[0].roots == (1,)
        for rs in found:
            assert (rs.roots, rs.simple_flags) == scan_roots(f, rs.p), rs.p

    @pytest.mark.parametrize("poly", ["x^2+4x+4", "x^2-45", "9x^2+6x+1"])
    def test_double_roots_lift_exhaustively(self, poly):
        # x^2 + 4x + 4 = (x + 2)^2 has the one double root -2 at every p;
        # x^2 - 45 is ramified at 3 and 5 and simple elsewhere
        f = parse_poly(poly)
        cols = roots_mod_primes(f, ODD_PRIMES)
        for rs in cols.root_sets():
            assert (rs.roots, rs.simple_flags) == scan_roots(f, rs.p), rs.p
        small = [p for p in ODD_PRIMES if p < 50]
        cols = cols.take(cols.p[cols.row] < 50)
        assert not cols.simple.all()
        for k in (2, 3):
            cols = lift_columns(f, cols, powers(cols.p[cols.row], k))
            for p, rs in zip(small, cols.root_sets()):
                assert rs.roots == brute_lifts(f, p, k), (p, k)
                simple = discriminant(f) % p != 0
                assert rs.simple_flags == (simple,) * len(rs.roots), (p, k)

    def test_every_square_mod_primes_1_mod_8(self):
        # p = 1 mod 8 has no fixed small nonresidue, so Tonelli-Shanks takes
        # its z from the reciprocity search; every nonzero square a of each
        # such p below 3000 is one column here
        ps = [p for p in ODD_PRIMES if p % 8 == 1]
        assert len(ps) > 100
        col_p, col_a, col_root = [], [], []
        for p in ps:
            root = {}
            for x in range(1, (p + 1) // 2):
                root.setdefault(x * x % p, x)
            for a, x in root.items():
                col_p.append(p)
                col_a.append(a)
                col_root.append(min(x, p - x))
        P = gfpoly.modulus_column(col_p)
        a = np.array(col_a)
        roots, count = gfpoly.low_degree_roots(-a % P, 0 * a, np.ones(len(P), bool), P)
        assert (count == 2).all()
        assert roots[0].tolist() == col_root
        assert (roots[1] == P - roots[0]).all()

    @pytest.mark.parametrize(
        "p, e",
        [(3, 1), (5, 2), (17, 4), (97, 5), (193, 6), (257, 8), (7681, 9),
         (12289, 12), (40961, 13), (65537, 16)],
    )
    def test_every_residue_mod_primes_of_each_two_adic_order(self, p, e):
        # p - 1 = 2^e q: the loop runs as many levels deep as e allows
        assert (p - 1) & (1 - p) == 2**e
        P = gfpoly.modulus_column([p] * p)
        a = np.arange(p)
        roots, count = gfpoly.low_degree_roots(-a % P, 0 * a, np.ones(p, bool), P)
        # the least x with x^2 = a, for each square a
        squares, least = np.unique(a * a % p, return_index=True)
        expected = np.zeros(p, dtype=np.int64)
        expected[squares] = np.where(squares == 0, 1, 2)
        assert count.tolist() == expected.tolist()
        assert (roots[0, squares] == least).all()
        two = np.flatnonzero(count == 2)
        assert (roots[1, two] == p - roots[0, two]).all()

    @pytest.mark.parametrize(
        "ps",
        [
            # e = 18, 20, 21, 22, 25, 26 and 27, in one int64 column
            [786433, 7340033, 23068673, 104857601, 167772161, 469762049,
             2013265921],
            # e = 30, above 2^31: a Python-int column
            [3221225473],
        ],
    )
    def test_sampled_residues_mod_deep_primes(self, ps):
        rng = random.Random(ps[0])
        col_p, col_a = [], []
        for p in ps:
            # squares of random x, whose a^q take orders up to 2^(e-1),
            # random residues (about half of them not squares), and 0, 1, -1
            col_a += [rng.randrange(p) ** 2 % p for _ in range(300)]
            col_a += [rng.randrange(p) for _ in range(100)] + [0, 1, p - 1]
            col_p += [p] * 403
        P = gfpoly.modulus_column(col_p)
        assert P.dtype == (object if ps[0] > 2**31 else np.int64)
        a = np.array(col_a, dtype=P.dtype)
        roots, count = gfpoly.low_degree_roots(-a % P, 0 * a, np.ones(len(P), bool), P)
        for p, x, n, r0, r1 in zip(col_p, col_a, count.tolist(), *roots.tolist()):
            assert n == (1 if x == 0 else 2 if pow(x, (p - 1) // 2, p) == 1 else 0)
            if n:
                assert r0 * r0 % p == x and r0 <= r1 == (p - r0) % p, (p, x)

    @pytest.mark.parametrize("ps", [[3, 5, 7, 65537], [3221225473, 2**61 - 1]])
    def test_linear_and_empty_columns(self, ps):
        # with no quadratic column, and with no column at all, the lockstep
        # code still runs: each column holds the one root -c0 of x + c0
        P = gfpoly.modulus_column(ps)
        assert P.dtype == (object if ps[0] > 2**31 else np.int64)
        c0 = np.array([p // 3 * (i + 1) % p for i, p in enumerate(ps)], P.dtype)
        for cols in (slice(None), slice(0)):
            P_, c0_ = P[cols], c0[cols]
            roots, count = gfpoly.low_degree_roots(
                c0_, 0 * c0_, np.zeros(len(P_), bool), P_
            )
            assert roots.shape == (2, len(P_)) and roots.dtype == P.dtype
            assert count.tolist() == [1] * len(P_)
            closed = [-c % p for c, p in zip(c0_.tolist(), P_.tolist())]
            assert roots[0].tolist() == closed
            assert roots[1].tolist() == [0] * len(P_)

    def test_stalled_loop_raises(self):
        # 21 = 5 mod 8 takes z = 2, which is a square mod 7, so c = z^q has
        # too low an order for the loop to lower that of b
        P = gfpoly.modulus_column([21] * 21)
        a = np.arange(21)
        with pytest.raises(ArithmeticError, match="stalled mod 21"):
            gfpoly.low_degree_roots(-a % P, 0 * a, np.ones(21, bool), P)

    def test_nonresidues_from_reciprocity(self):
        ps = sieve_primes(10**5)[1:]
        z = gfpoly._nonresidues(gfpoly.modulus_column(ps)).tolist()
        assert all(pow(x, (p - 1) // 2, p) == p - 1 for x, p in zip(z, ps))
        # at p = 1 mod 8 it is the least odd nonresidue, at most 29 here
        least = [
            next(y for y in range(3, p, 2) if pow(y, (p - 1) // 2, p) == p - 1)
            for p in ps
            if p % 8 == 1
        ]
        assert [x for x, p in zip(z, ps) if p % 8 == 1] == least
        assert max(least) == 29
        # least odd nonresidues 47, 53 and 59, found in a Python-int column
        # too
        far = [3818929, 9257329, 22000801]
        for P in (gfpoly.modulus_column(far), np.array(far, dtype=object)):
            assert gfpoly._nonresidues(P).tolist() == [47, 53, 59]

    @pytest.mark.parametrize("poly", ["x^2+1", "x^2+x+1", "x^2-2", "3x^2+5x+7"])
    def test_python_int_columns(self, poly):
        f = parse_poly(poly)
        disc = discriminant(f)
        cols = roots_mod_primes(f, WIDE_PRIMES)
        assert cols.p.dtype == object
        for rs in cols.root_sets():
            p = rs.p
            assert all(f.eval(r) % p == 0 for r in rs.roots), p
            residue = pow(disc, (p - 1) // 2, p)
            assert len(rs.roots) == {1: 2, 0: 1, p - 1: 0}[residue], p
            g = gf_reference.monic(gf_reference.reduce_mod(f.coeffs, p), p)
            assert rs.roots == gf_reference.roots_low_degree(g, p), p

    def test_split_pieces_batched_per_round(self, power_calls, monkeypatch):
        # roots_of_split reads its pieces of degree <= 2 in one closed-form
        # call for the input and one per splitting round
        calls = []
        closed = gfpoly.low_degree_roots

        def spy(c0, c1, quad, P):
            calls.append(len(P))
            return closed(c0, c1, quad, P)

        monkeypatch.setattr(gfpoly, "low_degree_roots", spy)
        ps = [p for p in sieve_primes(2000) if p % 3 == 1]
        hs = [[2, 0, 0, 1]] * len(ps) + [[6, 5, 1]]
        row, r = gfpoly.roots_of_split(
            *poly_matrix(
                [gf_reference.frobenius_root_poly(h, p) for h, p in zip(hs, ps + [7])],
                ps + [7],
            ),
            0,
        )
        found = [tuple(r[row == i].tolist()) for i in range(len(hs))]
        assert found[-1] == (4, 5)
        assert found[:-1] == [
            reference_roots(parse_poly("x^3+2"), p) for p in ps
        ]
        assert 1 < len(calls) <= len(power_calls) + 1
