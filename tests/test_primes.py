"""The lockstep lanes of ``primes`` against the scalar code they vectorise."""

import collections
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcmlab import gfpoly, primes, sieve
from lcmlab.primes import (
    _brent_lanes,
    _brent_walks,
    _FloatQuotient,
    _lane_arithmetic,
    _merge,
    _Montgomery,
    _probable_primes,
    _strong_probable_primes,
    factorize,
    factorize_lanes,
    FactorTimeout,
    fermat_base2,
    is_probable_prime,
    pow_mod,
)

R = 1 << 64
MAX_ITERS = primes.RHO_MAX_ITERS
# rho attempt 0 with seed 0 ends at g == n on these semiprimes
G_EQ_N = [17447279, 2521303]


def _u64(values):
    return np.array(values, dtype=np.uint64)


def _draw(n, seed, attempt=0):
    """The y0 and c of rho attempt ``attempt`` on n."""
    rng = random.Random((seed << 8) ^ (n & 0xFFFFFFFFFFFF) ^ attempt)
    return rng.randrange(1, n), rng.randrange(1, n)


def _draws(ns):
    """The uint64 rows [y0, c] of rho attempt 0 with seed 0 on ns."""
    return _u64([_draw(n, 0) for n in ns]).reshape(-1, 2).T


def _attempt0(n, seed, max_iters, attempt=0):
    """The factor that rho attempt 0 (or ``attempt``) finds in n, or 0:
    Brent's walk (Brent 1980) one step at a time, on the y0 and c of
    factorize's rng."""
    y, c = _draw(n, seed, attempt)
    x, y, q, r, iters, g = y, (y * y + c) % n, 1, 1, 0, 1
    while g == 1:
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += 128
        iters += r
        r *= 2
        if iters > max_iters:
            return 0
        if g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
    if g == n:  # backtrack from the chunk's first y
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g if g != n else 0


def _composites(count, seed):
    """Odd composites below 2^63, every prime factor above 47, in turn: a
    semiprime near or above 2^62 whose least factor has at most 20 bits,
    the square of a prime below 2^20, and a product of three primes."""
    rng = random.Random(seed)

    def prime(bits):
        return sympy.nextprime(rng.randrange(64, 1 << bits))

    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            p = prime(20)
            q = sympy.prevprime(rng.randrange((1 << 62) // p, (1 << 63) // p))
            out.append(p * q)
        elif kind == 1:
            out.append(prime(20) ** 2)
        else:
            out.append(prime(12) * prime(20) * prime(30))
    return out


def _scalar_state(n, seed, r_at, k_at):
    """(c, x, y, q, iters) of rho attempt 0 on n after k_at steps of the
    second half of round r_at, stepped as _attempt0 steps."""
    y, c = _draw(n, seed)
    x, y, q, r, iters = y, (y * y + c) % n, 1, 1, 0
    while r < r_at:
        for _ in range(r):
            y = (y * y + c) % n
            q = q * (x - y) % n
        iters += r
        r *= 2
        x = y
        for _ in range(r):
            y = (y * y + c) % n
    for _ in range(min(k_at, r)):
        y = (y * y + c) % n
        q = q * (x - y) % n
    return c, x, y, q, iters


class TestMontgomery:
    MODULI = [
        *(2**63 - k for k in (1, 25, 49, 301)),
        *(2**62 + k for k in (-3, -1, 1, 3)),
        3,
        5,
        1_000_003,
    ]

    def test_products_match_ints(self):
        rng = random.Random(1)
        ms = self.MODULI + [rng.randrange(2**61, 2**63) | 1 for _ in range(200)]
        mont = _Montgomery.of(_u64(ms))
        for a, b in [
            ([m - 1 for m in ms], [m - 2 for m in ms]),
            ([m - 1 for m in ms], [m - 1 for m in ms]),
            ([rng.randrange(m) for m in ms], [rng.randrange(m) for m in ms]),
            ([0] * len(ms), [m - 1 for m in ms]),
        ]:
            inv = [pow(R, -1, m) for m in ms]
            got = mont.mul(_u64(a), _u64(b)).tolist()
            assert got == [x * y * i % m for x, y, i, m in zip(a, b, inv, ms)]
            got = mont.mul(_u64(a), _u64(a)).tolist()
            assert got == [x * x * i % m for x, i, m in zip(a, inv, ms)]
            form = mont.to_form(_u64(a))
            assert form.tolist() == [x * R % m for x, m in zip(a, ms)]
            assert mont.from_form(form).tolist() == a

    @pytest.mark.parametrize("rows", [1, 2])
    def test_buffered_products_match_ints(self, rows):
        # one row of lanes is a 1-d array, two rows a 2-d one
        rng = random.Random(5)
        ms = self.MODULI
        mont = _Montgomery.of(_u64(ms))
        inv = [pow(R, -1, m) for m in ms]
        a = [[m - 1 for m in ms], [rng.randrange(m) for m in ms]][2 - rows :]
        b = [[rng.randrange(m) for m in ms], [m - 1 for m in ms]][2 - rows :]
        mul = [[x * y * i % m for x, y, i, m in zip(*ab, inv, ms)] for ab in zip(a, b)]
        square = [[x * x * i % m for x, i, m in zip(u, inv, ms)] for u in a]

        def lanes(values):
            return _u64(values if rows == 2 else values[0])

        def rows_of(array):
            return array.reshape(rows, -1).tolist()

        out = lanes(b) * 0
        assert mont.mul(lanes(a), lanes(b), out=out) is out
        assert rows_of(out) == mul
        assert rows_of(mont.mul(lanes(a), lanes(a), out=out)) == square
        # the output may be either operand
        for alias in (0, 1):
            operands = [lanes(a), lanes(b)]
            mont.mul(*operands, out=operands[alias])
            assert rows_of(operands[alias]) == mul
        u = lanes(a)
        assert mont.mul(u, u, out=u) is u and rows_of(u) == square
        # one row of a two-row array, in place
        u = _u64([b[0], a[-1]])
        mont.mul(u[1], _u64(b[-1]), out=u[1])
        assert u.tolist() == [b[0], mul[-1]]

    def test_row_products_through_views(self):
        # _brent_lanes: [y, q] times [y, d] from the rows [d, y, q], and two
        # rows times one, into the same rows
        rng = random.Random(6)
        ms = self.MODULI
        mont = _Montgomery.of(_u64(ms))
        inv = [pow(R, -1, m) for m in ms]
        d, y, q = ([rng.randrange(m) for m in ms] for _ in range(3))
        w = _u64([d, y, q])
        mont.mul(w[1:], w[1::-1], out=w[1:])
        assert w.tolist() == [
            d,
            [u * u * i % m for u, i, m in zip(y, inv, ms)],
            [v * e * i % m for v, e, i, m in zip(q, d, inv, ms)],
        ]
        w = _u64([q, y])
        mont.mul(w, w[1], out=w)
        assert w.tolist() == [
            [v * u * i % m for v, u, i, m in zip(q, y, inv, ms)],
            [u * u * i % m for u, i, m in zip(y, inv, ms)],
        ]


def _float_moduli(rng):
    """Odd moduli of every bit length 2 to 50: the least and the largest
    of each, and one drawn between."""
    ms = []
    for bits in range(2, 51):
        lo, hi = 1 << (bits - 1), (1 << bits) - 1
        ms += [lo | 1, hi, rng.randrange(lo, hi) | 1]
    return ms


class TestFloatQuotient:
    """The float-quotient lane arithmetic below 2^50 against Python ints."""

    @pytest.mark.parametrize("form", ["one row", "two rows", "broadcast"])
    def test_products_match_ints(self, form):
        rng = random.Random(11)
        ms = _float_moduli(rng)
        arith = _lane_arithmetic(_u64(ms))
        assert isinstance(arith, _FloatQuotient)
        top = [m - 1 for m in ms]  # a = b = n - 1: the worst quotient error
        pairs = [(top, top), (top, [m - 2 for m in ms]), ([0] * len(ms), top)]
        pairs += [
            ([rng.randrange(m) for m in ms], [rng.randrange(m) for m in ms])
            for _ in range(40)
        ]
        for a, b in pairs:
            want = [x * y % m for x, y, m in zip(a, b, ms)]
            if form == "one row":
                got = [arith.mul(_u64(a), _u64(b)).tolist()]
                wants = [want]
            elif form == "two rows":
                got = arith.mul(_u64([a, b]), _u64([b, a])).tolist()
                wants = [want, want]
            else:  # [a, b] times b: one row broadcast against two
                got = arith.mul(_u64([a, b]), _u64(b)).tolist()
                wants = [want, [y * y % m for y, m in zip(b, ms)]]
            assert got == wants
        assert arith.to_form(_u64(top)).tolist() == top
        assert arith.from_form(_u64(top)).tolist() == top

    def test_products_in_place_through_views(self):
        # _brent_lanes: [y, q] times [y, d] from the rows [d, y, q], into
        # the same rows
        rng = random.Random(12)
        ms = _float_moduli(rng)
        arith = _lane_arithmetic(_u64(ms))
        d, y, q = ([rng.randrange(m) for m in ms] for _ in range(3))
        w = _u64([d, y, q])
        arith.mul(w[1:], w[1::-1], out=w[1:])
        assert w.tolist() == [
            d,
            [u * u % m for u, m in zip(y, ms)],
            [v * e % m for v, e, m in zip(q, d, ms)],
        ]
        # the lanes a take keeps
        at = [0, 5, len(ms) - 1]
        u = _u64([y[i] for i in at])
        assert arith.take(at).mul(u, u, out=u) is u
        assert u.tolist() == [y[i] * y[i] % ms[i] for i in at]

    @pytest.mark.parametrize(
        "top, kind",
        [
            (primes.FLOAT_PRODUCT_LIMIT - 1, _FloatQuotient),
            (primes.FLOAT_PRODUCT_LIMIT + 1, _Montgomery),
        ],
    )
    def test_selection_by_largest_modulus(self, top, kind):
        assert primes.FLOAT_PRODUCT_LIMIT == 1 << 50
        assert type(_lane_arithmetic(_u64([3, top, 1_000_003]))) is kind

    def test_miller_rabin_on_a014233_terms(self):
        # the terms below 2^50 with no factor in _TINY_PRIMES are composite,
        # and the next prime above each is prime
        terms = [
            n
            for n in sorted(set(primes._MR_EXACT_BELOW))
            if n < 1 << 50 and all(n % p for p in primes._TINY_PRIMES)
        ]
        assert terms == [
            1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
            341550071728321,
        ]
        nxt = [int(sympy.nextprime(n)) for n in terms]
        values = _u64(terms + nxt)
        assert type(_lane_arithmetic(values)) is _FloatQuotient
        assert _probable_primes(values).tolist() == [False] * 6 + [True] * 6

    def test_miller_rabin_matches_sympy(self):
        rng = random.Random(14)
        odd = (rng.randrange(53, 1 << rng.randrange(7, 51)) | 1 for _ in range(3000))
        values = [n for n in odd if all(n % p for p in primes._TINY_PRIMES)]
        values += [int(sympy.prevprime(1 << 50)), int(sympy.prevprime(1 << 40))]
        got = _probable_primes(_u64(values)).tolist()
        assert got == [sympy.isprime(n) for n in values]
        assert True in got and False in got

    @pytest.mark.parametrize("max_iters", [MAX_ITERS, 64])
    def test_brent_lanes_match_montgomery(self, monkeypatch, max_iters):
        rng = random.Random(15)
        ns = []
        while len(ns) < primes.LANES + 200:
            p = int(sympy.nextprime(rng.randrange(53, 1 << rng.randrange(7, 25))))
            q = int(sympy.nextprime(rng.randrange(53, (1 << 50) // p)))
            ns.append(p * q)
        ns += G_EQ_N
        assert type(_lane_arithmetic(_u64(ns))) is _FloatQuotient
        got = _brent_lanes(_u64(ns), _draws(ns), max_iters).tolist()
        monkeypatch.setattr(primes, "_lane_arithmetic", _Montgomery.of)
        assert _brent_lanes(_u64(ns), _draws(ns), max_iters).tolist() == got
        assert all(g == 0 or 1 < g < n and n % g == 0 for g, n in zip(got, ns))
        if max_iters == 64:
            assert 0 < got.count(0) < len(ns)


def _exponents(rng, bits):
    """Exponents below 2^bits of every bit length: 0, 1, and 2^k - 1, 2^k,
    2^k + 1 and one drawn in [2^k, 2^(k+1)) for each k, shuffled so that
    lanes of different lengths sit side by side."""
    es = [0, 1]
    for k in range(1, bits):
        es += [(1 << k) - 1, 1 << k, (1 << k) + 1, rng.randrange(1 << k, 2 << k)]
    es = [e for e in es if e < 1 << bits]
    rng.shuffle(es)
    return es


def _odd_moduli(rng, lo, hi, count):
    """``count`` odd moduli in [lo, hi): primes, products of two primes and
    random odd numbers in turn."""
    ms = []
    while len(ms) < count:
        kind = len(ms) % 3
        if kind == 0:
            ms.append(int(sympy.prevprime(rng.randrange(lo + 2, hi))))
        elif kind == 1:
            p = int(sympy.nextprime(rng.randrange(3, 1 << 20)))
            ms.append(p * int(sympy.prevprime(rng.randrange(lo // p + 3, hi // p))))
        else:
            ms.append(rng.randrange(lo, hi) | 1)
    return ms


class TestPowMod:
    """pow_mod, the one exponent ladder for a column of bases, under each
    product the package gives it, against Python's pow."""

    @pytest.mark.parametrize(
        "bits, e_bits, dtype",
        [(31, 63, np.int64), (130, 130, object)],
        ids=["int64", "python-int"],
    )
    def test_residues_mod_p(self, bits, e_bits, dtype):
        # gfpoly's product x * y % P, on int64 residues below 2^31 and on
        # Python ints above
        rng = random.Random(21)
        es = _exponents(rng, e_bits)
        ms = [2, 3, *(rng.randrange(4, 1 << bits) for _ in es[2:])]
        P = gfpoly.modulus_column(ms)
        assert P.dtype == dtype
        a = [rng.randrange(m) for m in ms]
        got = gfpoly._pow_mod(np.array(a, dtype=dtype), np.array(es, dtype=dtype), P)
        assert got.tolist() == [pow(x, e, m) for x, e, m in zip(a, es, ms)]

    @pytest.mark.parametrize(
        "lo, hi, kind",
        [(3, 1 << 50, _FloatQuotient), (1 << 50, 1 << 63, _Montgomery)],
        ids=["float", "montgomery"],
    )
    def test_lanes(self, lo, hi, kind):
        # the lane arithmetic's mul, from to_form(1), on uint64 exponents of
        # up to 64 bits
        rng = random.Random(22)
        es = _exponents(rng, 64)
        ms = _odd_moduli(rng, lo, hi, len(es))
        arith = _lane_arithmetic(_u64(ms))
        assert type(arith) is kind
        a = [rng.randrange(m) for m in ms]
        one = arith.to_form(np.ones_like(arith.n))
        got = pow_mod(arith.to_form(_u64(a)), _u64(es), arith.mul, one)
        want = [pow(x, e, m) for x, e, m in zip(a, es, ms)]
        assert arith.from_form(got).tolist() == want

    def test_empty_column(self):
        P = gfpoly.modulus_column([])
        assert gfpoly._pow_mod(P, P, P).tolist() == []

    @pytest.mark.parametrize(
        "lo, hi, kind",
        [(53, 1 << 50, _FloatQuotient), (1 << 50, 1 << 63, _Montgomery)],
        ids=["float", "montgomery"],
    )
    def test_strong_probable_primes(self, lo, hi, kind):
        # base^d on the ladder, then the s - 1 squarings, against the
        # scalar test, for random bases; base-2 strong pseudoprimes pass
        rng = random.Random(23)
        ms = _odd_moduli(rng, lo, hi, 600)
        bases = [rng.randrange(2, m - 1) for m in ms]
        if kind is _FloatQuotient:
            ms += [2047, 3215031751, 2152302898747]
            bases += [2, 2, 2]
        arith = _lane_arithmetic(_u64(ms))
        assert type(arith) is kind
        got = _strong_probable_primes(arith, _u64(bases)).tolist()
        want = []
        for m, a in zip(ms, bases):
            d, r = m - 1, 0
            while d % 2 == 0:
                d, r = d // 2, r + 1
            want.append(not primes._mr_composite(m, a, d, r))
        assert got == want
        assert True in got and False in got


class TestFermatGate:
    def test_fermat_kernel_matches_pow(self):
        rng = random.Random(7)
        # near 2^50 the rounded float quotient is off by one in either
        # direction for a few percent of squares; residues of either sign
        m = np.array([rng.randrange(1 << 49, 1 << 50) for _ in range(2000)])
        a = np.array([rng.randrange(1 - x, x) for x in m.tolist()])
        want = [x * x % z for x, z in zip(a.tolist(), m.tolist())]
        primes.float_product(a, a, m, 1.0 / m, a, np.empty(len(m)), np.empty_like(m))
        assert (np.abs(a) < m).all()
        assert (a % m).tolist() == want
        ms = [
            rng.randrange(3, 1 << bits)
            for bits in (12, 40, 50, 51, 62, 90)
            for _ in range(300)
        ]
        ms += [(1 << 50) - 1, 1 << 50, 341, 561, 2069 * 10939, 1093**2]
        # m - 1 of every bit length up to 50, so a multiple of the 3-bit
        # window or not: 2^k + 1 and 2^k - 1, and the primes next to 2^k,
        # which must pass
        ms += [(1 << k) + s for k in range(2, 50) for s in (-1, 1)]
        ms += [int(sympy.nextprime(1 << k)) for k in range(1, 50)]
        ms += [int(sympy.prevprime(1 << k)) for k in range(2, 51)]
        column = np.array(ms, dtype=object)
        for column in (column, sieve._int_column(column[:1500])):
            got = fermat_base2(column)
            assert got.tolist() == [pow(2, x - 1, x) == 1 for x in column.tolist()]
        for column in ([], [7], [9], [2**61 - 1], [2**61 + 1]):
            got = fermat_base2(np.array(column, dtype=object))
            assert got.tolist() == [pow(2, x - 1, x) == 1 for x in column]
            got = fermat_base2(sieve._int_column(np.array(column, dtype=object)))
            assert got.tolist() == [pow(2, x - 1, x) == 1 for x in column]

    def test_fermat_kernel_base2_pseudoprimes(self):
        # every m in [3, 10^4): the odd composites that pass are the base-2
        # pseudoprimes below 10^4 (OEIS A001567)
        column = np.arange(3, 10**4)
        passed = fermat_base2(column)
        assert passed.tolist() == [pow(2, x - 1, x) == 1 for x in column.tolist()]
        pseudo = [x for x in column[passed].tolist() if not sympy.isprime(x)]
        assert pseudo == [
            341, 561, 645, 1105, 1387, 1729, 1905, 2047, 2465, 2701, 2821,
            3277, 4033, 4369, 4371, 4681, 5461, 6601, 7957, 8321, 8481, 8911,
        ]


class TestLaneMillerRabin:
    def test_matches_is_probable_prime(self):
        top = sympy.prevprime(2**63)
        root = sympy.prevprime(math.isqrt(2**63))
        values = [
            # Carmichael numbers (6k+1)(12k+1)(18k+1), k = 35, 45, 152341
            56052361,
            118901521,
            4582012596987491569,
            # strong pseudoprimes to the bases 2..7, 2..11, 2..13, 2..17
            # and 2..23
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
            top,
            sympy.prevprime(top),
            sympy.prevprime(2**62),
            root**2,
            root * sympy.prevprime(root),
        ]
        rng = random.Random(2)
        while len(values) < 1200:  # several chunks of primes._MR_CHUNK
            n = rng.randrange(53, 2**63) | 1
            if all(n % p for p in primes._TINY_PRIMES):
                values.append(n)
        got = _probable_primes(_u64(values)).tolist()
        assert got == [is_probable_prime(n) for n in values]
        assert not any(got[:8]) and all(got[8:11])


class TestGradedWitnesses:
    """Miller-Rabin runs the prefix of _MR_WITNESSES_64 that
    _MR_EXACT_BELOW proves exact for n, in the scalar test and in lanes."""

    # A014233: each is a strong pseudoprime to every witness of the prefix
    # below it, so a table that gave it one witness too few would call it
    # prime
    TERMS = sorted(set(primes._MR_EXACT_BELOW[:-1]))

    def test_terms_are_strong_pseudoprimes_to_the_shorter_prefix(self):
        for k, n in enumerate(primes._MR_EXACT_BELOW[:-1], 1):
            d, r = n - 1, 0
            while d % 2 == 0:
                d //= 2
                r += 1
            bases = primes._MR_WITNESSES_64[:k]
            assert not any(primes._mr_composite(n, a, d, r) for a in bases), n
            assert not sympy.isprime(n)

    def test_terms_are_composite(self):
        assert not any(is_probable_prime(n) for n in self.TERMS)
        assert not _probable_primes(_u64(self.TERMS)).any()

    def test_agrees_with_sympy(self):
        below = [int(sympy.prevprime(n)) for n in self.TERMS]
        rng = random.Random(7)
        odd = [rng.randrange(2**40, 2**64) | 1 for _ in range(3000)]
        odd += [rng.randrange(2**11, 2**32) | 1 for _ in range(1000)]
        for n in below + odd:
            assert is_probable_prime(n) == sympy.isprime(n), n
        lanes = [
            n
            for n in below + odd
            if n < 2**63 and all(n % p for p in primes._TINY_PRIMES)
        ]
        assert len(lanes) > 500
        got = _probable_primes(_u64(lanes)).tolist()
        assert got == [sympy.isprime(n) for n in lanes]
        assert True in got and False in got


class TestLaneBrent:
    @pytest.mark.parametrize("max_iters", [MAX_ITERS, 64])
    @pytest.mark.parametrize("lanes", [1, primes.LANES, 10**9])
    def test_same_factor_as_attempt0(self, monkeypatch, lanes, max_iters):
        # lanes = 1: every walk runs in lanes to its end; primes.LANES: the
        # last walks finish in _brent_walks; 10^9: every walk does
        monkeypatch.setattr(primes, "LANES", lanes)
        ns = _composites(510, seed=3) + G_EQ_N
        got = _brent_lanes(_u64(ns), _draws(ns), max_iters).tolist()
        assert got == [_attempt0(n, 0, max_iters) for n in ns]
        if max_iters == 64:
            assert 0 < got.count(0) < len(ns)

    def test_g_eq_n_lanes_backtrack(self, monkeypatch):
        # with LANES = 1 the walks on G_EQ_N end in lanes, at g == n: each
        # backtracks from its chunk's first y, and none walks again from y0
        monkeypatch.setattr(primes, "LANES", 1)
        walks = _spy(monkeypatch, "_brent_walks")
        backtracks = _spy(monkeypatch, "_backtrack")
        draws = _spy(monkeypatch, "_rho_rng")
        got = _brent_lanes(_u64(G_EQ_N), _draws(G_EQ_N), MAX_ITERS).tolist()
        want = [_attempt0(n, 0, MAX_ITERS) for n in G_EQ_N]
        assert got == want and 0 not in want
        # from the same (n, c, x, y) as the scalar walk's backtrack
        assert [n for n, *_ in backtracks] == G_EQ_N
        _brent_walks([_start(n) for n in G_EQ_N], 1, 0, 0, MAX_ITERS)
        assert backtracks[len(G_EQ_N) :] == backtracks[: len(G_EQ_N)]
        owner, q = factorize_lanes(np.array(G_EQ_N, np.int64), 0)
        assert _factor_lists(owner, q, len(G_EQ_N)) == list(map(_factorint, G_EQ_N))
        assert draws == [(n, 0, 0) for n in G_EQ_N]
        assert all(state == [] for state, *_ in walks)

    @pytest.mark.parametrize("lanes", [1, primes.LANES])
    def test_retry_after_give_up(self, monkeypatch, lanes):
        # semiprimes of two primes near 2^11 on which attempt 0 gives up
        # within 64 steps and attempt 1 splits
        rng = random.Random(8)
        ms = []
        while len(ms) < 6:
            m = sympy.nextprime(rng.randrange(1500, 2500)) * sympy.nextprime(
                rng.randrange(1500, 2500)
            )
            if _attempt0(m, 0, 64) == 0 and _attempt0(m, 0, 64, 1):
                ms.append(m)
        monkeypatch.setattr(primes, "LANES", lanes)
        monkeypatch.setattr(primes, "RHO_MAX_ITERS", 64)
        draws = _spy(monkeypatch, "_rho_rng")
        owner, q = factorize_lanes(np.array(ms, np.int64), 0)
        assert _factor_lists(owner, q, len(ms)) == list(map(_factorint, ms))
        assert sorted(draws) == sorted((m, 0, a) for m in ms for a in (0, 1))
        # one attempt only: rho gives up on each m, and the error names
        # the least owner of a part given up on
        monkeypatch.setattr(primes, "RHO_ATTEMPTS", 1)
        batch = [3 * 1_000_003, *ms[::-1]]
        with pytest.raises(FactorTimeout, match=f"^rho gave up on {ms[-1]}$") as info:
            factorize_lanes(np.array(batch, np.int64), 0)
        assert info.value.owner == 1
        # the pass names n and the cofactor of that owner
        n = np.arange(7, 7 + len(batch))
        error = f"^f at N=99: n=8, cofactor {ms[-1]}: rho gave up on {ms[-1]}$"
        with pytest.raises(FactorTimeout, match=error):
            sieve._large_hits("f", 99, 1, np.array(batch, np.int64), n[0], 0)

    def test_handoff_state_is_the_scalar_walks(self, monkeypatch):
        calls = _spy(monkeypatch, "_brent_walks")
        ns = _composites(510, seed=3)
        _brent_lanes(_u64(ns), _draws(ns), MAX_ITERS)
        assert len(calls) == 1
        (walks, r, k, iters, _), = calls
        assert 0 < len(walks) < primes.LANES and k % 128 == 0 < k < r
        for n, c, x, y, q in walks:
            assert (c, x, y, q, iters) == _scalar_state(n, 0, r, k)

    @pytest.mark.parametrize("lanes", [1, primes.LANES])
    def test_batch_matches_factorize(self, monkeypatch, lanes):
        monkeypatch.setattr(primes, "LANES", lanes)
        rng = random.Random(4)
        ms = _composites(510, seed=5) + G_EQ_N
        ms += [sympy.nextprime(rng.randrange(2**40, 2**62)) for _ in range(100)]
        # primes of primes._TINY_PRIMES, 2 among them
        ms += [3 * 5 * 47 * 1_000_003, 3**4 * 7 * 11, 9, 37, 47, 3 * 2**61 + 1]
        ms += [2 * 3 * 1_000_003, 2**40 * 5, 2 * (2**61 - 1)]
        owner, q = factorize_lanes(np.array(ms, np.int64), 0)
        assert q.dtype == np.int64
        assert _factor_lists(owner, q, len(ms)) == list(map(_factorint, ms))
        # an object batch: products of two composites above, each product
        # above 2^63 and its parts below it, times 2 for some; a prime
        # square near 2^70; a prime near 2^64
        big = [a * b for a, b in zip(ms[0:90:3], ms[1:90:3])]
        big += [2 * m for m in big[:5]]
        big += [sympy.nextprime(2**35) ** 2, sympy.nextprime(2**64)]
        assert min(big) >= 2**63
        owner, q = factorize_lanes(np.array(big, dtype=object), 0)
        assert q.dtype == object
        assert _factor_lists(owner, q, len(big)) == list(map(_factorint, big))

    def test_ledger_rows_add_up_lanes_and_scalar(self, monkeypatch):
        # c = p * m for a prime p of m in G_EQ_N: a lane splits off p, its
        # walk on m ends at g == n and backtracks to p again; the pass
        # never calls factor_cofactor
        monkeypatch.setattr(primes, "LANES", 1)
        monkeypatch.setattr(sieve, "factor_cofactor", _not_called)
        cs = [p * m for m in G_EQ_N for p, _ in factorize(m)]
        n = np.arange(1, len(cs) + 1)
        hits = sieve._large_hits("f", len(cs), 1, np.array(cs, np.int64), n[0], 0)
        rows = _grouped_rows(hits)
        assert rows == [(i, p, k) for i, c in zip(n, cs) for p, k in factorize(c)]

    def test_small_batch_with_even_cofactors(self, monkeypatch):
        # fewer than primes.LANES cofactors: factorize_lanes divides out 2 and
        # the other tiny primes, and tests the parts in lanes all the same
        monkeypatch.setattr(sieve, "factor_cofactor", _not_called)
        cs = [2**3 * 1_000_003 * 1_000_033, 2 * G_EQ_N[0], 1_000_003**2, *G_EQ_N]
        n = np.arange(7, 7 + len(cs))
        hits = sieve._large_hits("f", 99, 1, np.array(cs, np.int64), n[0], 0)
        rows = _grouped_rows(hits)
        assert rows == [(i, p, k) for i, c in zip(n, cs) for p, k in factorize(c)]


def _spy(monkeypatch, name):
    """The list of the argument tuples of every later call of primes.name."""
    calls = []
    real = getattr(primes, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(primes, name, spy)
    return calls


def _not_called(*args, **kwargs):
    raise AssertionError("factor_cofactor called")


def _factorint(m):
    """sympy's factorization of m as a sorted list of (prime, exponent)."""
    return sorted(sympy.factorint(m).items())


def _factor_lists(owner, q, count):
    """The sorted (prime, exponent) list of each owner 0..count - 1 from
    factorize_lanes' (owner, prime) rows."""
    counts = [collections.Counter() for _ in range(count)]
    for i, p in zip(owner.tolist(), q.tolist()):
        counts[i][p] += 1
    return [sorted(c.items()) for c in counts]


# rho attempt 0 with seed 0 also ends at g == n on these, in the rounds
# that end at 63 and 127 steps, and stepping on from the chunk's end
# instead of its start would find the other prime
G_EQ_N_AT_END = [30606391, 17135077]
# odd composites with every prime factor above 47, the g == n ones among them
POOL = _composites(24, seed=6) + G_EQ_N + G_EQ_N_AT_END


def _start(n):
    """The walk (n, c, x, y, q) of rho attempt 0 on n, before its rounds."""
    c, x, y, q, _ = _scalar_state(n, 0, 1, 0)
    return n, c, x, y, q


def _values(i, n):
    """The c, x, y and q of walk i on n in the pack tests."""
    return [(i + j) % n for j in range(1, 5)]


def _packed(ns):
    """_merge's packs of the walks on ns, each walk a pack of one."""
    return _merge([[i], n, *_values(i, n)] for i, n in enumerate(ns))


def _check_packs(packs, ns, walks=None):
    """Every walk (all of ns by default) is in one pack of at most PACK,
    whose moduli are pairwise coprime and whose values reduce to the
    walk's."""
    walks = range(len(ns)) if walks is None else walks
    assert sorted(i for lanes, *_ in packs for i in lanes) == list(walks)
    for lanes, M, *values in packs:
        assert 0 < len(lanes) <= primes.PACK
        assert M == math.prod(ns[i] for i in lanes) == math.lcm(*(ns[i] for i in lanes))
        for i in lanes:
            assert [v % ns[i] for v in values] == _values(i, ns[i])


class TestPackWalk:
    @given(
        st.lists(st.sampled_from(POOL), min_size=1, max_size=primes.PACK),
        st.sampled_from([MAX_ITERS, 2047, 64]),
    )
    @example(G_EQ_N + G_EQ_N_AT_END, MAX_ITERS)
    @example(POOL[: primes.PACK], 64)
    @example([G_EQ_N[0]] * 3 + POOL[:2], MAX_ITERS)
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_each_walk_is_attempt0(self, ns, max_iters):
        got = _brent_walks([_start(n) for n in ns], 1, 0, 0, max_iters)
        want = [_attempt0(n, 0, max_iters) for n in ns]
        assert [g or 0 for g in got] == want

    def test_backtrack_and_budget(self):
        # the g == n walks backtrack alone; a walk whose round ends at
        # exactly max_iters steps keeps its factor
        ns = POOL[:4] + G_EQ_N + G_EQ_N_AT_END
        sizes = [len(lanes) for lanes, *_ in _packed(ns)]
        assert max(sizes) == primes.PACK and len(sizes) > 1
        want = {}
        for max_iters in (MAX_ITERS, 127, 63):
            want[max_iters] = [_attempt0(n, 0, max_iters) for n in ns]
            got = _brent_walks([_start(n) for n in ns], 1, 0, 0, max_iters)
            assert [g or 0 for g in got] == want[max_iters]
        assert 0 not in want[MAX_ITERS]
        assert want[127][-2:] == want[MAX_ITERS][-2:] and want[63][-2:] == [7559, 0]

    def test_moduli_sharing_a_prime_never_share_a_pack(self):
        p, q, r = 1_000_003, 1_000_033, 1_000_037
        ns = [p * q, *POOL[:3], p * q, p * r, *G_EQ_N, q * r, p * q, p * p, p * q * r]
        packs = _packed(ns)
        _check_packs(packs, ns)
        # the six moduli divisible by p, three of them equal: one pack each
        with_p = [j for j, (lanes, *_) in enumerate(packs) for i in lanes if ns[i] % p == 0]
        assert len(with_p) == len(set(with_p)) == 6
        got = _brent_walks([_start(n) for n in ns], 1, 0, 0, MAX_ITERS)
        assert [g or 0 for g in got] == [_attempt0(n, 0, MAX_ITERS) for n in ns]

    @given(st.lists(st.integers(2, 3000), max_size=40))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_merge_is_first_fit(self, ns):
        packs = _packed(ns)
        _check_packs(packs, ns)
        for j, (lanes, *_) in enumerate(packs):
            # no earlier pack had room for its first walk
            for before, *_ in packs[:j]:
                head = [i for i in before if i < lanes[0]]
                assert len(head) == primes.PACK or any(
                    math.gcd(ns[i], ns[lanes[0]]) > 1 for i in head
                )
        # the packs that walks 0, 3, 6, ... leave merge again
        left = []
        for lanes, M, *values in packs:
            if stay := [i for i in lanes if i % 3]:
                M = math.prod(ns[i] for i in stay)
                left.append([stay, M, *(v % M for v in values)])
        merged = _merge(left)
        assert len(merged) <= len(left)
        _check_packs(merged, ns, [i for i in range(len(ns)) if i % 3])


def _grouped_rows(hits):
    """(n, q, e) rows, sorted, of the (q, n) hit rows ``hits``: one row per
    (q, n), e its number of hit rows."""
    q, n = hits
    counts = collections.Counter(zip(n.tolist(), q.tolist()))
    return sorted((n, q, e) for (n, q), e in counts.items())
