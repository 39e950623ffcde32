"""The lockstep lanes of ``primes`` against the scalar code they vectorise."""

import collections
import math
import random

import numpy as np
import pytest
import sympy

from lcmlab import primes, sieve
from lcmlab.primes import (
    _brent_lanes,
    _Montgomery,
    _pollard_brent,
    _probable_primes,
    factorize,
    factorize_lanes,
    is_probable_prime,
)

R = 1 << 64
MAX_ITERS = sieve.RHO_MAX_ITERS
# rho attempt 0 with seed 0 ends at g == n on these semiprimes
G_EQ_N = [17447279, 2521303]


def _u64(values):
    return np.array(values, dtype=np.uint64)


def _attempt0(n, seed, max_iters):
    rng = random.Random((seed << 8) ^ (n & 0xFFFFFFFFFFFF))
    return _pollard_brent(n, rng, max_iters) or 0


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
    second half of round r_at, stepped as _brent_walk steps."""
    rng = random.Random((seed << 8) ^ (n & 0xFFFFFFFFFFFF))
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
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
            got = mont.square(_u64(a)).tolist()
            assert got == [x * x * i % m for x, i, m in zip(a, inv, ms)]
            form = mont.to_form(_u64(a))
            assert form.tolist() == [x * R % m for x, m in zip(a, ms)]
            assert mont.from_form(form).tolist() == a


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
        # last walks finish in _brent_walk; 10^9: every walk does
        monkeypatch.setattr(primes, "LANES", lanes)
        ns = _composites(510, seed=3) + G_EQ_N
        got = _brent_lanes(_u64(ns), 0, max_iters).tolist()
        want = [_attempt0(n, 0, max_iters) for n in ns]
        assert all(g in (w, 0) for g, w in zip(got, want))
        # a lane that ends at g == n gives 0; the scalar walk backtracks
        left = [n for n, g, w in zip(ns, got, want) if g != w]
        if lanes == 10**9:
            assert left == []
        elif lanes == 1 and max_iters == MAX_ITERS:
            assert set(G_EQ_N) <= set(left)
        if max_iters == 64:
            assert 0 < want.count(0) < len(ns)

    def test_handoff_state_is_the_scalar_walks(self, monkeypatch):
        handed = []
        walk = primes._brent_walk

        def spy(*state):
            handed.append(state)
            return walk(*state)

        monkeypatch.setattr(primes, "_brent_walk", spy)
        ns = _composites(510, seed=3)
        _brent_lanes(_u64(ns), 0, MAX_ITERS)
        assert 0 < len(handed) < primes.LANES
        assert any(k % 128 == 0 < k < r for *_, r, k, _, _ in handed)
        for n, c, x, y, q, r, k, iters, _ in handed:
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
        (owner, q), (left, rest) = factorize_lanes(np.array(ms, np.int64), 0, MAX_ITERS)
        counts = collections.Counter(zip(owner.tolist(), q.tolist()))
        for i, m in zip(left.tolist(), rest.tolist()):
            for p, e in factorize(m):
                counts[i, p] += e
        got = collections.defaultdict(list)
        for (i, p), e in sorted(counts.items()):
            got[i].append((p, e))
        assert [got[i] for i in range(len(ms))] == [factorize(m) for m in ms]
        if lanes == 1:  # every part runs in lanes: only rho failures are left
            assert not any(map(is_probable_prime, rest.tolist()))

    def test_ledger_rows_add_up_lanes_and_scalar(self, monkeypatch):
        # c = p * m for a prime p of m in G_EQ_N: a lane splits off p, its
        # walk on m ends at g == n, and factor_cofactor(m) finds p again
        monkeypatch.setattr(primes, "LANES", 1)
        cs = [p * m for m in G_EQ_N for p, _ in factorize(m)]
        n = np.arange(1, len(cs) + 1)
        hits = sieve._factor_large("f", len(cs), n, np.array(cs, np.int64), 0)
        rows = _grouped_rows(hits)
        assert rows == [(i, p, k) for i, c in zip(n, cs) for p, k in factorize(c)]

    def test_small_batch_with_even_cofactors(self):
        # fewer than primes.LANES cofactors: the lanes divide out 2 and the
        # other tiny primes, and leave every part to factor_cofactor
        cs = [2**3 * 1_000_003 * 1_000_033, 2 * G_EQ_N[0], 1_000_003**2, *G_EQ_N]
        n = np.arange(7, 7 + len(cs))
        hits = sieve._factor_large("f", 99, n, np.array(cs, np.int64), 0)
        rows = _grouped_rows(hits)
        assert rows == [(i, p, k) for i, c in zip(n, cs) for p, k in factorize(c)]


def _grouped_rows(hits):
    """(n, q, e) rows, sorted, of the (q, n, e) hit columns ``hits`` as
    sieve._group_hits groups them: one row per (q, n)."""
    p, _, table = sieve._group_hits(*hits)
    return sorted(
        (n, q, e) for i, q in enumerate(p.tolist()) for n, e in table.row(i).tolist()
    )
