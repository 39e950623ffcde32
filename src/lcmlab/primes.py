"""Prime generation, primality certification, and Pollard rho factorization.

All randomness is drawn from explicitly seeded ``random.Random`` instances so
every run is reproducible.

``factorize_lanes`` runs factorize's steps on a column of int64
cofactors at once: Miller-Rabin and the first attempt of Brent's rho, each
lane walking exactly as the scalar code does, on Montgomery products of
32-bit limbs in uint64 arrays. The last walks, and whatever the lanes give
up on, finish in the scalar code.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np


class FactorTimeout(RuntimeError):
    """Pollard rho exhausted its iteration budget without finding a factor."""


_SEGMENT_SPAN = 1 << 22  # numbers per sieve segment

# Deterministic Miller-Rabin witness set, valid for all n < 2^64.
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least odd composite that is a strong probable prime to the first k
# witnesses, k = 1..12 (OEIS A014233; Jaeschke 1993): below entry k - 1
# the first k witnesses decide. The last exceeds 2^64.
_MR_EXACT_BELOW = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
)

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def sieve_primes(limit):
    """All primes <= limit as a list."""
    return [p for block in prime_blocks(limit, _SEGMENT_SPAN) for p in block.tolist()]


def prime_blocks(limit, size):
    """The primes <= limit in order, as int64 arrays of ``size`` primes,
    the last one shorter: a segmented sieve of Eratosthenes over
    [2, limit] with the base primes <= sqrt(limit), sieved the same way."""
    base = sieve_primes(math.isqrt(limit)) if limit >= 4 else []
    rest = np.zeros(0, np.int64)
    for lo in range(2, limit + 1, _SEGMENT_SPAN):
        hi = min(lo + _SEGMENT_SPAN, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base:
            if p * p >= hi:
                break
            # the first multiple of p in the segment that is >= p^2
            seg[max(p * p, -(-lo // p) * p) - lo :: p] = False
        rest = np.concatenate((rest, np.flatnonzero(seg) + lo))
        full = len(rest) - len(rest) % size
        for at in range(0, full, size):
            yield rest[at : at + size]
        rest = rest[full:]
    if len(rest):
        yield rest


def _mr_composite(n, a, d, r):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a, n):
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test with Selfridge parameters."""
    if n % 2 == 0 or math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Lucas sequence by binary ladder: U, V at index d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (V + D * U) % n
            if U % 2:
                U += n
            if V % 2:
                V += n
            U, V = U // 2 % n, V // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_probable_prime(n, seed=0):
    """Primality test: deterministic MR below 2^64, with the prefix of
    _MR_WITNESSES_64 that _MR_EXACT_BELOW proves exact for n; BPSW plus
    seeded random MR witnesses above."""
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 1 << 64:
        k = bisect.bisect_right(_MR_EXACT_BELOW, n) + 1
        return not any(_mr_composite(n, a, d, r) for a in _MR_WITNESSES_64[:k])
    if _mr_composite(n, 2, d, r) or not _strong_lucas(n):
        return False
    rng = random.Random(seed ^ (n & 0xFFFFFFFF))
    return not any(
        _mr_composite(n, rng.randrange(2, n - 1), d, r) for _ in range(8)
    )


def _pollard_brent(n, rng, max_iters):
    """Brent-variant rho. Returns a nontrivial factor of composite n, or
    None if the iteration budget runs out."""
    if n % 2 == 0:
        return 2
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    return _brent_walk(n, c, y, (y * y + c) % n, 1, 1, 0, 0, max_iters)


def _brent_walk(n, c, x, y, q, r, k, iters, max_iters):
    """Brent's rho on y -> y^2 + c mod n from the state after k steps of
    the second half of round r: x is the round's fixed point, y the walk,
    q the product of x - y over the steps so far, and the rounds before r
    took ``iters`` steps. The first half of a round moves y r steps; the
    second half moves it r more, multiplying q by x - y at each, and takes
    gcd(q, n) every 128 steps. The lanes hand their walks over here."""
    m = 128
    g = 1
    while True:
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += m
        iters += r
        r *= 2
        if iters > max_iters:
            return None
        if g != 1:
            break
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
            if g > 1:
                break
    return g if g != n else None


def _rho_rng(m, seed, attempt):
    """The rng of rho's attempt ``attempt`` on m."""
    return random.Random((seed << 8) ^ (m & 0xFFFFFFFFFFFF) ^ attempt)


def factorize(n, seed=0, max_iters=1 << 20, attempts=8):
    """Full factorization of n > 1 as a sorted list of (prime, exponent).

    Raises FactorTimeout if rho fails ``attempts`` times on some cofactor.
    """
    if n <= 1:
        raise ValueError("factorize needs n > 1")
    counts = Counter()
    for p in _TINY_PRIMES:
        while n % p == 0:
            counts[p] += 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m, seed=seed):
            counts[m] += 1
            continue
        d = None
        for attempt in range(attempts):
            d = _pollard_brent(m, _rho_rng(m, seed, attempt), max_iters)
            if d is not None:
                break
        if d is None:
            raise FactorTimeout(f"rho gave up on {m}")
        stack.append(d)
        stack.append(m // d)
    return sorted(counts.items())


# Fewer walks than this finish in scalar Python, and a round of
# factorize_lanes with fewer parts leaves them all to the scalar code. One
# lockstep step costs about 26 us (first half of a round) or 48 us (second
# half) of numpy calls plus 0.05 us a lane, one scalar step 0.32 or
# 0.69 us: the crossover is 70-80 walks. On the 2,174 composites of
# x^5-x+1 at N = 6000 (2-vCPU VM), every cut-over from 64 to 192 walks
# took 1.8-2.2 s, within the run-to-run spread.
LANES = 128

# 0-d arrays, not numpy scalars: cheaper operands, and the wrapping stays
# on arrays
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_32 = np.array(32, dtype=np.uint64)
_1 = np.array(1, dtype=np.uint64)
# Values per Miller-Rabin call. On the 5,185 cofactors of x^5-x+1 at
# N = 6000, 256 held 0.6 MB at its peak and ran fastest; 128, 512 and 1024
# ran 5-60% slower, and 1024 held 2.2 MB.
_MR_CHUNK = 256


def _limbs(a):
    return a & _LOW32, a >> _32


def _mulhi(a, b):
    """The high 64 bits of a * b for uint64 arrays, b given as _limbs(b).
    The middle sum is at most (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64."""
    (a0, a1), (b0, b1) = _limbs(a), b
    lo, mid1, mid2 = a0 * b0, a0 * b1, a1 * b0
    mid = mid2 + (mid1 & _LOW32) + (lo >> _32)
    return a1 * b1 + (mid1 >> _32) + (mid >> _32)


def _sqhi(a):
    """The high 64 bits of a * a for a uint64 array below 2^63: with
    a1 < 2^31, 2 a0 a1 + (a0^2 >> 32) < 2^64."""
    a0, a1 = _limbs(a)
    mid = ((a0 * a1) << _1) + ((a0 * a0) >> _32)
    return a1 * a1 + (mid >> _32)


@dataclass(frozen=True, eq=False)
class _Montgomery:
    """Montgomery arithmetic (Montgomery 1985) with R = 2^64 modulo a uint64
    column n of odd moduli below 2^63, one lane each. Products of uint64
    arrays wrap mod 2^64, which is exact, and no float is used."""

    n: np.ndarray
    n_limbs: tuple
    inv: np.ndarray  # n^-1 mod 2^64

    @classmethod
    def of(cls, n):
        inv = n.copy()  # n * n = 1 mod 8; each Newton step doubles the bits
        for _ in range(5):
            inv *= 2 - n * inv
        return cls(n, _limbs(n), inv)

    def _redc(self, hi, lo):
        """(hi * R + lo) / R mod n for hi * R + lo < n * R. With
        m = lo / n mod R, m * n has the low word lo, so the high words
        differ by the result, in (-n, n)."""
        t = hi - _mulhi(lo * self.inv, self.n_limbs)
        return np.minimum(t, t + self.n)

    def mul(self, a, b):
        """a * b / R mod n for a * b < n * R; a and b may hold rows of
        lanes."""
        return self._redc(_mulhi(a, _limbs(b)), a * b)

    def square(self, a):
        """a * a / R mod n for a < n."""
        return self._redc(_sqhi(a), a * a)

    def to_form(self, a):
        """a * R mod n for each lane."""
        r = np.full_like(self.n, 0xFFFFFFFFFFFFFFFF) % self.n + 1
        for _ in range(64):  # R mod n doubled 64 times: R^2 mod n
            r += r
            r = np.minimum(r, r - self.n)
        return self.mul(a, r)

    def from_form(self, a):
        return self.mul(a, np.ones_like(a))


def _probable_primes(n):
    """Whether each n of a uint64 column is prime, by is_probable_prime's
    Miller-Rabin in lanes. Every n is odd, below 2^63, and has no prime
    factor in _TINY_PRIMES.

    Base 2 runs on every n of a chunk first. The n that pass it need the
    next k - 1 witnesses of the prefix _MR_EXACT_BELOW gives them; all
    those (n, base) pairs are one lane call, and an n is prime when every
    one of its pairs passes."""
    prime = np.zeros(len(n), dtype=bool)
    bounds = np.array(_MR_EXACT_BELOW[:-1], dtype=np.uint64)
    witnesses = np.array(_MR_WITNESSES_64, dtype=np.uint64)
    for lo in range(0, len(n), _MR_CHUNK):
        part = n[lo : lo + _MR_CHUNK]
        passed = _strong_probable_primes(part, np.full_like(part, 2))
        rest = np.flatnonzero(passed)
        more = np.searchsorted(bounds, part[rest], side="right")
        # pair j of n = part[rest[i]] tests base witnesses[1 + j], j < more[i]
        i = np.repeat(np.arange(len(rest)), more)
        j = np.arange(len(i)) - np.repeat(np.cumsum(more) - more, more)
        ok = _strong_probable_primes(part[rest[i]], witnesses[1 + j])
        passed[rest] = np.bincount(i, weights=ok, minlength=len(rest)) == more
        prime[lo : lo + _MR_CHUNK] = passed
    return prime


def _strong_probable_primes(n, base):
    """Whether each n is a strong probable prime to its base, for uint64
    columns n and base of one length."""
    mont = _Montgomery.of(n)
    d, s = n - 1, np.zeros(len(n), dtype=np.int64)
    while (even := (d & _1) == 0).any():
        d[even] >>= _1
        s += even
    # base^d by square-and-multiply from the low bit: [acc, base] times
    # [base, base] is one product on two rows of lanes
    acc = mont.to_form(np.stack((np.ones_like(n), base)))
    one = acc[0].copy()
    minus_one = n - one
    for bit in range(int(d.max(initial=0)).bit_length()):
        prod = mont.mul(acc, acc[1])
        np.copyto(acc[0], prod[0], where=(d >> np.array(bit, np.uint64)) & _1 == 1)
        acc[1] = prod[1]
    x = acc[0]
    passed = (x == one) | (x == minus_one)
    for i in range(1, int(s.max(initial=0))):
        x = mont.square(x)
        passed |= (x == minus_one) & (i < s)
    return passed


def _brent_lanes(n, seed, max_iters):
    """factorize's rho attempt 0 on each n of a uint64 column of odd
    composites below 2^63: the same y0 and c from _rho_rng and the same
    walk, rounds and gcds as _brent_walk, in lockstep lanes.

    Returns the factor of each n, or 0 where attempt 0 gives up, or where
    a lane ends at g == n, which needs the scalar backtrack. A lane stops
    at the gcd that finds its factor, and once fewer than LANES lanes go
    on, each hands its state to _brent_walk, which finishes the same walk.
    """
    factor = np.zeros_like(n)
    draws = []
    for m in n.tolist():
        rng = _rho_rng(m, seed, 0)
        draws.append((rng.randrange(1, m), rng.randrange(1, m)))
    live = np.arange(len(n))
    mont = _Montgomery.of(n)
    x, c = mont.to_form(np.array(draws, dtype=np.uint64).reshape(-1, 2).T)

    def step(y):
        y = mont.square(y) + c
        return np.minimum(y, y - mont.n)

    # q stays out of Montgomery form: its product with x - y in form is
    # q * (x - y) mod n. A step of the second half is one product on two
    # rows of lanes, [y, q] times [y, x - y], which squares y and
    # multiplies q by x - y for the same y, so each chunk starts with one
    # more step of y and ends with one more factor of q.
    y, q = step(x), np.ones_like(x)
    r, k, iters = 1, 0, 0
    while len(live) >= LANES:
        if k >= r:
            iters += r
            r *= 2
            if iters > max_iters:
                return factor
            x = y
            for _ in range(r):
                y = step(y)
            k = 0
        y = step(y)
        for _ in range(min(128, r - k) - 1):
            y, q = mont.mul(np.stack((y, q)), np.stack((y, x + (mont.n - y))))
            y += c
            y = np.minimum(y, y - mont.n)
        q = mont.mul(q, x + (mont.n - y))
        k += 128
        g = np.gcd(q, mont.n)
        done = g != 1
        if done.any():
            if iters + r <= max_iters:
                g[g == mont.n] = 0
                factor[live[done]] = g[done]
            keep = ~done
            live, mont = live[keep], _Montgomery.of(mont.n[keep])
            x, y, q, c = x[keep], y[keep], q[keep], c[keep]
    state = (mont.n, mont.from_form(c), mont.from_form(x), mont.from_form(y), q)
    for i, *walk in zip(live.tolist(), *(a.tolist() for a in state)):
        factor[i] = _brent_walk(*walk, r, k, iters, max_iters) or 0
    return factor


def factorize_lanes(ms, seed, max_iters):
    """Split each cofactor of the int64 column ms as factorize does, in
    lanes: the primes of _TINY_PRIMES are divided out, 2 included, so the
    Montgomery arithmetic sees odd moduli only. Then every part goes
    through Miller-Rabin (_probable_primes) and each composite through rho
    attempt 0 (_brent_lanes), and each factor found goes back through both
    steps.

    Returns two pairs of int64 columns: (owner, prime), one row for each
    prime factor found with its multiplicity, and (owner, part), the parts
    left to the scalar factorizer; owner indexes ms. A part is left when
    its attempt 0 gives up, and every part of a round with fewer than
    LANES of them is left.
    """
    owner = np.arange(len(ms))
    part = ms.astype(np.uint64)
    found = [(owner[:0], part[:0])]
    for p in _TINY_PRIMES:
        while (hit := part % np.uint64(p) == 0).any():
            found.append((owner[hit], np.full(np.count_nonzero(hit), p, np.uint64)))
            part[hit] //= np.uint64(p)
    owner, part = owner[part > 1], part[part > 1]
    rest = []
    while len(part) >= LANES:
        prime = _probable_primes(part)
        found.append((owner[prime], part[prime]))
        owner, part = owner[~prime], part[~prime]
        d = _brent_lanes(part, seed, max_iters)
        split = d > 0
        rest.append((owner[~split], part[~split]))
        owner = np.tile(owner[split], 2)
        part = np.concatenate((d[split], part[split] // d[split]))
    rest.append((owner, part))
    return tuple(
        (np.concatenate(owners), np.concatenate(parts).astype(np.int64))
        for owners, parts in (zip(*found), zip(*rest))
    )
