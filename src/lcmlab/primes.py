"""Prime generation, primality certification, and Pollard rho factorization.

All randomness is drawn from explicitly seeded ``random.Random`` instances so
every run is reproducible.

``factorize_lanes`` runs factorize's steps on a column of int64
cofactors at once: Miller-Rabin and the first attempt of Brent's rho, each
lane walking exactly as the scalar code does, on Montgomery products of
32-bit limbs written into preallocated uint64 rows. The last walks finish
in the scalar walk, in packs whose walks step together as one walk modulo
the product of their moduli (Chinese remainder theorem); whatever the
lanes give up on goes to factorize.
"""

from __future__ import annotations

import bisect
import functools
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
    return _brent_walks([(n, c, y, (y * y + c) % n, 1)], 1, 0, 0, max_iters)[0]


def _brent_walks(walks, r, k, iters, max_iters):
    """Brent's rho on y -> y^2 + c mod n for each walk (n, c, x, y, q), all
    from the state after k steps of the second half of round r: x is the
    round's fixed point, y the walk, q the product of x - y over the steps
    so far, and the rounds before r took ``iters`` steps. The first half of
    a round moves y r steps; the second half moves it r more, multiplying q
    by x - y at each, and takes gcd(q, n) every 128 steps.

    The walks step in packs (_merge), a pack as one walk Y -> Y^2 + C mod
    M, M the product of its moduli, whose Q mod n is each walk's q. After
    a chunk, a walk whose gcd is not 1 leaves its pack, and one that ends
    at g == n backtracks alone. Returns the factor of each walk, or None
    where it runs out of budget or its backtrack ends at n.
    """
    found = [None] * len(walks)
    packs = _merge([[i], *walk] for i, walk in enumerate(walks))
    while True:
        while k < r and packs:
            for pack in packs:
                lanes, M, C, X, Y, Q = pack
                YS = Y
                for _ in range(min(128, r - k)):
                    Y = (Y * Y + C) % M
                    Q = Q * (X - Y) % M
                pack[4:] = Y, Q
                for i in [i for i in lanes if math.gcd(Q, walks[i][0]) != 1]:
                    n, c = walks[i][:2]
                    if (g := math.gcd(Q, n)) == n:  # again from the chunk's start
                        g, ys = 1, YS % n
                        while g == 1:
                            ys = (ys * ys + c) % n
                            g = math.gcd(X - ys, n)
                    if g != n and iters + r <= max_iters:
                        found[i] = g
                    lanes.remove(i)
                    M //= n
                    pack[1:] = M, *(v % M for v in pack[2:])
            k += 128
            packs = _merge(pack for pack in packs if pack[0])
        if not packs:
            return found
        iters += r
        r *= 2
        if iters > max_iters:
            return found
        for pack in packs:
            _, M, C, _, Y, _ = pack
            pack[3] = Y
            for _ in range(r):
                Y = (Y * Y + C) % M
            pack[4] = Y
        k = 0


def _merge(packs):
    """First-fit packs of at most PACK walks with pairwise coprime moduli,
    from packs [walk indices, M, C, X, Y, Q] in order, a walk being a pack
    of one: two packs join by the Chinese remainder theorem."""
    merged = []
    for b in packs:
        for a in merged:
            if len(a[0]) + len(b[0]) <= PACK and math.gcd(a[1], b[1]) == 1:
                u = pow(a[1], -1, b[1])
                a[2:] = (x + a[1] * ((y - x) * u % b[1]) for x, y in zip(a[2:], b[2:]))
                a[:2] = a[0] + b[0], a[1] * b[1]
                break
        else:
            merged.append(b)
    return merged


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


# Fewer walks than this finish in packs of the scalar walk, and a round
# of factorize_lanes with fewer parts leaves them all to the scalar code.
# At 128 lanes a lockstep step costs 27-34 us (14-17 us in the first half
# of a round), a pack's 0.19-0.22 us a walk (0.08-0.09): the crossover is
# 140-190 walks. The cofactors of x^5-x+1 at N = 6000 and x^3+2 at
# N = 5000 took 1.40 s at 128, 1.49-1.52 s at 96, 192 and 256 (best of 5).
LANES = 128
# Walks per pack: the same cofactors took 1.82, 1.53, 1.47, 1.45, 1.46 and
# 1.59 s with 1, 2, 3, 4, 6 and 8 (bigint division grows quadratically).
PACK = 4

# 0-d arrays, not numpy scalars: cheaper operands, and the wrapping stays
# on arrays
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_32 = np.array(32, dtype=np.uint64)
_1 = np.array(1, dtype=np.uint64)
# Values per Miller-Rabin call. The 11,395 parts of the same batches took
# 0.31, 0.19, 0.15, 0.12 and 0.15 s with 128, 256, 512, 1024 and 2048
# (best of 5); 1024 adds nothing to the build's traced peak, 2048 0.7 MB.
_MR_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class _Montgomery:
    """Montgomery arithmetic (Montgomery 1985) with R = 2^64 modulo a uint64
    column n of odd moduli below 2^63, one lane each. Products of uint64
    arrays wrap mod 2^64, which is exact, and no float is used.

    mul takes operands below n, one row of lanes (a 1-d array) or two
    (2-d), and writes the product through ``out`` (a new array if None),
    which may be an operand; every step in between writes into scratch
    rows kept with the lanes."""

    n: np.ndarray
    n_limbs: tuple
    inv: np.ndarray  # n^-1 mod 2^64
    r2: np.ndarray  # R^2 mod n

    @classmethod
    def of(cls, n):
        inv = n.copy()  # n * n = 1 mod 8; each Newton step doubles the bits
        for _ in range(5):
            inv *= 2 - n * inv
        r2 = np.full_like(n, 0xFFFFFFFFFFFFFFFF) % n + 1
        for _ in range(64):  # R mod n doubled 64 times
            r2 += r2
            r2 = np.minimum(r2, r2 - n)
        return cls(n, (n & _LOW32, n >> _32), inv, r2)

    def take(self, i):
        """The arithmetic of the lanes i, an index, mask or slice."""
        n0, n1 = self.n_limbs
        return _Montgomery(self.n[i], (n0[i], n1[i]), self.inv[i], self.r2[i])

    @functools.cached_property
    def _scratch(self):
        """Five scratch arrays for operands of one row (ndim 1) or two."""
        rows = np.empty((5, 2, len(self.n)), dtype=np.uint64)
        return {1: tuple(rows[:, 0]), 2: tuple(rows)}

    def _redc(self, hi, lo, out, s0, s1, s2):
        """(hi * R + lo) / R mod n for hi * R + lo < n * R. With
        m = lo / n mod R, m * n has the low word lo, so the high words
        differ by the result, in (-n, n). lo and s0-s2 are scratch."""
        n0, n1 = self.n_limbs
        m = np.multiply(lo, self.inv, out=lo)
        m0 = np.bitwise_and(m, _LOW32, out=s0)
        m1 = np.right_shift(m, _32, out=s1)
        # the high word of m * n; the middle sum is at most
        # (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64
        low = np.multiply(m0, n0, out=s2)
        low >>= _32
        mid = np.multiply(m1, n0, out=lo)
        mid += low
        cross = np.multiply(m0, n1, out=s0)
        mid += np.bitwise_and(cross, _LOW32, out=s2)
        mid >>= _32
        cross >>= _32
        top = np.multiply(m1, n1, out=s1)
        top += cross
        top += mid
        np.subtract(hi, top, out=out)
        return np.minimum(out, np.add(out, self.n, out=s0), out=out)

    def mul(self, a, b, out=None):
        """a * b / R mod n; b may broadcast against a."""
        out = np.empty_like(a) if out is None else out
        a0, a1, b0, b1, hi = self._scratch[a.ndim]
        np.bitwise_and(a, _LOW32, out=a0)
        np.right_shift(a, _32, out=a1)
        np.bitwise_and(b, _LOW32, out=b0)
        np.right_shift(b, _32, out=b1)
        # the high word of a * b: with a1, b1 < 2^31 the middle sum is at
        # most (2^32 - 1) + 2 (2^32 - 1)(2^31 - 1) < 2^64
        np.multiply(a0, b0, out=hi)
        hi >>= _32
        hi += np.multiply(a0, b1, out=a0)
        hi += np.multiply(a1, b0, out=b0)
        hi >>= _32
        hi += np.multiply(a1, b1, out=a1)
        return self._redc(hi, np.multiply(a, b, out=b0), out, a0, a1, b1)

    def to_form(self, a):
        """a * R mod n for each lane."""
        return self.mul(a, self.r2)

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
        mont = _Montgomery.of(n[lo : lo + _MR_CHUNK])
        passed = _strong_probable_primes(mont, np.full_like(mont.n, 2))
        rest = np.flatnonzero(passed)
        more = np.searchsorted(bounds, mont.n[rest], side="right")
        # pair j of n = mont.n[rest[i]] tests base witnesses[1 + j], j < more[i]
        i = np.repeat(np.arange(len(rest)), more)
        j = np.arange(len(i)) - np.repeat(np.cumsum(more) - more, more)
        ok = _strong_probable_primes(mont.take(rest[i]), witnesses[1 + j])
        passed[rest] = np.bincount(i, weights=ok, minlength=len(rest)) == more
        prime[lo : lo + _MR_CHUNK] = passed
    return prime


def _strong_probable_primes(mont, base):
    """Whether each n of the lanes of ``mont`` is a strong probable prime
    to its base, for a uint64 column base of their length."""
    n = mont.n
    d, s = n - 1, np.zeros(len(n), dtype=np.int64)
    while (even := (d & _1) == 0).any():
        d[even] >>= _1
        s += even
    # base^d by square-and-multiply from the low bit: [acc, base] times
    # base is one product on two rows of lanes, and acc keeps its old
    # value where the low bit of d, shifted once a step, is 0
    acc = mont.to_form(np.stack((np.ones_like(n), base)))
    one = acc[0].copy()
    minus_one = n - one
    prod = np.empty_like(acc)
    for _ in range(int(d.max(initial=0)).bit_length()):
        mont.mul(acc, acc[1], out=prod)
        np.copyto(prod[0], acc[0], where=d & _1 == 0)
        d >>= _1
        acc, prod = prod, acc
    x = acc[0]
    passed = (x == one) | (x == minus_one)
    for i in range(1, int(s.max(initial=0))):
        mont.mul(x, x, out=x)
        passed |= (x == minus_one) & (i < s)
    return passed


def _brent_lanes(n, seed, max_iters):
    """factorize's rho attempt 0 on each n of a uint64 column of odd
    composites below 2^63: the same y0 and c from _rho_rng and the same
    walk, rounds and gcds as _brent_walks, in lockstep lanes.

    Returns the factor of each n, or 0 where attempt 0 gives up, or where
    a lane ends at g == n, which needs the scalar backtrack. A lane stops
    at the gcd that finds its factor, and once fewer than LANES lanes go
    on, their states go to _brent_walks, which finishes the same walks.
    """
    factor = np.zeros_like(n)
    draws = []
    for m in n.tolist():
        rng = _rho_rng(m, seed, 0)
        draws.append((rng.randrange(1, m), rng.randrange(1, m)))
    live = np.arange(len(n))
    mont = _Montgomery.of(n)
    # the lanes' rows, compacted together: d = x - y mod n, the walk y, q,
    # the round's fixed point x, c and scratch
    w = np.ones((6, len(n)), dtype=np.uint64)
    w[3:5] = mont.to_form(np.array(draws, dtype=np.uint64).reshape(-1, 2).T)
    d, y, q, x, c, t = w

    def step(a, b):  # a * b into a, then y + c mod n
        mont.mul(a, b, out=a)
        np.add(y, c, out=y)
        np.minimum(y, np.subtract(y, mont.n, out=t), out=y)

    def diff():
        np.subtract(x, y, out=d)
        np.minimum(d, np.add(d, mont.n, out=t), out=d)

    # q stays out of Montgomery form: its product with x - y in form is
    # q * (x - y) mod n. A step of the second half is one product on two
    # rows of lanes, [y, q] times [y, x - y], which squares y and
    # multiplies q by x - y for the same y, so each chunk starts with one
    # more step of y and ends with one more factor of q.
    np.copyto(y, x)
    step(y, y)
    r, k, iters = 1, 0, 0
    while len(live) >= LANES:
        if k >= r:
            iters += r
            r *= 2
            if iters > max_iters:
                return factor
            np.copyto(x, y)
            for _ in range(r):
                step(y, y)
            k = 0
        step(y, y)
        yq, yd = w[1:3], w[1::-1]
        for _ in range(min(128, r - k) - 1):
            diff()
            step(yq, yd)
        diff()
        mont.mul(q, d, out=q)
        k += 128
        g = np.gcd(q, mont.n)
        done = g != 1
        if done.any():
            if iters + r <= max_iters:
                g[g == mont.n] = 0
                factor[live[done]] = g[done]
            keep = ~done
            live, mont, w = live[keep], mont.take(keep), w[:, keep]
            d, y, q, x, c, t = w
    state = (mont.n, mont.from_form(c), mont.from_form(x), mont.from_form(y), q)
    walks = list(zip(*(a.tolist() for a in state)))
    factor[live] = [g or 0 for g in _brent_walks(walks, r, k, iters, max_iters)]
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
