"""Prime generation, primality certification, and Pollard rho factorization.

All randomness is drawn from explicitly seeded ``random.Random`` instances so
every run is reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter


class FactorTimeout(RuntimeError):
    """Pollard rho exhausted its iteration budget without finding a factor."""


_SEGMENT_SPAN = 1 << 22  # numbers per sieve segment

# Deterministic Miller-Rabin witness set, valid for all n < 2^64.
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def sieve_primes(limit):
    """All primes <= limit as a list."""
    return list(iter_primes(limit))


def iter_primes(limit):
    """Yield the primes <= limit in order: a segmented sieve of
    Eratosthenes over [2, limit] with the base primes <= sqrt(limit)."""
    base = _simple_sieve(math.isqrt(limit)) if limit >= 2 else []
    lo = 2
    while lo <= limit:
        hi = min(lo + _SEGMENT_SPAN, limit + 1)
        seg = bytearray([1]) * (hi - lo)
        for p in base:
            if p * p >= hi:
                break
            # the first multiple of p in the segment that is >= p^2; the
            # count below is 0 when it lies past the segment
            start = max(p * p, -(-lo // p) * p)
            seg[start - lo :: p] = bytes((hi - 1 - start) // p + 1)
        yield from itertools.compress(range(lo, hi), seg)
        lo = hi


def _simple_sieve(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes((limit - p * p) // p + 1)
    return list(itertools.compress(range(limit + 1), sieve))


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
    """Primality test: deterministic MR below 2^64, BPSW plus seeded random
    MR witnesses above."""
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
        return not any(_mr_composite(n, a, d, r) for a in _MR_WITNESSES_64)
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
    m = 128
    g = r = q = 1
    x = ys = y
    iters = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        iters += r
        r *= 2
        if iters > max_iters:
            return None
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else None


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
            rng = random.Random((seed << 8) ^ (m & 0xFFFFFFFFFFFF) ^ attempt)
            d = _pollard_brent(m, rng, max_iters)
            if d is not None:
                break
        if d is None:
            raise FactorTimeout(f"rho gave up on {m}")
        stack.append(d)
        stack.append(m // d)
    return sorted(counts.items())
