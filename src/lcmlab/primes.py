"""Prime generation, primality certification, Pollard rho factorization,
and the package's integer column arithmetic.

All randomness is drawn from explicitly seeded ``random.Random`` instances so
every run is reproducible.

``pow_mod`` is the one exponent ladder for a column of bases, under a
product passed in; the ledger's Fermat gate, ``fermat_base2``, squares
in place on ``float_product``, the lanes' product below 2^50.

``factorize_lanes`` is the one factorizer: it splits a column of cofactors
in rounds, each on every part left. Miller-Rabin and Brent's rho run in
lanes on the parts below 2^63, with products written into preallocated
uint64 rows: a batch whose moduli are all below 2^50 takes the
float-quotient product, and only a batch that reaches [2^50, 2^63) takes
Montgomery products of 32-bit limbs. The last walks, and the walks on
larger parts, finish in the scalar walk, in packs whose walks step
together as one walk modulo the product of their moduli (Chinese
remainder theorem). ``factorize`` is its call on one value.
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
    """Pollard rho exhausted its budget on a part of the cofactor with
    index ``owner`` in the batch, without finding a factor."""

    def __init__(self, message, owner=0):
        super().__init__(message)
        self.owner = owner


_SEGMENT_SPAN = 1 << 22  # numbers per sieve segment
INT64_LIMIT = 1 << 63  # integer columns below this are int64 or uint64 lanes
FLOAT_PRODUCT_LIMIT = 1 << 50  # float_product is exact for moduli below

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
    at g == n backtracks alone (_backtrack). Returns the factor of each
    walk, or None where it runs out of budget or its backtrack ends at n.
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
                    if (g := math.gcd(Q, n)) == n:
                        g = _backtrack(n, c, X % n, YS % n)
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


def _backtrack(n, c, x, y):
    """gcd(x - y, n) after the first step y -> y^2 + c mod n from y at
    which it is not 1: a walk whose chunk from y ended at gcd(q, n) == n,
    walked again one step at a time. The result may be n."""
    g = 1
    while g == 1:
        y = (y * y + c) % n
        g = math.gcd(x - y, n)
    return g


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


def factorize(n, seed=0):
    """Full factorization of n > 1 as a sorted list of (prime, exponent):
    factorize_lanes on the one value n.

    Raises FactorTimeout if rho gives up on some part of n.
    """
    if n <= 1:
        raise ValueError("factorize needs n > 1")
    _, q = factorize_lanes(np.array([n], dtype=object), seed)
    return sorted(Counter(q.tolist()).items())


# Fewer walks than this finish in packs of the scalar walk; Miller-Rabin
# has no such threshold, and runs in lanes on every part below 2^63. A
# lockstep step costs about as much for a few live lanes as for many, and
# a pack's step a share per walk, so the crossover is a count of walks.
# The cofactors of x^3+2 at N = 5000 (1,280, in float-quotient lanes) and
# of x^5-x+1 at N = 6000 (5,185, in Montgomery lanes) took 17.3 / 1,181,
# 17.2 / 1,172, 18.0 / 1,084, 18.0 / 1,144 and 22.1 / 1,188 ms at 64, 96,
# 128, 192 and 256 (best of 5, interleaved, on a 2-vCPU Xeon VM).
LANES = 128
# Walks per pack: the same cofactors took 24.4 / 1,409, 19.8 / 1,165,
# 18.5 / 1,167, 18.2 / 1,106, 18.9 / 1,142 and 18.6 / 1,190 ms with 1, 2,
# 3, 4, 6 and 8 (bigint division grows quadratically).
PACK = 4
# Rho's budget: steps per attempt, and attempts, each from new draws of
# _rho_rng, before factorize_lanes gives up on a part
RHO_MAX_ITERS = 1 << 20
RHO_ATTEMPTS = 8

# 0-d arrays, not numpy scalars: cheaper operands, and the wrapping stays
# on arrays
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_32 = np.array(32, dtype=np.uint64)
_1 = np.array(1, dtype=np.uint64)
# Values per Miller-Rabin call. The 1,716 and 9,753 parts that Miller-
# Rabin sees in the same batches took 9.4 / 115, 7.2 / 74, 6.0 / 64,
# 4.7 / 53 and 4.8 / 53 ms with 256, 512, 1024, 2048 and 4096 (best of 5,
# interleaved). 2048 would add 0.01 and 0.49 MiB to the builds' traced
# peaks of 1.06 and 2.29 MiB.
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


def pow_mod(a, e, mul, one):
    """a_i^e_i for each lane of the column a and the exponent column e
    (int64, uint64 or Python ints) under ``mul(x, y, out)``, which writes
    x * y into ``out``, an operand or not, in a's form; ``one`` is 1 in it.

    Left to right over 2-bit windows of e (Knuth, TAOCP vol. 2, 4.6.3), in
    lockstep: a_i^w_i for the top digit w_i from a table of a^0 .. a^3, then
    per window two squarings and one product from the table: three
    products per two bits, where square-and-multiply takes four."""
    table = np.empty((4, len(a)), dtype=a.dtype)
    table[0], table[1] = one, a
    mul(a, a, out=table[2])
    mul(table[2], a, out=table[3])
    col = np.arange(len(a))
    top = max(int(e.max(initial=0)).bit_length() - 1 & ~1, 0)
    acc = table[(e >> top & 3).astype(np.int64), col]
    for shift in range(top - 2, -1, -2):
        mul(acc, acc, out=acc)
        mul(acc, acc, out=acc)
        mul(acc, table[(e >> shift & 3).astype(np.int64), col], out=acc)
    return acc


def float_product(a, b, m, inv, out, qf, q):
    """a * b - rint(a * b * inv) * m into ``out``, which is a * b mod m up
    to sign: for integer columns with |a|, |b| < m, moduli
    m < FLOAT_PRODUCT_LIMIT and inv = 1/m in float64, it lies in (-m, m).
    b, m and inv may broadcast against a, and out may be an operand; qf
    and q are float64 and integer scratch arrays of out's shape.

    The quotient a * b / m, taken in float64, is within 3/8 of its true
    value, which is below 2^50, so rounded to the nearest integer q it
    leaves a * b - q * m in (-m, m). The products are computed with
    wrapping, and the bits are the same in int64 and uint64, so signed
    and unsigned columns share this product.
    """
    np.multiply(a, b, out=qf, dtype=np.float64)
    qf *= inv
    np.rint(qf, out=qf)
    np.copyto(q, qf, casting="unsafe")
    q *= m
    np.multiply(a, b, out=out)
    return np.subtract(out, q, out=out)


def fermat_base2(m):
    """Whether 2^(m-1) = 1 mod m, for each m > 2 of an integer array.

    Below FLOAT_PRODUCT_LIMIT the columns run in lockstep int64
    arithmetic, in place: the exponent m - 1 is read in windows of 3 bits
    from the top, and each window squares the residue three times
    (float_product, which leaves it in (-m, m): a residue of either sign
    squares to the same value, so no step makes it nonnegative) and then
    multiplies it by 2^digit with a shift and one %, which also brings it
    into [0, m). A residue below m < 2^50 keeps acc * 2^7 < 2^57, so 3 is
    the widest window int64 holds. Above 2^50, one ``pow(2, m - 1, m)`` per
    Python int.

    It stays off pow_mod, whose multiply by a^digit is a table product, not
    a shift: on the 37,765 cofactors of a sweep of x^2+x+1 to N = 64000 it
    took 7.56 ms on a 2-vCPU VM, a signed table ladder 9.26, the lanes'
    ladder 11.8 and a strong base-2 test in lanes 27.5.
    """
    passed = np.empty(len(m), dtype=bool)
    small = m < FLOAT_PRODUCT_LIMIT
    big = np.flatnonzero(~small)
    passed[big] = [pow(2, x - 1, x) == 1 for x in m[big].tolist()]
    mod = m[small].astype(np.int64)
    e = mod - 1
    inv = 1.0 / mod
    qf, q, digit = np.empty_like(inv), np.empty_like(e), np.empty_like(e)
    shift = 3 * ((int(e.max(initial=1)).bit_length() - 1) // 3)
    acc = np.left_shift(1, (e >> shift) & 7) % mod
    for shift in range(shift - 3, -1, -3):
        for _ in range(3):
            float_product(acc, acc, mod, inv, acc, qf, q)
        np.right_shift(e, shift, out=digit)
        digit &= 7
        acc <<= digit
        acc %= mod
    passed[small] = acc == 1
    return passed


@dataclass(frozen=True, eq=False)
class _FloatQuotient:
    """Arithmetic modulo a uint64 column n of moduli below
    FLOAT_PRODUCT_LIMIT, one lane each, with _Montgomery's interface: mul
    is float_product brought into [0, n), and every number is its own
    form."""

    n: np.ndarray
    inv: np.ndarray  # 1/n in float64

    @classmethod
    def of(cls, n):
        return cls(n, 1.0 / n)

    def take(self, i):
        """The arithmetic of the lanes i, an index, mask or slice."""
        return _FloatQuotient(self.n[i], self.inv[i])

    @functools.cached_property
    def _scratch(self):
        """float64 and uint64 scratch for operands of one row (ndim 1) or
        two."""
        qf, q = np.empty((2, len(self.n))), np.empty((2, len(self.n)), np.uint64)
        return {1: (qf[0], q[0]), 2: (qf, q)}

    def mul(self, a, b, out=None):
        """a * b mod n; b may broadcast against a."""
        out = np.empty_like(a) if out is None else out
        qf, q = self._scratch[a.ndim]
        float_product(a, b, self.n, self.inv, out, qf, q)
        # a result in (-n, 0) wrapped to out + 2^64, and adding n takes it
        # below n; one in [0, n) stays the smaller
        return np.minimum(out, np.add(out, self.n, out=q), out=out)

    def to_form(self, a):
        return a

    from_form = to_form


def _lane_arithmetic(n):
    """The lane arithmetic modulo the uint64 column n of odd moduli below
    2^63: _FloatQuotient when the largest is below FLOAT_PRODUCT_LIMIT,
    _Montgomery otherwise."""
    small = n.max(initial=0) < FLOAT_PRODUCT_LIMIT
    return (_FloatQuotient if small else _Montgomery).of(n)


def _probable_primes(n):
    """Whether each n of a uint64 column is prime, by is_probable_prime's
    Miller-Rabin in lanes. Every n is odd, below 2^63, and has no prime
    factor in _TINY_PRIMES.

    Each chunk of _MR_CHUNK values takes its own lane arithmetic
    (_lane_arithmetic). Base 2 runs on every n of a chunk first. The n
    that pass it need the next k - 1 witnesses of the prefix
    _MR_EXACT_BELOW gives them; all those (n, base) pairs are one lane
    call, and an n is prime when every one of its pairs passes."""
    prime = np.zeros(len(n), dtype=bool)
    bounds = np.array(_MR_EXACT_BELOW[:-1], dtype=np.uint64)
    witnesses = np.array(_MR_WITNESSES_64, dtype=np.uint64)
    for lo in range(0, len(n), _MR_CHUNK):
        arith = _lane_arithmetic(n[lo : lo + _MR_CHUNK])
        passed = _strong_probable_primes(arith, np.full_like(arith.n, 2))
        rest = np.flatnonzero(passed)
        more = np.searchsorted(bounds, arith.n[rest], side="right")
        # pair j of n = arith.n[rest[i]] tests base witnesses[1 + j], j < more[i]
        i = np.repeat(np.arange(len(rest)), more)
        j = np.arange(len(i)) - np.repeat(np.cumsum(more) - more, more)
        ok = _strong_probable_primes(arith.take(rest[i]), witnesses[1 + j])
        passed[rest] = np.bincount(i, weights=ok, minlength=len(rest)) == more
        prime[lo : lo + _MR_CHUNK] = passed
    return prime


def _strong_probable_primes(arith, base):
    """Whether each n of the lanes of ``arith`` is a strong probable prime
    to its base, for a uint64 column base of their length: with
    n - 1 = 2^s d, d odd, base^d by pow_mod, then s - 1 squarings."""
    n = arith.n
    d, s = n - 1, np.zeros(len(n), dtype=np.int64)
    while (even := (d & _1) == 0).any():
        d[even] >>= _1
        s += even
    one = arith.to_form(np.ones_like(n))
    minus_one = n - one
    x = pow_mod(arith.to_form(base), d, arith.mul, one)
    passed = (x == one) | (x == minus_one)
    for i in range(1, int(s.max(initial=0))):
        arith.mul(x, x, out=x)
        passed |= (x == minus_one) & (i < s)
    return passed


def _brent_lanes(n, draws, max_iters):
    """Brent's rho on each n of a uint64 column of odd composites below
    2^63, from its y0 and c in the two uint64 rows ``draws``: the same
    walk, rounds and gcds as _brent_walks, in lockstep lanes.

    Returns the factor of each n, or 0 where its walk gives up. A lane
    stops at the gcd that finds its factor; one that ends at g == n
    backtracks from its chunk's first y (_backtrack). Once fewer than
    LANES lanes go on, their states go to _brent_walks, which finishes the
    same walks. The lane arithmetic (_lane_arithmetic) is chosen once, by
    the largest n.
    """
    factor = np.zeros_like(n)
    live = np.arange(len(n))
    arith = _lane_arithmetic(n)
    # the lanes' rows, compacted together: d = x - y mod n, the walk y, q,
    # the round's fixed point x, c, scratch and the chunk's first y
    w = np.ones((7, len(n)), dtype=np.uint64)
    w[3:5] = arith.to_form(draws)
    d, y, q, x, c, t, ys = w

    def step(a, b):  # a * b into a, then y + c mod n
        arith.mul(a, b, out=a)
        np.add(y, c, out=y)
        np.minimum(y, np.subtract(y, arith.n, out=t), out=y)

    def diff():
        np.subtract(x, y, out=d)
        np.minimum(d, np.add(d, arith.n, out=t), out=d)

    # q stays out of form (Montgomery's; in _FloatQuotient every number is
    # its own form): its product with x - y in form is q * (x - y) mod n.
    # A step of the second half is one product on two rows of lanes,
    # [y, q] times [y, x - y], which squares y and multiplies q by x - y
    # for the same y, so each chunk starts with one more step of y and
    # ends with one more factor of q.
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
        np.copyto(ys, y)
        step(y, y)
        yq, yd = w[1:3], w[1::-1]
        for _ in range(min(128, r - k) - 1):
            diff()
            step(yq, yd)
        diff()
        arith.mul(q, d, out=q)
        k += 128
        g = np.gcd(q, arith.n)
        done = g != 1
        if done.any():
            if iters + r <= max_iters:
                back = np.flatnonzero(g == arith.n)
                if len(back):
                    sub = arith.take(back)
                    rows = (sub.from_form(v[back]).tolist() for v in (c, x, ys))
                    g[back] = list(map(_backtrack, sub.n.tolist(), *rows))
                g[g == arith.n] = 0
                factor[live[done]] = g[done]
            keep = ~done
            live, arith, w = live[keep], arith.take(keep), w[:, keep]
            d, y, q, x, c, t, ys = w
    state = (arith.n, *map(arith.from_form, (c, x, y)), q)
    walks = list(zip(*(a.tolist() for a in state)))
    factor[live] = [g or 0 for g in _brent_walks(walks, r, k, iters, max_iters)]
    return factor


def factorize_lanes(ms, seed):
    """(owner, prime) columns with one row for each prime factor, with its
    multiplicity, of each cofactor of the int64 or object column ms > 1:
    owner indexes ms, and prime has the dtype of ms.

    The primes of _TINY_PRIMES are divided out first, 2 included, so the
    lane arithmetic sees odd moduli only. Then each round takes
    every part left. Miller-Rabin runs in lanes (_probable_primes) on every
    part below 2^63, however few, and part by part (is_probable_prime) on
    the parts above. Rho attempt a on a composite m
    draws y0 and c from _rho_rng(m, seed, a) and walks in lanes
    (_brent_lanes) below 2^63, in packs of the scalar walk (_brent_walks)
    above. A factor d of m puts d and m / d in the next round at attempt
    0; an attempt that gives up puts m there at attempt a + 1.

    Rho's budget is RHO_MAX_ITERS steps an attempt, and RHO_ATTEMPTS
    attempts a part, read at the call. When every part is split or given
    up on, FactorTimeout names the least owner of a part given up on.
    """
    owner = np.arange(len(ms))
    part = ms.astype(np.uint64 if ms.dtype == np.int64 else object)
    found = [(owner[:0], part[:0])]
    for p in _TINY_PRIMES:
        while (hit := part % p == 0).any():
            found.append((owner[hit], np.full(np.count_nonzero(hit), p, part.dtype)))
            part[hit] //= p
    owner, part = owner[part > 1], part[part > 1]
    attempt = np.zeros(len(part), dtype=np.int64)
    gave_up = []
    while len(part):
        lanes = part < INT64_LIMIT
        prime = np.zeros(len(part), dtype=bool)
        prime[lanes] = _probable_primes(part[lanes].astype(np.uint64))
        prime[~lanes] = [is_probable_prime(m, seed) for m in part[~lanes].tolist()]
        found.append((owner[prime], part[prime]))
        owner, part, attempt = owner[~prime], part[~prime], attempt[~prime]
        draws = []
        for m, a in zip(part.tolist(), attempt.tolist()):
            rng = _rho_rng(m, seed, a)
            draws.append((rng.randrange(1, m), rng.randrange(1, m)))
        draws = np.array(draws, dtype=part.dtype).reshape(-1, 2).T
        lanes = part < INT64_LIMIT
        d = np.zeros_like(part)
        d[lanes] = _brent_lanes(
            part[lanes].astype(np.uint64),
            draws[:, lanes].astype(np.uint64),
            RHO_MAX_ITERS,
        )
        walks = [
            (m, c, y, (y * y + c) % m, 1)
            for m, y, c in zip(part[~lanes].tolist(), *draws[:, ~lanes].tolist())
        ]
        d[~lanes] = [g or 0 for g in _brent_walks(walks, 1, 0, 0, RHO_MAX_ITERS)]
        split = d > 0
        attempt[~split] += 1
        out = attempt == RHO_ATTEMPTS
        gave_up += zip(owner[out].tolist(), part[out].tolist())
        again = ~split & ~out
        owner = np.concatenate((owner[split], owner[split], owner[again]))
        part = np.concatenate((d[split], part[split] // d[split], part[again]))
        zeros = np.zeros(2 * np.count_nonzero(split), np.int64)
        attempt = np.concatenate((zeros, attempt[again]))
    if gave_up:
        i, m = min(gave_up)
        raise FactorTimeout(f"rho gave up on {m}", i)
    owner, prime = (np.concatenate(col) for col in zip(*found))
    return owner, prime.astype(ms.dtype)
