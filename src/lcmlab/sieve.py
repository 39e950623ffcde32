"""Exact prime-exponent ledger of Q(N) = prod |f(n)|.

The sieve bound is B = D*N; c is the content of f (the gcd of its
coefficients) and g = f/c its primitive part. Three legs run:

- Leg 1: the layer counts b_k = #{n <= N : p^k | f(n)} of every prime
  p <= B (``_block_data``). The layers of g are lifted from the roots of
  g mod p (``local_data``). As v_p(c*g(n)) = v_p(c) + v_p(g(n)), a prime p
  of c puts v_p(c) leading layers that count every n with f(n) != 0 in
  front of them. Such a p is at most |f_d| < D, so it is a Leg 1 prime.
- Leg 2: |g(n)| for n in [1, N], one segment at a time in numpy columns
  (int64 when ``value_bound`` is below 2^63, Python ints otherwise). Each
  level-1 progression n = r mod p is expanded into its hits and p is
  divided out again and again, which gives every v_p(g(n)) exactly. The
  layer vector counted from these valuations must equal Leg 1's layers of
  g for every prime, or the build raises LedgerMismatch.
- Leg 3: what remains of each |g(n)| has only prime factors above B. A
  cofactor below B^2 is then prime; it must pass a base-2 Fermat test
  first, so that a prime Leg 1 missed cannot pass for one. Larger
  cofactors are split by rho.

A FactorLedger holds columns sorted by p; ``FactorLedger.entries`` reads
them as a mapping p -> PrimeLocalData, and ``FactorLedger.prime_hits``
reads the hits of one prime. No other module reads the layout.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import modular, primes, polynomial
from .modular import RootSet, count_progression, lift_roots
from .polynomial import IntPoly, PolyProfile


class LedgerMismatch(RuntimeError):
    """Analytic per-prime totals disagree with the sieved exponents."""


SEGMENT_SIZE = 1 << 16  # values of f held at once by Leg 2
RHO_MAX_ITERS = 1 << 20
RHO_ATTEMPTS = 8

_INT64_LIMIT = 1 << 63  # integer columns below this are int64
_MULMOD_INT64_LIMIT = 1 << 50  # the float-quotient mulmod is exact below


@dataclass(frozen=True)
class PrimeLocalData:
    """Per-prime statistics of Q(N).

    layer_counts[i] = b_{i+1} = #{n <= N : p^(i+1) | f(n)}; trailing zeros
    are never stored. Primes up to the sieve bound carry their level-1
    roots, primes above it their hits.
    """

    p: int
    layer_counts: tuple
    roots: tuple  # level-1 roots of f mod p
    hits: tuple = ()  # (n, v_p(f(n))) for each n <= N that p divides

    @property
    def alpha(self):
        """The exponent of p in Q(N)."""
        return sum(self.layer_counts)

    @property
    def max_exp(self):
        """The largest v_p(f(n)) over n <= N: the exponent of p in L(N)."""
        return len(self.layer_counts)

    @property
    def hit_count(self):
        """#{n <= N : p | f(n)}."""
        return self.layer_counts[0] if self.layer_counts else 0


def _int_column(values):
    """Nonnegative integers as an int64 array, or as an object array of
    Python ints when one of them is >= 2^63."""
    if not isinstance(values, np.ndarray):
        values = np.array(values, dtype=object)
    if values.dtype == object and (not len(values) or values.max() < _INT64_LIMIT):
        values = values.astype(np.int64)
    return values


@dataclass(frozen=True, eq=False)
class Csr:
    """A ragged table: row i is values[offsets[i] : offsets[i + 1]]."""

    offsets: np.ndarray  # int64, one longer than the table
    values: np.ndarray

    @classmethod
    def from_rows(cls, rows, column=_int_column):
        """The table of a list of sequences; ``column`` makes the values
        array from their concatenation."""
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)), out=offsets[1:])
        return cls(offsets, column([v for row in rows for v in row]))

    @classmethod
    def from_levels(cls, levels, rows):
        """The table of layer vectors with levels[k - 1][i] = b_k of row i.

        Every row must be nonincreasing, so its nonzero counts are a
        prefix.
        """
        counts = np.array(levels, dtype=np.int64).reshape(len(levels), rows).T
        offsets = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(counts, axis=1), out=offsets[1:])
        return cls(offsets, counts[counts > 0])

    def row(self, i):
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def lengths(self):
        return np.diff(self.offsets)

    def concat(self, other):
        """The rows of self followed by the rows of other."""
        return Csr(
            np.concatenate((self.offsets, other.offsets[1:] + self.offsets[-1])),
            np.concatenate((self.values, other.values)),
        )


@dataclass(frozen=True, eq=False)
class FactorLedger:
    """The exact factorization of Q(N) for one (f, N) run, as columns
    sorted by p: row i of each table belongs to the prime p[i]."""

    f: IntPoly
    N: int
    skipped_zero_count: int
    profile: PolyProfile
    p: np.ndarray  # int64, or object when a prime is >= 2^63
    layers: Csr  # layer_counts
    # level-1 roots; empty rows above B. A prime of the content c of f
    # holds the roots of f/c.
    roots: Csr
    hits: Csr  # (n, v_p(f(n))) pairs, an (h, 2) array; empty rows up to B

    @classmethod
    def from_entries(cls, f, N, entries, skipped_zero_count, profile):
        """The ledger of a dict p -> PrimeLocalData."""
        data = [entries[p] for p in sorted(entries)]
        return cls(
            f=f,
            N=N,
            skipped_zero_count=skipped_zero_count,
            profile=profile,
            p=_int_column([d.p for d in data]),
            layers=Csr.from_rows([d.layer_counts for d in data]),
            roots=Csr.from_rows([d.roots for d in data]),
            hits=Csr.from_rows(
                [d.hits for d in data],
                lambda flat: np.array(flat, dtype=np.int64).reshape(-1, 2),
            ),
        )

    @property
    def B(self):
        """The sieve bound D*N."""
        return self.profile.D * self.N

    @property
    def entries(self):
        """The read-only mapping p -> PrimeLocalData, in ascending p."""
        return LedgerEntries(self)

    @property
    def alpha(self):
        """The exponent of each p in Q(N), as an array."""
        sums = np.concatenate(([0], np.cumsum(self.layers.values, dtype=np.int64)))
        return sums[self.layers.offsets[1:]] - sums[self.layers.offsets[:-1]]

    @property
    def max_exp(self):
        """The exponent of each p in L(N), as an array."""
        return self.layers.lengths()

    @property
    def hit_count(self):
        """#{n <= N : p | f(n)} for each p, as an array."""
        return self.layer(1)

    def layer(self, i):
        """b_i of each p for i >= 1, as an array."""
        if i < 1:
            raise ValueError("layers are 1-indexed")
        out = np.zeros(len(self.p), dtype=np.int64)
        has = self.max_exp >= i
        out[has] = self.layers.values[self.layers.offsets[:-1][has] + i - 1]
        return out

    def _row(self, p):
        """The row of the prime p; KeyError when p has none."""
        if isinstance(p, (int, np.integer)):
            i = int(np.searchsorted(self.p, p))
            if i < len(self.p) and self.p[i] == p:
                return i
        raise KeyError(p)

    def prime_hits(self, p, limit):
        """(n, v_p(f(n))) for each n <= limit that p divides, in n order.

        Primes above B carry their hits. Below it, ``limit`` must be under
        p, so each root of f mod p yields at most one hit, the root itself;
        a prime of the content of f divides every f(n), so every n <= limit
        is a hit.
        """
        i = self._row(p)
        if p > self.B:
            return [(n, v) for n, v in self.hits.row(i).tolist() if n <= limit]
        if _content_exp(self.f, p):
            candidates = range(1, limit + 1)
        else:
            candidates = [r for r in self.roots.row(i).tolist() if 1 <= r <= limit]
        hits = []
        for n in candidates:
            fn = abs(self.f.eval(n))
            v = 0
            while fn and fn % p == 0:
                fn //= p
                v += 1
            if v:
                hits.append((n, v))
        return hits

    def without_content(self):
        """This ledger with the layers of the content c of f dropped: at
        each prime p of c, the layer vector after its first v_p(c) entries,
        which is that of f/c. Every prime of c is at most c."""
        upto = np.searchsorted(self.p, math.gcd(*self.f.coeffs), side="right")
        drop = np.zeros(len(self.p), dtype=np.int64)
        drop[:upto] = [_content_exp(self.f, q) for q in self.p[:upto].tolist()]
        offsets, values = self.layers.offsets, self.layers.values
        lengths = self.layers.lengths()
        at = np.arange(len(values)) - np.repeat(offsets[:-1], lengths)
        layers = Csr(
            np.concatenate(([0], np.cumsum(lengths - drop))),
            values[at >= np.repeat(drop, lengths)],
        )
        return dataclasses.replace(self, layers=layers)


class LedgerEntries(Mapping):
    """A FactorLedger's columns read as a mapping p -> PrimeLocalData, in
    ascending p. An entry is built only when it is read."""

    def __init__(self, ledger):
        self._ledger = ledger

    def __getitem__(self, p):
        led = self._ledger
        i = led._row(p)
        return PrimeLocalData(
            p=int(led.p[i]),
            layer_counts=tuple(led.layers.row(i).tolist()),
            roots=tuple(led.roots.row(i).tolist()),
            hits=tuple(map(tuple, led.hits.row(i).tolist())),
        )

    def __iter__(self):
        return iter(self._ledger.p.tolist())

    def __len__(self):
        return len(self._ledger.p)


def local_data(f: IntPoly, level1: RootSet, N, cap, zeros=()):
    """Exact PrimeLocalData for one prime p <= B via root lifting from
    ``level1``, the roots of f mod p.

    ``cap`` bounds every nonzero |f(n)|, n <= N (``value_bound``), so no
    p^k above it divides one and lifting stops there. ``zeros`` are the
    integer roots of f in [1, N] (nonempty only for reducible f); the n
    with f(n) = 0 are excluded from every layer.
    """
    p = level1.p
    rs = level1
    layers = []
    while rs.roots:
        cnt = sum(count_progression(r, p**rs.k, N) for r in rs.roots) - len(zeros)
        if cnt <= 0:
            break
        layers.append(cnt)
        if p ** (rs.k + 1) > cap:
            break
        rs = lift_roots(f, rs)
    return PrimeLocalData(p=p, layer_counts=tuple(layers), roots=level1.roots)


def _content_exp(f: IntPoly, p):
    """v_p(c) for the content c of f."""
    c, e = math.gcd(*f.coeffs), 0
    while c % p == 0:
        c //= p
        e += 1
    return e


def prime_data(f: IntPoly, p, N, zeros, seed):
    """Exact PrimeLocalData of f at one prime p: ``_block_data`` on (p,)."""
    return next(_block_data(f.coeffs, (p,), N, zeros, seed))


def primitive_part(f: IntPoly):
    """f divided by its content."""
    c = math.gcd(*f.coeffs)
    return f if c == 1 else IntPoly(tuple(x // c for x in f.coeffs))


def _block_data(coeffs, block, N, zeros, seed):
    """Exact PrimeLocalData of f = IntPoly(coeffs) at each prime of
    ``block``, in order: the layers of g = f/c lifted from the roots of g
    mod p, after e = v_p(c) leading layers b_1 = ... = b_e that count the
    n <= N with f(n) != 0. ``zeros`` are the integer roots of f in [1, N].
    """
    f = IntPoly(coeffs)
    g = primitive_part(f)
    cap = polynomial.value_bound(g, N)
    c, live = math.gcd(*coeffs), N - len(zeros)
    for rs in modular.roots_mod_primes(g, block, seed):
        data = local_data(g, rs, N, cap, zeros=zeros)
        if c % rs.p == 0 and live > 0:
            content = (live,) * _content_exp(f, rs.p)
            data = dataclasses.replace(data, layer_counts=content + data.layer_counts)
        yield data


def _local_block(coeffs, block, N, zeros, seed):
    """The PrimeLocalData of the primes of one block that divide Q(N)."""
    return [d for d in _block_data(coeffs, block, N, zeros, seed) if d.layer_counts]


def factor_cofactor(c, seed=0):
    """Factor a residual cofactor (all prime factors exceed the sieve
    bound) into a sorted list of (prime, exponent)."""
    if c <= 1:
        raise ValueError("cofactor must exceed 1")
    return primes.factorize(
        c, seed=seed, max_iters=RHO_MAX_ITERS, attempts=RHO_ATTEMPTS
    )


def _abs_values(f: IntPoly, lo, hi, dtype):
    """|f(n)| for n in [lo, hi] by Horner's rule in a ``dtype`` column.

    In int64 every partial sum stays below ``value_bound(f, hi)``.
    """
    n = np.arange(lo, hi + 1).astype(dtype)
    acc = np.zeros_like(n)
    for c in reversed(f.coeffs):
        acc = acc * n + c
    return np.abs(acc)


def _divide_segment(values, lo, prog, levels):
    """The cofactors of values = |f(n)|, n = lo, lo + 1, ..., once every
    small prime is divided out along its level-1 progressions.

    ``prog`` holds the columns (p, r, i): the prime, the root and the
    prime's row. levels[k - 1][i] gains the number of n with
    p_i^k | f(n) != 0; a level is appended when first reached.
    """
    p, r, row = prog
    hi = lo + len(values) - 1
    first = lo + (r - lo) % p
    count = np.where(first <= hi, (hi - first) // p + 1, 0)
    # hit j of progression g lies at first[g] + j * p[g], j < count[g]
    g = np.repeat(np.arange(len(p)), count)
    j = np.arange(len(g)) - np.repeat(np.cumsum(count) - count, count)
    q, row = p[g], row[g]
    at = first[g] - lo + j * q
    live = values[at] != 0
    at, q, row = at[live], q[live].astype(values.dtype), row[live]
    cur = values[at]
    divisor = np.ones_like(values)
    k = 0
    while True:
        divisible = cur % q == 0
        if not divisible.any():
            return values // divisor
        at, q, row = at[divisible], q[divisible], row[divisible]
        cur = cur[divisible] // q
        np.multiply.at(divisor, at, q)
        if k == len(levels):
            levels.append(np.zeros_like(levels[0]))
        levels[k] += np.bincount(row, minlength=len(levels[0]))
        k += 1


def _mulmod(a, b, m):
    """a * b mod m for residues a, b in [0, m).

    In int64 (m < 2^50) the quotient q = floor(a*b/m) is taken in float64,
    off by at most one, and a*b - q*m, computed with wrapping, lands in
    [-m, 2m); one correction each way makes it exact.
    """
    if m.dtype == object:
        return a * b % m
    q = np.floor(a.astype(np.float64) * b / m).astype(np.int64)
    r = a * b - q * m
    r = np.where(r < 0, r + m, r)
    return np.where(r >= m, r - m, r)


def _fermat_base2(m):
    """Whether 2^(m-1) = 1 mod m, for each m > 2 of an integer array, by
    square-and-multiply in lockstep: int64 columns below 2^50, Python ints
    above."""
    passed = np.ones(len(m), dtype=bool)
    small = m < _MULMOD_INT64_LIMIT
    for part, dtype in ((small, np.int64), (~small, object)):
        if not part.any():
            continue
        mod = m[part].astype(dtype)
        e = mod - 1
        acc = np.ones_like(mod)
        for bit in range(int(e.max()).bit_length() - 1, -1, -1):
            acc = _mulmod(acc, acc, mod)
            twice = acc + acc
            twice = np.where(twice >= mod, twice - mod, twice)
            acc = np.where((e >> bit) & 1 == 1, twice, acc)
        passed[part] = acc == 1
    return passed


def _large_hits(f, N, B, cofactors, lo, seed):
    """(q, n, e) columns of the primes q > B in ``cofactors`` (of
    n = lo, lo + 1, ...), each prime to B divided out.

    A cofactor in (B, B^2) is prime unless a prime <= B was missed, and
    must pass a base-2 Fermat test; larger ones are factored by rho.
    """
    n = np.flatnonzero(cofactors > 1)
    c = cofactors[n]
    n += lo
    below = c < B * B
    missed = c <= B
    missed[below] |= ~_fermat_base2(c[below])
    if missed.any():
        i = int(np.argmax(missed))
        raise LedgerMismatch(
            f"{f} at N={N}: the cofactor {c[i]} of f({n[i]}) is not a "
            "prime above B, so the sieve missed a prime <= B"
        )
    rho = np.array(
        [
            (prime, nn, k)
            for nn, cc in zip(n[~below].tolist(), c[~below].tolist())
            for prime, k in factor_cofactor(cc, seed=seed)
        ],
        dtype=object,
    ).reshape(-1, 3)
    missed = rho[:, 0] <= B
    if missed.any():
        prime, nn, _ = rho[np.argmax(missed)]
        raise LedgerMismatch(
            f"{f} at N={N}: prime {prime} <= B survived the sieve at n={nn}"
        )
    return (
        np.concatenate((c[below], rho[:, 0].astype(c.dtype))),
        np.concatenate((n[below], rho[:, 1].astype(np.int64))),
        np.concatenate(
            (np.ones(len(n[below]), np.int64), rho[:, 2].astype(np.int64))
        ),
    )


def _group_large(q, n, e):
    """The p column, layer table and hit table of the primes above B from
    their (q, n, e) hit columns, sorted by (q, n)."""
    if q.dtype == object:
        order = sorted(range(len(q)), key=lambda j: (q[j], n[j]))
    else:
        order = np.lexsort((n, q))
    q, n, e = q[order], n[order], e[order]
    new = np.ones(len(q), dtype=bool)
    new[1:] = q[1:] != q[:-1]
    starts = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    levels = [
        np.bincount(group[e >= k], minlength=len(starts))
        for k in range(1, int(e.max(initial=0)) + 1)
    ]
    hits = Csr(np.append(starts, len(q)), np.stack((n, e), axis=1))
    return q[starts], Csr.from_levels(levels, len(starts)), hits


def build_ledger(f: IntPoly, N, seed=0, workers=1):
    """The exact FactorLedger of Q(N), sieved up to B = D*N."""
    prof = polynomial.profile(f)
    B = prof.D * N
    g = primitive_part(f)
    cap = polynomial.value_bound(g, N)
    zeros = prof.integer_roots_in_range(N)

    # Leg 1: the data of f at every prime <= B that divides Q(N), one
    # block of primes per roots_mod_primes call.
    stream = primes.iter_primes(B)
    blocks = iter(lambda: tuple(itertools.islice(stream, modular.BLOCK_SIZE)), ())
    leg1 = functools.partial(_local_block, f.coeffs, N=N, zeros=zeros, seed=seed)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(leg1, blocks))
    else:
        results = map(leg1, blocks)
    data = {d.p: d for block in results for d in block}
    small = FactorLedger.from_entries(f, N, data, 0, prof)
    rows = len(small.p)

    # Legs 2 and 3 on g, one segment of n at a time.
    dtype = np.int64 if cap < _INT64_LIMIT else object
    per_root = small.roots.lengths()
    prog = (
        np.repeat(small.p, per_root),
        small.roots.values,
        np.repeat(np.arange(rows), per_root),
    )
    levels = [np.zeros(rows, dtype=np.int64)]
    no_hit = np.zeros(0, np.int64)
    large = [(np.zeros(0, dtype=dtype), no_hit, no_hit)]
    skipped = 0
    for lo in range(1, N + 1, SEGMENT_SIZE):
        values = _abs_values(g, lo, min(lo + SEGMENT_SIZE - 1, N), dtype)
        skipped += int(np.count_nonzero(values == 0))
        cofactors = _divide_segment(values, lo, prog, levels)
        large.append(_large_hits(f, N, B, cofactors, lo, seed))

    layers = small.without_content().layers
    sieved = Csr.from_levels(levels, rows)
    if not (
        np.array_equal(layers.offsets, sieved.offsets)
        and np.array_equal(layers.values, sieved.values)
    ):
        i = next(
            i for i in range(rows)
            if layers.row(i).tolist() != sieved.row(i).tolist()
        )
        raise LedgerMismatch(
            f"{f} at N={N}: p={small.p[i]}: analytic layers "
            f"{tuple(layers.row(i).tolist())} != sieved "
            f"{tuple(sieved.row(i).tolist())}"
        )

    big_p, big_layers, big_hits = _group_large(
        *(np.concatenate(col) for col in zip(*large))
    )
    no_roots = Csr(np.zeros(len(big_p) + 1, dtype=np.int64), small.roots.values[:0])
    return FactorLedger(
        f=f,
        N=N,
        skipped_zero_count=skipped,
        profile=prof,
        p=_int_column(np.concatenate((small.p, big_p))),
        layers=small.layers.concat(big_layers),
        roots=small.roots.concat(no_roots),
        hits=small.hits.concat(big_hits),
    )
