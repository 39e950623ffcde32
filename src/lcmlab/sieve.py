"""Exact prime-exponent ledger of Q(N) = prod |f(n)|.

One pass (``iter_ledgers``) makes the ledger at every N of an increasing
schedule; ``build_ledger(f, N)`` is the pass with the one checkpoint N.
The sieve bound is B = D*N for the largest N; c is the content of f (the
gcd of its coefficients) and g = f/c its primitive part. Three legs run:

- Leg 1: every prime p <= B, in blocks of streamed primes
  (``_prime_columns``), as ``PrimeColumns``: the roots of g mod p and the
  progressions n = r mod p^k of the roots lifted while some n <= N is in
  one. A block runs in numpy columns with no loop over its primes: the
  roots of all its primes at once (``modular.roots_mod_primes``), then one
  lift per level for all its roots (``modular.lift_columns``). The layer
  counts b_k = #{n <= N_i : p^k | f(n) != 0} at any checkpoint N_i are
  vectorised counts of these progressions. As
  v_p(c*g(n)) = v_p(c) + v_p(g(n)), a prime p of c puts v_p(c) leading
  layers that count every n with f(n) != 0 in front of them. Such a p is
  at most |f_d| < D, so it is a Leg 1 prime.
- Leg 2: |g(n)| for n = 1, 2, ..., one segment at a time in numpy columns
  (int64 when ``value_bound`` is below 2^63, Python ints otherwise);
  segments end at each checkpoint. Each level-1 progression n = r mod p
  is expanded into its hits and p is divided out again and again, which
  gives every v_p(g(n)) exactly. A progression carries its next n from
  segment to segment, so a segment reads only those that hit it. Leg 1's
  layers of g, in its run order, number the slots of one flat count
  array: the k-th division of g(n) by p counts at its row's k-th slot,
  and a k past the row's slots raises LedgerMismatch naming p and n. At
  each checkpoint Leg 1's count of every one of these layers must equal
  the slot's, or the pass raises LedgerMismatch naming that N.
- Leg 3: what remains of each |g(n)| has only prime factors above B. A
  cofactor below B^2 is then prime; it must pass a base-2 Fermat test
  first (``primes.fermat_base2``, beside the float-quotient product it
  squares on), so that a prime Leg 1 missed cannot pass for one. The larger
  cofactors of a segment, int64 or Python ints, are factored in one call
  of ``primes.factorize_lanes``: Miller-Rabin and Brent's rho in rounds
  over every part left, in lockstep lanes of exact uint64 arithmetic
  below 2^63 (float quotients when a batch is below 2^50, Montgomery
  products otherwise), and in packs of the scalar walk, each a single
  walk modulo the product of its moduli, for the last walks and the
  larger parts. Each prime factor q of the cofactor of n is one (q, n)
  row, repeated with its multiplicity, so a pair (q, n) has v_q(f(n))
  rows. The rows of the segments since the last checkpoint are sorted
  once at the checkpoint and merged into one run, kept sorted by (q, n)
  across the pass (``_merge_hits``); the hits of such primes up to a
  checkpoint are the run.

The ledger at checkpoint N_i equals a pass to N_i alone. The n <= N_i
that a prime p > D*N_i divides lie in distinct classes mod p, so they are
its roots of f in [1, N_i], and the ledger keeps them as its roots: a
Leg 1 root r of such a p is kept when r in [1, N_i] is no zero of f, and
the prime keeps Leg 1's layers; above B, its distinct n in the run are
its roots, and a pair of e rows counts in each of its first e layers
(``_group_run``). A FactorLedger holds
columns sorted by p; ``FactorLedger.entries`` reads them as a mapping
p -> PrimeLocalData, and ``FactorLedger.prime_hits`` the hits of one
prime. No other module reads the layout.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
import os
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import modular, primes, polynomial
from .polynomial import IntPoly


class LedgerMismatch(RuntimeError):
    """Analytic per-prime totals disagree with the sieved exponents."""


SEGMENT_SIZE = 1 << 16  # values of f held at once by Leg 2


@dataclass(frozen=True)
class PrimeLocalData:
    """Per-prime statistics of Q(N).

    layer_counts[i] = b_{i+1} = #{n <= N : p^(i+1) | f(n)}; trailing zeros
    are never stored. ``roots`` holds the level-1 roots of f mod p for a
    prime up to D*N, and above D*N the n <= N with p | f(n) != 0, its
    roots in [1, N], as ledgers and ``prime_data`` keep them (``kept_roots``).
    """

    p: int
    layer_counts: tuple
    roots: tuple

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
    """A column of nonnegative integers as an int64 array, or as an object
    array of Python ints when one of them is >= 2^63."""
    if values.dtype == object and (
        not len(values) or values.max() < primes.INT64_LIMIT
    ):
        values = values.astype(np.int64)
    return values


@dataclass(frozen=True, eq=False)
class Csr:
    """A ragged table: row i is values[offsets[i] : offsets[i + 1]]."""

    offsets: np.ndarray  # int64, one longer than the table
    values: np.ndarray

    def row(self, i):
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def lengths(self):
        return np.diff(self.offsets)

    def sums(self):
        """The sum of each row, in int64."""
        sums = np.concatenate(([0], np.cumsum(self.values, dtype=np.int64)))
        return sums[self.offsets[1:]] - sums[self.offsets[:-1]]

    def slice(self, lo, hi):
        """The table of rows lo .. hi - 1."""
        start, end = self.offsets[lo], self.offsets[hi]
        return Csr(self.offsets[lo : hi + 1] - start, self.values[start:end])

    def concat(self, other):
        """The rows of self followed by the rows of other."""
        return Csr(
            np.concatenate((self.offsets, other.offsets[1:] + self.offsets[-1])),
            np.concatenate((self.values, other.values)),
        )

    def take(self, rows, keep):
        """The table of the rows the boolean mask ``rows`` selects, holding
        only the values the boolean mask ``keep`` selects."""
        keep = np.repeat(rows, self.lengths()) & keep
        counts = np.diff(np.concatenate(([0], np.cumsum(keep)))[self.offsets])
        return Csr(
            np.concatenate(([0], np.cumsum(counts[rows]))), self.values[keep]
        )


@dataclass(frozen=True, eq=False)
class FactorLedger:
    """The exact factorization of Q(N) for one (f, N) run, as columns
    sorted by p: row i of each table belongs to the prime p[i]."""

    f: IntPoly
    N: int
    p: np.ndarray  # int64, or object when a prime is >= 2^63
    layers: Csr  # layer_counts
    # level-1 roots up to B, and above B the n <= N with p | f(n) != 0. A
    # prime of the content c of f holds the roots of f/c.
    roots: Csr

    @property
    def B(self):
        """The sieve bound D*N."""
        return self.f.profile.D * self.N

    @property
    def entries(self):
        """The read-only mapping p -> PrimeLocalData, in ascending p."""
        return LedgerEntries(self)

    @property
    def alpha(self):
        """The exponent of each p in Q(N), as an array."""
        return self.layers.sums()

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

    def rows(self, lo, hi):
        """The rows lo .. hi - 1 of this ledger alone, as a FactorLedger of
        the same (f, N) on slices of its columns."""
        return dataclasses.replace(
            self,
            p=self.p[lo:hi],
            layers=self.layers.slice(lo, hi),
            roots=self.roots.slice(lo, hi),
        )

    def _row(self, p):
        """The row of the prime p; KeyError when p has none."""
        if isinstance(p, (int, np.integer)):
            i = int(np.searchsorted(self.p, p))
            if i < len(self.p) and self.p[i] == p:
                return i
        raise KeyError(p)

    def prime_hits(self, p, limit):
        """(n, v_p(f(n))) for each n <= limit that p divides, in n order,
        for a limit up to N (ValueError above it).

        The hits are the n = r mod p for the roots r of p's row, which above
        B are kept only in [1, N], and v_p(f(n)) is read off f(n); a prime
        of the content of f divides every f(n), so every n is a hit.
        """
        i = self._row(p)
        if limit > self.N:
            raise ValueError(f"limit {limit} exceeds the ledger's N = {self.N}")
        if math.gcd(*self.f.coeffs) % p == 0:
            candidates = range(1, limit + 1)
        else:
            first = [r % p or p for r in self.roots.row(i).tolist()]
            candidates = sorted(n for r in first for n in range(r, limit + 1, p))
        hits = []
        for n in candidates:
            if (fn := self.f.eval(n)) and (v := _valuation(fn, p)):
                hits.append((n, v))
        return hits

    def without_content(self):
        """This ledger with the layers of the content c of f dropped: at
        each prime p of c, the layer vector after its first v_p(c) entries,
        which is that of f/c. Every prime of c is at most c."""
        c = math.gcd(*self.f.coeffs)
        upto = np.searchsorted(self.p, c, side="right")
        drop = np.zeros(len(self.p), dtype=np.int64)
        drop[:upto] = [_valuation(c, q) for q in self.p[:upto].tolist()]
        first = np.repeat(self.layers.offsets[:-1] + drop, self.layers.lengths())
        keep = np.arange(len(self.layers.values)) >= first
        rows = np.ones(len(self.p), dtype=bool)
        return dataclasses.replace(self, layers=self.layers.take(rows, keep))


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
        )

    def __iter__(self):
        return iter(self._ledger.p.tolist())

    def __len__(self):
        return len(self._ledger.p)


def _valuation(x, p):
    """v_p(x) for an integer x != 0."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def primitive_part(f: IntPoly):
    """f divided by its content."""
    c = math.gcd(*f.coeffs)
    return f if c == 1 else IntPoly(tuple(x // c for x in f.coeffs))


def _count_progression(r, m, n):
    """#{1 <= x <= n : x = r mod m} for 0 <= r < m and n >= 0; r, m and n
    may be int64 arrays."""
    return (n - r) // m + (r > 0)


@dataclass(frozen=True, eq=False)
class PrimeColumns:
    """Leg 1's data of f up to some N at primes up to the sieve bound: row i
    belongs to the prime p[i], and ``roots`` holds its level-1 roots of
    g = f/c.

    Layer k of a row is a run of progressions, entry j adding the n with
    n = r[j] mod m[j]: one per root of g mod p^k, after v_p(c) content
    layers of the one progression 0 mod 1, which is the only m = 1. So at
    any n_max <= N, b_k = #{n <= n_max : p^k | f(n) != 0} is the sum of its
    progressions' counts less the integer zeros of f up to n_max. A modulus
    above N is stored as N + 1 and a residue above N as 0, which changes
    no such count and keeps the columns int64.
    """

    p: np.ndarray  # int64, or object when a prime is >= 2^63
    roots: Csr
    row: np.ndarray  # per progression, all int64, in (row, level) order
    level: np.ndarray
    r: np.ndarray
    m: np.ndarray

    @classmethod
    def concat(cls, parts):
        """The rows of ``parts``, blocks of ascending primes, in order."""
        parts = list(parts)
        shift = np.cumsum([0] + [len(c.p) for c in parts])
        per_row = [c.roots.lengths() for c in parts]

        def column(values):
            return np.concatenate([np.zeros(0, np.int64), *values])

        return cls(
            p=_int_column(column(c.p for c in parts)),
            roots=Csr(
                np.concatenate(([0], np.cumsum(column(per_row)))),
                _int_column(column(c.roots.values for c in parts)),
            ),
            row=column(c.row + s for c, s in zip(parts, shift)),
            level=column(c.level for c in parts),
            r=column(c.r for c in parts),
            m=column(c.m for c in parts),
        )

    @functools.cached_property
    def _runs(self):
        """The progressions of each layer, a run of (row, level): the first
        progression of each run, its row, and the mask of the runs that are
        layers of g, not content layers."""
        new = np.ones(len(self.row), dtype=bool)
        new[1:] = (np.diff(self.row) != 0) | (np.diff(self.level) != 0)
        first = np.flatnonzero(new)
        return first, self.row[first], self.m[first] > 1

    @functools.cached_property
    def slots(self):
        """The layers of g, in run order, as slots of a flat count array:
        those of row i are slots[i] .. slots[i + 1] - 1, one per level."""
        _, row, g = self._runs
        per_row = np.bincount(row[g], minlength=len(self.p))
        return np.concatenate(([0], np.cumsum(per_row)))

    def layers(self, n_max, nzeros):
        """The count of every layer at n_max <= N, in run order, and of every
        layer of g, in slot order, for ``nzeros`` integer zeros of f in
        [1, n_max]. Every row is nonincreasing, so its positive counts are
        a prefix."""
        first, _, g = self._runs
        b = np.add.reduceat(_count_progression(self.r, self.m, n_max), first)
        b = np.maximum(b - nzeros, 0)
        return b, b[g]

    def kept_roots(self, f, N):
        """The mask of the level-1 roots that the ledger of f at a checkpoint
        N keeps: every root of a prime up to D*N, and above D*N those in
        [1, N] that are no zeros of f, which are the n <= N it divides."""
        r = self.roots.values
        keep = (r >= 1) & (r <= N) & ~np.isin(r, f.profile.integer_roots_in_range(N))
        small = np.searchsorted(self.p, f.profile.D * N, side="right")
        keep[: self.roots.offsets[small]] = True
        return keep


def _prime_columns(coeffs, block, N, zeros, seed):
    """Leg 1: the PrimeColumns of f = IntPoly(coeffs) at the primes of
    ``block`` that have a root of g = f/c or divide c. ``zeros`` are the
    integer roots of f in [1, N].

    A prime of c first gets e = v_p(c) content layers. The roots of g mod
    p^k (``modular.roots_mod_primes``, then ``modular.lift_columns``) are
    lifted level by level, all primes of the block at once: a prime's
    roots go on while some n <= N with g(n) != 0 lies in one of their
    progressions and p^(k+1) is at most ``value_bound(g, N)``, which bounds
    every nonzero |g(n)|. Each root carries p^k from the level before, and
    p^(k+1) = p^k * p, in ``modular.power_dtype``, serves both that test
    and the lift.

    An error of the root finder, which names only its p, gets a note that
    names f, N and the block's first and last prime.
    """
    f = IntPoly(coeffs)
    g = primitive_part(f)
    cap = polynomial.value_bound(g, N)
    c = math.gcd(*coeffs)
    try:
        rc = modular.roots_mod_primes(g, block, seed)
    except (ValueError, ArithmeticError) as exc:
        exc.add_note(f"Leg 1 of {f} at N={N}, primes {block[0]}..{block[-1]}")
        raise
    e = np.zeros(len(block), dtype=np.int64)
    if c > 1 and N > len(zeros):
        ps = np.array(block, dtype=object)
        at = np.flatnonzero(c % ps == 0)
        e[at] = [_valuation(c, ps[i]) for i in at]
    per_prime = np.bincount(rc.row, minlength=len(block))
    kept = (per_prime > 0) | (e > 0)
    new_row = np.cumsum(kept) - 1
    roots = Csr(np.concatenate(([0], np.cumsum(per_prime[kept]))), _int_column(rc.r))
    # (row, level, r, m) columns, content layers first
    progs = [(np.zeros(0, dtype=np.int64),) * 4]
    for k in range(1, int(e.max(initial=0)) + 1):
        at = new_row[e >= k]
        progs.append((at, np.full_like(at, k), np.zeros_like(at), np.ones_like(at)))
    pk = modular.powers(rc.p[rc.row], 1)  # p^k of each root
    while len(rc.row):
        count = np.zeros(len(block), dtype=np.int64)
        np.add.at(count, rc.row, _count_progression(rc.r, pk, N).astype(np.int64))
        go = count[rc.row] > len(zeros)
        rc, pk = rc.take(go), pk[go]
        r = np.where(rc.r <= N, rc.r, 0).astype(np.int64)
        m = np.minimum(pk, N + 1).astype(np.int64)
        progs.append((new_row[rc.row], e[rc.row] + rc.k, r, m))
        p = rc.p[rc.row]
        dtype = modular.power_dtype(p, rc.k + 1)
        pk = pk.astype(dtype) * p.astype(dtype)
        keep = pk <= cap
        rc, pk = rc.take(keep), pk[keep]
        if len(rc.row):
            # a lifted root's p^(k+1) is that of the first root of its row
            lifted = modular.lift_columns(g, rc, pk)
            rc, pk = lifted, pk[np.searchsorted(rc.row, lifted.row)]
    row, level, r, m = map(np.concatenate, zip(*progs))
    order = np.lexsort((level, row))
    progs = np.stack([col[order] for col in (row, level, r, m)])
    return PrimeColumns(_int_column(rc.p[kept]), roots, *progs)


def prime_data(f: IntPoly, p, N, seed):
    """Exact PrimeLocalData of f at one prime p: Leg 1 on the block (p,),
    with the roots that the ledger of f at N keeps (``kept_roots``)."""
    zeros = f.profile.integer_roots_in_range(N)
    cols = _prime_columns(f.coeffs, (p,), N, zeros, seed)
    b, _ = cols.layers(N, len(zeros))
    return PrimeLocalData(
        p=p,
        layer_counts=tuple(b[b > 0].tolist()),
        roots=tuple(cols.roots.values[cols.kept_roots(f, N)].tolist()),
    )


def _leg1(coeffs, B, N, zeros, seed, workers):
    """The PrimeColumns of each int64 block of ``modular.BLOCK_SIZE``
    primes <= B, in order. Each step of the root finder pays its fixed
    cost once a block, and B up to 180,503, the 16,384th prime, is one
    block. With workers > 1 the blocks run in a process pool, at most
    2 * workers of them at once, so the primes are read as the results
    are taken. The pool has at most ``os.cpu_count()`` workers: it starts
    all of them at once, and the blocks do not depend on their number."""
    blocks = primes.prime_blocks(B, modular.BLOCK_SIZE)
    run = functools.partial(_prime_columns, coeffs, N=N, zeros=zeros, seed=seed)
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        yield from map(run, blocks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        for block in blocks:
            pending.append(pool.submit(run, block))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def factor_cofactor(c, seed=0):
    """Factor a residual cofactor (all prime factors exceed the sieve
    bound) into a sorted list of (prime, exponent). The pass factors a
    segment's cofactors in one _large_hits call instead, as (q, n)
    rows."""
    return primes.factorize(c, seed=seed)


def _abs_values(f: IntPoly, lo, hi, dtype):
    """|f(n)| for n in [lo, hi] by Horner's rule in a ``dtype`` column.

    In int64 every partial sum stays below ``value_bound(f, hi)``.
    """
    n = np.arange(lo, hi + 1).astype(dtype)
    acc = np.zeros_like(n)
    for c in reversed(f.coeffs):
        acc = acc * n + c
    return np.abs(acc)


def _divide_segment(f, N, values, lo, cols, prog, counts):
    """Divide every small prime out of values = |g(n)|, n = lo, lo + 1,
    ..., in place, along its level-1 progressions, which leaves the
    cofactors.

    ``prog`` holds the columns (nxt, i): the least n >= lo of the
    progression and the row of its prime p_i in the PrimeColumns ``cols``.
    Only the progressions with nxt in the segment are read, and their nxt
    moves past it in place, so a segment costs its hits, not every
    progression. Each n with p_i^k | g(n) != 0 adds one to ``counts`` at
    slot cols.slots[i] + k - 1; a slot past row i's raises LedgerMismatch,
    naming f, N, p and n.
    """
    nxt, row = prog
    hi = lo + len(values) - 1
    g = np.flatnonzero(nxt <= hi)
    first, row = nxt[g], row[g]
    q = cols.p[row]
    count = (hi - first) // q + 1
    nxt[g] = first + count * q
    # hit j of progression g lies at first[g] + j * q[g], j < count[g]
    g = np.repeat(np.arange(len(g)), count)
    j = np.arange(len(g)) - np.repeat(np.cumsum(count) - count, count)
    q, row = q[g], row[g]
    at = first[g] - lo + j * q
    live = values[at] != 0
    at, q, row = at[live], q[live].astype(values.dtype), row[live]
    slot, end = cols.slots[row], cols.slots[row + 1]
    cur = values[at]
    k = 1
    while True:
        divisible = cur % q == 0
        # at the first level p divides every hit, and nothing is copied
        if not divisible.all():
            at, q, cur, slot, end = (x[divisible] for x in (at, q, cur, slot, end))
        if not len(at):
            return
        deep = slot >= end
        if deep.any():
            i = int(np.argmax(deep))
            raise LedgerMismatch(
                f"{f} at N={N}: p={q[i]}: n={lo + at[i]}: v_p(g(n)) >= {k}, "
                f"past Leg 1's {k - 1} layers of g"
            )
        cur //= q
        np.floor_divide.at(values, at, q)
        np.add.at(counts, slot, 1)
        slot += 1
        k += 1


def _large_hits(f, N, B, cofactors, lo, seed):
    """(q, n) hit rows of the primes q > B in ``cofactors`` (of
    n = lo, lo + 1, ...), each prime to B divided out: one row per prime
    factor with its multiplicity.

    A cofactor in (B, B^2) is prime unless a prime <= B was missed, and
    must pass a base-2 Fermat test; the larger ones go to
    primes.factorize_lanes, which takes an int64 or an object batch. A
    FactorTimeout names f, N, n and the cofactor.
    """
    n = np.flatnonzero(cofactors > 1)
    c = cofactors[n]
    n += lo
    below = c < B * B
    missed = c <= B
    missed[below] |= ~primes.fermat_base2(c[below])
    if missed.any():
        i = int(np.argmax(missed))
        raise LedgerMismatch(
            f"{f} at N={N}: the cofactor {c[i]} of f({n[i]}) is not a "
            "prime above B, so the sieve missed a prime <= B"
        )
    n_large, c_large = n[~below], c[~below]
    try:
        owner, q = primes.factorize_lanes(c_large, seed)
    except primes.FactorTimeout as exc:
        i = exc.owner
        raise primes.FactorTimeout(
            f"{f} at N={N}: n={n_large[i]}, cofactor {c_large[i]}: {exc}", i
        ) from exc
    hit = n_large[owner]
    missed = q <= B
    if missed.any():
        i = int(np.argmax(missed))
        raise LedgerMismatch(
            f"{f} at N={N}: prime {q[i]} <= B survived the sieve at n={hit[i]}"
        )
    return np.concatenate((c[below], q)), np.concatenate((n[below], hit))


def _merge_hits(run, rows):
    """Leg 3's ``run`` with the (q, n) hit rows of the list ``rows`` merged
    in; ``rows`` is emptied as it is read.

    A run is two columns (q, n), one row per unit of v_q(f(n)), sorted by
    (q, n). The new rows are sorted here, once; every n of them exceeds
    those of the run, so a row goes after the run's rows of its q.
    """
    rq, rn = run
    # the empty heads keep the run's dtypes, and serve N = 0, with no rows
    q = np.concatenate([rq[:0], *(q for q, _ in rows)])
    n = np.concatenate([rn[:0], *(n for _, n in rows)])
    rows.clear()
    order = np.lexsort((n, q))
    q, n = q[order], n[order]
    at = np.searchsorted(rq, q, side="right")
    return np.insert(rq, at, q), np.insert(rn, at, n)


def _group_run(q, n):
    """The p column, layer table and root table of the primes of a run
    (``_merge_hits``): the roots of q are its distinct n. A pair (q, n) of
    e = v_q(f(n)) rows adds one to each of the first e of q's layers, one
    slot each up to its largest e, so b_k counts its pairs with e >= k."""
    first = np.ones(len(q), dtype=bool)  # the first row of each q
    first[1:] = q[1:] != q[:-1]
    p = q[first]
    pair = first.copy()  # the first row of each (q, n)
    pair[1:] |= n[1:] != n[:-1]
    if pair.all():  # every e is 1, so each q has one layer
        roots = Csr(np.append(np.flatnonzero(first), len(n)), n)
        return p, Csr(np.arange(len(p) + 1), roots.lengths()), roots
    at = np.flatnonzero(pair)
    e = np.diff(at, append=len(q))
    n, first = n[at], first[at]
    starts = np.flatnonzero(first)
    offsets = np.concatenate(([0], np.cumsum(np.maximum.reduceat(e, starts))))
    # row j of pair i, at at[i] + j, counts at slot offsets[q's group] + j
    slot = np.repeat(offsets[np.cumsum(first) - 1] - at, e) + np.arange(len(q))
    layers = Csr(offsets, np.bincount(slot, minlength=offsets[-1]))
    return p, layers, Csr(np.append(starts, len(n)), n)


def build_ledger(f: IntPoly, N, seed=0, workers=1):
    """The exact FactorLedger of Q(N), sieved up to B = D*N: the pass of
    ``iter_ledgers`` with the one checkpoint N."""
    (ledger,) = iter_ledgers(f, [N], seed=seed, workers=workers)
    return ledger


def iter_ledgers(f: IntPoly, schedule, seed=0, workers=1):
    """An iterator of build_ledger(f, N) for each N of the strictly increasing
    ``schedule``, from one pass sieved up to B = D*N for its largest N.

    Leg 1 runs once. Legs 2 and 3 walk n upward in segments that end at
    each checkpoint, where the ledger of that N is made and yielded before
    any larger n is read. A rho timeout at n thus ends the pass after the
    ledgers of every N < n. A bad schedule raises at the call, not the pass.
    """
    schedule = list(schedule)
    for a, b in zip(schedule, schedule[1:]):
        if b <= a:
            raise ValueError(f"schedule must be strictly increasing: {b} follows {a}")
    return _pass(f, schedule, seed, workers)


def _pass(f, schedule, seed, workers):
    """The generator of ``iter_ledgers`` over its checked ``schedule``."""
    if not schedule:
        return
    N = schedule[-1]
    B = f.profile.D * N
    g = primitive_part(f)
    zeros = f.profile.integer_roots_in_range(N)
    cols = PrimeColumns.concat(_leg1(f.coeffs, B, N, zeros, seed, workers))
    dtype = np.int64 if polynomial.value_bound(g, N) < primes.INT64_LIMIT else object
    # the least n >= 1 of each level-1 progression r mod p, and p's row
    row, r = np.repeat(np.arange(len(cols.p)), cols.roots.lengths()), cols.roots.values
    prog = (np.where(r >= 1, r, cols.p[row]), row)
    counts = np.zeros(cols.slots[-1], dtype=np.int64)
    # Leg 3's run, and its hit rows of the segments since the last checkpoint
    run, rows = (np.zeros(0, dtype=dtype), np.zeros(0, dtype=np.int64)), []
    lo = 1
    for n_max in schedule:
        while lo <= n_max:
            hi = min(lo + SEGMENT_SIZE - 1, n_max)
            values = _abs_values(g, lo, hi, dtype)
            _divide_segment(f, n_max, values, lo, cols, prog, counts)
            rows.append(_large_hits(f, n_max, B, values, lo, seed))
            lo = hi + 1
        run = _merge_hits(run, rows)
        yield _checkpoint(f, n_max, cols, counts, run)


def _checkpoint(f, N, cols, counts, run):
    """The FactorLedger of Q(N) at a checkpoint of a pass, once every n <= N
    is sieved. ``counts`` holds the layers of g Leg 2 counted, in the slots
    of the PrimeColumns ``cols``, and ``run`` Leg 3's (q, n) rows of every
    n <= N (``_merge_hits``).

    Leg 1's count of every layer of g must equal its slot's. Every Leg 1
    prime with a hit keeps Leg 1's layers, and its level-1 roots: all of
    them up to D*N, and above D*N those in [1, N] that are no zeros of f.
    Leg 3's primes, all above B, follow with the layers and roots that
    ``_group_run`` reads off the run.
    """
    b, analytic = cols.layers(N, len(f.profile.integer_roots_in_range(N)))
    if not np.array_equal(analytic, counts):
        slot = int(np.argmax(analytic != counts))
        i = int(np.searchsorted(cols.slots, slot, side="right")) - 1
        at = slice(cols.slots[i], cols.slots[i + 1])
        raise LedgerMismatch(
            f"{f} at N={N}: p={cols.p[i]}: analytic layers "
            f"{tuple(analytic[at].tolist())} != sieved {tuple(counts[at].tolist())}"
        )

    keep = b > 0
    row = cols._runs[1][keep]
    kept = np.zeros(len(cols.p), dtype=bool)
    kept[row] = True
    first = np.flatnonzero(np.diff(row, prepend=-1))
    p, hit_layers, hit_roots = _group_run(*run)
    return FactorLedger(
        f=f,
        N=N,
        p=_int_column(np.concatenate((cols.p[kept], p))),
        layers=Csr(np.append(first, len(row)), b[keep]).concat(hit_layers),
        roots=cols.roots.take(kept, cols.kept_roots(f, N)).concat(hit_roots),
    )
