"""Exact prime-exponent ledger of Q(N) = prod |f(n)|.

The sieve bound is B = D*N. Three legs: analytic per-prime data for
p <= B via root lifting, a segmented residual-division pass over n in
[1, N] that cross-checks the analytic totals, and rho factorization of the
surviving cofactors (all of whose primes exceed B).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import modular, primes, polynomial
from .modular import RootSet, count_progression, lift_roots
from .polynomial import IntPoly, PolyProfile


class LedgerMismatch(RuntimeError):
    """Analytic per-prime totals disagree with the sieved exponents."""


SEGMENT_SIZE = 1 << 16  # values of f held at once by Leg 2
RHO_MAX_ITERS = 1 << 20
RHO_ATTEMPTS = 8


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

    def layer(self, i):
        """b_i for i >= 1."""
        if i < 1:
            raise ValueError("layers are 1-indexed")
        return self.layer_counts[i - 1] if i <= len(self.layer_counts) else 0


@dataclass
class FactorLedger:
    """The exact factorization of Q(N) for one (f, N) run."""

    f: IntPoly
    N: int
    entries: dict  # prime -> PrimeLocalData
    skipped_zero_count: int
    profile: PolyProfile

    @property
    def B(self):
        """The sieve bound D*N."""
        return self.profile.D * self.N

    def primes_above(self, bound):
        return sorted(p for p in self.entries if p > bound)


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


def _local_block(args):
    """PrimeLocalData of the primes of one block that divide Q(N)."""
    coeffs, block, N, cap, seed, zeros = args
    f = IntPoly(coeffs)
    out = []
    for rs in modular.roots_mod_primes(f, block, seed):
        data = local_data(f, rs, N, cap, zeros=zeros)
        if data.alpha > 0:
            out.append(data)
    return out


def factor_cofactor(c, seed=0):
    """Factor a residual cofactor (all prime factors exceed the sieve
    bound) into a sorted list of (prime, exponent)."""
    if c <= 1:
        raise ValueError("cofactor must exceed 1")
    return primes.factorize(
        c, seed=seed, max_iters=RHO_MAX_ITERS, attempts=RHO_ATTEMPTS
    )


def build_ledger(f: IntPoly, N, seed=0, workers=1):
    """The exact FactorLedger of Q(N), sieved up to B = D*N."""
    prof = polynomial.profile(f)
    B = prof.D * N
    cap = polynomial.value_bound(f, N)
    zeros = prof.integer_roots_in_range(N)

    # Leg 1: analytic data for every prime <= B with a root, one block of
    # primes per roots_mod_primes call.
    entries = {}
    prime_list = primes.sieve_primes(B)
    size = modular.BLOCK_SIZE
    blocks = [
        (f.coeffs, prime_list[i : i + size], N, cap, seed, zeros)
        for i in range(0, len(prime_list), size)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_local_block, blocks))
    else:
        results = map(_local_block, blocks)
    for block_result in results:
        for data in block_result:
            entries[data.p] = data

    # Leg 2 + 3: segmented residual division and cofactor factorization.
    removed = {p: 0 for p in entries}
    large = {}  # prime > B -> tuple of (n, valuation) in n order
    skipped = 0
    lo = 1
    while lo <= N:
        hi = min(lo + SEGMENT_SIZE - 1, N)
        values = [abs(f.eval(n)) for n in range(lo, hi + 1)]
        for n0 in zeros:
            if lo <= n0 <= hi:
                skipped += 1
        for p, data in entries.items():
            for r in data.roots:
                start = lo + (r - lo) % p
                for n in range(start, hi + 1, p):
                    if values[n - lo] == 0:
                        continue
                    v = values[n - lo]
                    e = 0
                    while v % p == 0:
                        v //= p
                        e += 1
                    values[n - lo] = v
                    removed[p] += e
        for idx, v in enumerate(values):
            if v <= 1:
                continue
            if v < B * B:
                fac = [(v, 1)]  # all factors > B and v < B^2 forces primality
            else:
                fac = factor_cofactor(v, seed=seed)
            for q, e in fac:
                if q <= B:
                    raise LedgerMismatch(
                        f"prime {q} <= B survived the sieve at n={lo + idx}"
                    )
                large[q] = large.get(q, ()) + ((lo + idx, e),)
        lo = hi + 1

    for p, data in entries.items():
        if removed[p] != data.alpha:
            raise LedgerMismatch(
                f"p={p}: analytic alpha {data.alpha} != sieved {removed[p]}"
            )

    for q, hits in large.items():
        vals = [e for _, e in hits]
        layers = tuple(
            sum(1 for v in vals if v >= i) for i in range(1, max(vals) + 1)
        )
        entries[q] = PrimeLocalData(p=q, layer_counts=layers, roots=(), hits=hits)

    entries = dict(sorted(entries.items()))
    return FactorLedger(
        f=f, N=N, entries=entries, skipped_zero_count=skipped, profile=prof
    )
