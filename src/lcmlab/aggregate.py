"""Scalar statistics derived from a FactorLedger.

Zone decomposition (p <= N, N < p <= DN, p > DN), log of the LCM and its
radical, conjecture ratios, and multi-N sweeps. All log-space sums use
natural log with Kahan compensation.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass

from . import modular, primes, sieve
from .polynomial import IntPoly


class _Kahan:
    """Compensated summation; sweeps accumulate ~1e6 log terms."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t

    @property
    def value(self):
        return self.s


@dataclass(frozen=True)
class SweepRecord:
    """One row of derived statistics at a given N."""

    N: int
    log_Q: float
    log_QS: float
    log_QLI: float
    log_QL: float
    log_L: float  # sum of max-exponent * ln p: log of the LCM
    log_rad: float  # sum of ln p over primes dividing Q(N)
    ratio_L: float  # log_L / ((d-1) N ln N); NaN when undefined
    ratio_rad: float
    ratio_QS: float  # log_QS / (N ln N)
    n_primes: int
    n_squareful: int  # primes with p^2 | Q(N)
    n_repeated: int  # primes hit by >= 2 distinct n
    seconds: float = 0.0


def summarize(ledger: sieve.FactorLedger) -> SweepRecord:
    """Zone sums and counts from a complete ledger."""
    d = ledger.f.degree
    D = ledger.profile.D
    N = ledger.N
    q, qs, qli, ql, lsum, rad = (_Kahan() for _ in range(6))
    n_squareful = 0
    n_repeated = 0
    for p, data in sorted(ledger.entries.items()):
        lp = math.log(p)
        layers = data.layer_counts
        alpha = sum(layers)
        contrib = alpha * lp
        q.add(contrib)
        if p <= N:
            qs.add(contrib)
        elif p <= D * N:
            qli.add(contrib)
        else:
            ql.add(contrib)
        lsum.add(len(layers) * lp)
        rad.add(lp)
        if alpha >= 2:
            n_squareful += 1
        if layers and layers[0] >= 2:
            n_repeated += 1
    norm = (d - 1) * N * math.log(N) if d >= 2 and N >= 2 else 0.0
    norm_qs = N * math.log(N) if N >= 2 else 0.0
    return SweepRecord(
        N=N,
        log_Q=q.value,
        log_QS=qs.value,
        log_QLI=qli.value,
        log_QL=ql.value,
        log_L=lsum.value,
        log_rad=rad.value,
        ratio_L=lsum.value / norm if norm else math.nan,
        ratio_rad=rad.value / norm if norm else math.nan,
        ratio_QS=qs.value / norm_qs if norm_qs else math.nan,
        n_primes=len(ledger.entries),
        n_squareful=n_squareful,
        n_repeated=n_repeated,
    )


def sweep(f: IntPoly, schedule, sink=None, seed=0, workers=1):
    """One SweepRecord per N, each from a fresh ledger build.

    Returns (records, gaps); an N whose cofactor factoring timed out
    becomes a gap. Any other error, such as a LedgerMismatch, propagates
    with a note naming f and N.
    """
    schedule = list(schedule)
    if any(b >= a for a, b in zip(schedule[1:], schedule)):
        raise ValueError("schedule must be strictly increasing")
    records = []
    gaps = []
    for N in schedule:
        t0 = time.perf_counter()
        try:
            ledger = sieve.build_ledger(f, N, seed=seed, workers=workers)
            record = summarize(ledger)
        except primes.FactorTimeout as exc:
            gaps.append((N, f"{type(exc).__name__}: {exc}"))
            continue
        except Exception as exc:
            exc.add_note(f"while sweeping {f} at N={N}")
            raise
        record = dataclasses.replace(record, seconds=time.perf_counter() - t0)
        records.append(record)
        if sink is not None:
            sink(record)
    return records, gaps


def chebotarev_partial_sum(f: IntPoly, B, seed=0):
    """sum over p <= B of rho_f(p) * ln p / (p - 1); grows like ln B."""
    if B < 2:
        raise ValueError("B must be >= 2")
    acc = _Kahan()
    prime_iter = primes.iter_primes(B)
    while block := list(itertools.islice(prime_iter, modular.BLOCK_SIZE)):
        for rs in modular.roots_mod_primes(f, block, seed):
            if rs.roots:
                acc.add(len(rs.roots) * math.log(rs.p) / (rs.p - 1))
    return acc.value
