"""Scalar statistics derived from a FactorLedger.

Zone decomposition (p <= N, N < p <= DN, p > DN), log of the LCM and its
radical, conjecture ratios, and multi-N sweeps. All log-space sums use
natural log with Kahan compensation.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from . import primes, sieve
from .polynomial import IntPoly


def _kahan_sum(terms):
    """Compensated sum of ``terms`` in order; sweeps add ~1e6 log terms."""
    s = c = 0.0
    for x in terms:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


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
    N = ledger.N
    # ascending p, math.log and one sequential sum per statistic keep
    # every float, and so the CSV, byte-reproducible
    logs = [math.log(p) for p in ledger.p.tolist()]
    alpha = ledger.alpha
    contrib = [a * lp for a, lp in zip(alpha.tolist(), logs)]
    small, linear = np.searchsorted(ledger.p, (N, ledger.B), side="right").tolist()
    log_q = _kahan_sum(contrib)
    log_qs = _kahan_sum(contrib[:small])
    log_qli = _kahan_sum(contrib[small:linear])
    log_ql = _kahan_sum(contrib[linear:])
    log_l = _kahan_sum([m * lp for m, lp in zip(ledger.max_exp.tolist(), logs)])
    log_rad = _kahan_sum(logs)
    norm = (d - 1) * N * math.log(N) if d >= 2 and N >= 2 else 0.0
    norm_qs = N * math.log(N) if N >= 2 else 0.0
    return SweepRecord(
        N=N,
        log_Q=log_q,
        log_QS=log_qs,
        log_QLI=log_qli,
        log_QL=log_ql,
        log_L=log_l,
        log_rad=log_rad,
        ratio_L=log_l / norm if norm else math.nan,
        ratio_rad=log_rad / norm if norm else math.nan,
        ratio_QS=log_qs / norm_qs if norm_qs else math.nan,
        n_primes=len(ledger.p),
        n_squareful=int(np.count_nonzero(alpha >= 2)),
        n_repeated=int(np.count_nonzero(ledger.hit_count >= 2)),
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

