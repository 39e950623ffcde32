"""Scalar statistics derived from a FactorLedger.

Zone decomposition (p <= N, N < p <= DN, p > DN), log of the LCM and its
radical, conjecture ratios, and multi-N sweeps from one ledger pass. All
log-space sums use natural log with Kahan compensation.
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
    """One SweepRecord per N of the strictly increasing ``schedule``, all
    from one ledger pass up to its largest N (``sieve.iter_ledgers``).

    Each record goes to ``sink`` as soon as its N is passed; its
    ``seconds`` is the time since the previous record, or since the start.
    Returns (records, gaps). A rho timeout at some n ends the pass, and
    every N >= n becomes a gap; any other error, such as a LedgerMismatch,
    propagates with a note naming f and the N in progress.
    """
    schedule = list(schedule)
    ledgers = sieve.iter_ledgers(f, schedule, seed=seed, workers=workers)
    records = []
    gaps = []
    t0 = time.perf_counter()
    for N in schedule:
        try:
            record = summarize(next(ledgers))
        except primes.FactorTimeout as exc:
            error = f"{type(exc).__name__}: {exc}"
            gaps = [(n, error) for n in schedule[len(records) :]]
            break
        except Exception as exc:
            exc.add_note(f"while sweeping {f} at N={N}")
            raise
        t1 = time.perf_counter()
        records.append(dataclasses.replace(record, seconds=t1 - t0))
        t0 = t1
        if sink is not None:
            sink(records[-1])
    return records, gaps
