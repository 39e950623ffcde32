"""Scalar statistics derived from a FactorLedger.

Zone decomposition (p <= N, N < p <= DN, p > DN), log of the LCM and its
radical, conjecture ratios, and multi-N sweeps from one ledger pass.

Every log-space sum is exact, rounded once, so it is ``math.fsum`` of its
terms in any order, and the CSV is byte-reproducible. A term, such as
alpha * log p, is one float64 product in numpy (the same IEEE multiply as
Python's int * float, every exponent being below 2^53) over a natural log
from ``math.log`` (``np.log`` may differ in the last bit). ``summarize``
holds the columns of one chunk of at most ``CHUNK`` primes at a time, and
``log_Q`` is the exact total of its three zones. A sweep takes the log of
each prime once: every ledger of a pass holds the primes of the one before.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from . import primes, sieve
from .polynomial import IntPoly

CHUNK = 1 << 16  # primes per chunk of a summarize pass, at most 2^16


def _exact_sum(terms):
    """The exact sum of the float64 ``terms``, at most 2^16 of them, each in
    [1/2, 2^30), as an int in units of 2^-53. Each t * 2^17, a multiple of
    2^-36 below 2^47, splits into an int64 integer part (sums below 2^63)
    and a fraction (sums are multiples of 2^-36 below 2^16: exact floats)."""
    low, high = terms.min(initial=0.5), terms.max(initial=0.5)
    if not (low >= 0.5 and high < 2.0**30):
        raise ValueError(f"log terms from {low} to {high} leave [1/2, 2^30)")
    scaled = terms * 2.0**17
    whole = scaled.astype(np.int64)
    scaled -= whole
    return (int(whole.sum()) << 36) + int(scaled.sum() * 2.0**36)


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
    return _summarize(ledger, None)


def _summarize(ledger, logs):
    """summarize, with logs[i] = math.log(ledger.p[i]) when given."""
    N = ledger.N
    small, linear = np.searchsorted(ledger.p, (N, ledger.B), side="right").tolist()
    sums = [0] * 5  # exact: log_QS, log_QLI, log_QL, log_L and log_rad
    n_squareful = n_repeated = 0
    for lo in range(0, len(ledger.p), CHUNK):
        part = ledger.rows(lo, min(lo + CHUNK, len(ledger.p)))
        if logs is None:
            lp = np.fromiter(map(math.log, part.p.tolist()), float, len(part.p))
        else:
            lp = logs[lo : lo + CHUNK]
        alpha = part.alpha
        # the chunk's terms in each zone: [0, a), [a, b) and [b, len)
        a, b = (min(max(x - lo, 0), len(lp)) for x in (small, linear))
        terms = alpha * lp
        columns = (terms[:a], terms[a:b], terms[b:], part.max_exp * lp, lp)
        try:
            sums = [s + _exact_sum(t) for s, t in zip(sums, columns)]
        except ValueError as exc:
            raise ValueError(f"{ledger.f} at N={N}: {exc}") from None
        del terms, columns  # freed before the next chunk's are made
        n_squareful += int(np.count_nonzero(alpha >= 2))
        n_repeated += int(np.count_nonzero(part.hit_count >= 2))
    log_qs, log_qli, log_ql, log_l, log_rad = (s / 2**53 for s in sums)
    log_q = sum(sums[:3]) / 2**53
    log_n = math.log(N) if N >= 2 else 0.0
    norm = (ledger.f.degree - 1) * N * log_n
    norm_qs = N * log_n
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
        n_squareful=n_squareful,
        n_repeated=n_repeated,
    )


def _pass_logs(ledgers):
    """(ledger, logs) for each ledger of a pass, with logs[i] =
    math.log(ledger.p[i]). A ledger holds every prime of the one before it,
    so each prime's log is taken once, at the first ledger that holds it."""
    p, logs = np.zeros(0, dtype=np.int64), np.zeros(0)
    for ledger in ledgers:
        at = np.searchsorted(ledger.p, p)
        new = np.ones(len(ledger.p), dtype=bool)
        new[at] = False
        p, old, logs = ledger.p, logs, np.empty(len(ledger.p))
        logs[at] = old
        logs[new] = [math.log(x) for x in p[new].tolist()]
        yield ledger, logs


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
    ledgers = _pass_logs(sieve.iter_ledgers(f, schedule, seed=seed, workers=workers))
    records = []
    gaps = []
    t0 = time.perf_counter()
    for N in schedule:
        try:
            record = _summarize(*next(ledgers))
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
