"""Scalar statistics derived from a FactorLedger.

Zone decomposition (p <= N, N < p <= DN, p > DN), log of the LCM and its
radical, conjecture ratios, and multi-N sweeps from one ledger pass.

Every log-space sum is one Kahan pass in ascending p over natural logs
from ``math.log`` (``np.log`` may differ in the last bit), which keeps
every float, and so the CSV, byte-reproducible. A pass runs over chunks
of at most ``CHUNK`` primes, carrying its running sum and compensation
from chunk to chunk, so ``summarize`` holds the columns of one chunk at
a time; ``log_QS`` is log_Q's state after the primes up to N. Each term,
such as alpha * log p, is one float64 product in numpy, the same IEEE
multiply as Python's int * float, since every exponent is below 2^53;
the loop reads the column through a memoryview, which yields its floats
one at a time. A sweep takes the log of each prime once: every ledger of
a pass holds the primes of the one before it.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from . import primes, sieve
from .polynomial import IntPoly

CHUNK = 1 << 16  # primes per chunk of a summarize pass


def _kahan_sum(terms, state=(0.0, 0.0)):
    """The compensated sum (s, c) of ``terms`` in order, continuing the
    running sum s and compensation c of ``state``; s is the sum."""
    s, c = state
    for x in terms:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
    return s, c


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
    d = ledger.f.degree
    N = ledger.N
    small, linear = np.searchsorted(ledger.p, (N, ledger.B), side="right").tolist()
    # the Kahan state (s, c) of each sum, s being the sum
    log_q = log_qs = log_qli = log_ql = log_l = log_rad = (0.0, 0.0)
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
        terms = memoryview(alpha * lp)
        # log_QS is log_Q's running state after its first ``small`` terms
        log_q = _kahan_sum(terms[:a], log_q)
        if lo + a == small:
            log_qs = log_q
        log_q = _kahan_sum(terms[a:], log_q)
        log_qli = _kahan_sum(terms[a:b], log_qli)
        log_ql = _kahan_sum(terms[b:], log_ql)
        log_l = _kahan_sum(memoryview(part.max_exp * lp), log_l)
        log_rad = _kahan_sum(memoryview(lp), log_rad)
        n_squareful += int(np.count_nonzero(alpha >= 2))
        n_repeated += int(np.count_nonzero(part.hit_count >= 2))
    log_q, log_qs, log_qli, log_ql, log_l, log_rad = (
        s for s, _ in (log_q, log_qs, log_qli, log_ql, log_l, log_rad)
    )
    log_n = math.log(N) if N >= 2 else 0.0
    norm = (d - 1) * N * log_n if d >= 2 else 0.0
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
