"""Brute-force ground truth at small N.

Deliberately shares no factorization or lcm code with the sieve pipeline:
values are factored by direct trial division (falling back to sympy for
any hard leftover) and the LCM is accumulated by gcd, so agreement with
build_ledger is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polynomial
from .polynomial import IntPoly
from .sieve import FactorLedger, PrimeLocalData

HARD_CAP = 10**4
_TRIAL_LIMIT = 10**6


class OracleCapped(ValueError):
    """N exceeds HARD_CAP, beyond which brute force is too slow."""


@dataclass(frozen=True)
class OracleResult:
    N: int
    lcm_value: int
    rad_value: int
    ledger: FactorLedger


def trial_factor(n):
    """Factor n >= 1 by trial division to 10^6, sympy beyond; dict p->e."""
    m = n
    out = {}
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    d = 5
    while d <= _TRIAL_LIMIT and d * d <= m:
        for q in (d, d + 2):
            while m % q == 0:
                out[q] = out.get(q, 0) + 1
                m //= q
        d += 6
    if m > 1:
        if d * d > m:
            out[m] = out.get(m, 0) + 1
        else:
            import sympy  # slow to import; only this fallback needs it

            for p, e in sympy.factorint(m).items():
                out[int(p)] = out.get(int(p), 0) + int(e)
    return out


def log_big(n):
    """Natural log of a positive big integer, ~1e-15 relative accuracy."""
    if n <= 0:
        raise ValueError("log_big needs n > 0")
    e = n.bit_length() - 53
    if e <= 0:
        return math.log(n)
    return math.log(n >> e) + e * math.log(2)


def naive_run(f: IntPoly, N) -> OracleResult:
    """Exact lcm, radical, and naively built ledger for f over [1, N]."""
    if N > HARD_CAP:
        raise OracleCapped(f"oracle capped at N = {HARD_CAP}")
    prof = polynomial.profile(f)
    stats = {}  # p -> list of per-n valuations
    lcm_value = 1
    skipped = 0
    for n in range(1, N + 1):
        v = f.eval(n)
        if v == 0:
            skipped += 1
            continue
        a = abs(v)
        lcm_value = lcm_value * a // math.gcd(lcm_value, a)
        for p, e in trial_factor(a).items():
            stats.setdefault(p, []).append(e)
    entries = {}
    for p, vals in sorted(stats.items()):
        entries[p] = PrimeLocalData(
            p=p,
            layer_counts=tuple(
                sum(1 for v in vals if v >= i) for i in range(1, max(vals) + 1)
            ),
            roots=(),
        )
    rad_value = 1
    reconstructed = 1
    for p, data in entries.items():
        rad_value *= p
        reconstructed *= p**data.max_exp
    if reconstructed != lcm_value:
        raise AssertionError(
            "ledger-reconstructed lcm disagrees with gcd-chain lcm"
        )
    ledger = FactorLedger.from_entries(
        f=f, N=N, entries=entries, skipped_zero_count=skipped, profile=prof
    )
    return OracleResult(
        N=N, lcm_value=lcm_value, rad_value=rad_value, ledger=ledger
    )
