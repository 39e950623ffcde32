"""Verification of the structural bounds against exact ledger data.

Checks with explicit finite bounds (alpha <= d^2, alpha <= d(d-1)/2,
b_i <= d-i, the symmetric-sum ratio range, integrality/divisibility of the
divided-difference quantity A) are asserted; statements whose constants
the theory leaves unspecified (Hensel deviation, squareful-prime ratios)
are report-only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from . import aggregate
from .polynomial import IntPoly
from .sieve import FactorLedger, build_ledger, content_layers


class NonIntegral(ArithmeticError):
    """The divided-difference sum failed to be an integer (impossible for
    a correct implementation; kept as a tripwire)."""


@dataclass
class VerificationReport:
    check_name: str
    poly: str
    N: int | None
    parameters: dict = field(default_factory=dict)
    status: str = "pass"  # "pass" | "fail" | "not-applicable"
    violations: list = field(default_factory=list)
    empirical_constants: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "check_name": self.check_name,
            "poly": self.poly,
            "N": self.N,
            "parameters": self.parameters,
            "status": self.status,
            "violations": [list(v) for v in self.violations],
            "empirical_constants": self.empirical_constants,
        }


def _finish(report, applicable=True):
    if not applicable:
        report.status = "not-applicable"
    else:
        report.status = "fail" if report.violations else "pass"
    return report


def check_naive_multiplicity(ledger: FactorLedger) -> VerificationReport:
    """alpha_p <= d^2 for p > N, plus the proof's sub-claims
    hit_count <= d and max_exp <= d."""
    d = ledger.f.degree
    report = VerificationReport(
        check_name="naive_multiplicity",
        poly=str(ledger.f),
        N=ledger.N,
        parameters={"bound": d * d},
    )
    above = ledger.p > ledger.N
    worse = (ledger.alpha > d * d) | (ledger.hit_count > d) | (ledger.max_exp > d)
    for p in ledger.p[above & worse].tolist():
        data = ledger.entries[p]
        if data.alpha > d * d:
            report.violations.append((p, "alpha", data.alpha, d * d))
        if data.hit_count > d:
            report.violations.append((p, "hit_count", data.hit_count, d))
        if data.max_exp > d:
            report.violations.append((p, "max_exp", data.max_exp, d))
    return _finish(report, applicable=bool(above.any()))


def check_refined_multiplicity(ledger: FactorLedger) -> VerificationReport:
    """alpha_p <= d(d-1)/2 and b_i <= d-i for p > DN (i = 1 covers the
    hit_count <= d-1 bound)."""
    d = ledger.f.degree
    bound = d * (d - 1) // 2
    DN = ledger.profile.D * ledger.N
    report = VerificationReport(
        check_name="refined_multiplicity",
        poly=str(ledger.f),
        N=ledger.N,
        parameters={"bound": bound, "DN": DN},
    )
    above = ledger.p > DN
    worse = ledger.alpha > bound
    for i in range(1, d + 1):
        worse |= ledger.layer(i) > d - i
    for p in ledger.p[above & worse].tolist():
        data = ledger.entries[p]
        if data.alpha > bound:
            report.violations.append((p, "alpha", data.alpha, bound))
        for i in range(1, d + 1):
            if data.layer(i) > d - i:
                report.violations.append((p, f"b_{i}", data.layer(i), d - i))
    return _finish(report, applicable=bool(above.any()))


def refined_multiplicity_threshold(ledger: FactorLedger):
    """Smallest N0 such that the refined-multiplicity check has no
    violation for any N in [N0, ledger.N]; 1 if it never fails.

    For each p > D, the check applies at every N < p/D; the hits of p up
    to that N are read off the ledger, so nothing is factored again.
    """
    d = ledger.f.degree
    D = ledger.profile.D
    worst = 0
    # a violation needs two hits, or one hit with v_p(f(n)) >= d
    maybe = (ledger.p > D) & ((ledger.hit_count >= 2) | (ledger.max_exp >= d))
    for p in ledger.p[maybe].tolist():
        n_upper = min(ledger.N, (p - 1) // D)  # N values with p > D*N
        hits = prime_hits(ledger, p, n_upper)
        for i in range(1, d + 1):
            ns = [n for n, v in hits if v >= i]
            if len(ns) > d - i:
                worst = max(worst, n_upper)  # the (d-i+1)-th hit is <= n_upper
    return worst + 1


def check_hensel_formula(ledger: FactorLedger) -> VerificationReport:
    """Report-only: deviation of alpha_p from N rho_f(p)/(p-1) for
    unramified p <= N, scaled by ln p / ln N, with rho_f(p) read off the
    ledger's level-1 roots; ramified primes report alpha * p / N."""
    N = ledger.N
    report = VerificationReport(
        check_name="hensel_formula",
        poly=str(ledger.f),
        N=N,
        parameters={},
    )
    if N < 2:
        return _finish(report, applicable=False)
    disc = ledger.profile.disc
    devs = []
    ram_stats = {}
    upto = ledger.p <= N
    columns = (ledger.p, ledger.alpha, ledger.roots.lengths())
    for p, alpha, rho in zip(*(col[upto].tolist() for col in columns)):
        if disc % p == 0:
            ram_stats[str(p)] = alpha * p / N
            continue
        dev = abs(alpha - N * rho / (p - 1)) * math.log(p) / math.log(N)
        devs.append(dev)
    if devs:
        devs.sort()
        report.empirical_constants = {
            "max_dev": devs[-1],
            "median_dev": devs[len(devs) // 2],
            "mean_dev": sum(devs) / len(devs),
            "n_primes": len(devs),
        }
    report.empirical_constants.update(
        {f"ramified_{k}": v for k, v in ram_stats.items()}
    )
    return _finish(report, applicable=bool(devs or ram_stats))


def complete_homogeneous(s, points):
    """h_s(points): sum of all degree-s monomials, exact."""
    if s < 0:
        raise ValueError("s must be >= 0")
    h = [0] * (s + 1)
    h[0] = 1
    for m in points:
        for j in range(1, s + 1):
            h[j] += m * h[j - 1]
    return h[s]


def divided_difference_A(f: IntPoly, points):
    """The divided-difference integer A for f at t distinct points,
    computed two ways (exact rational defining sum and the complete
    homogeneous symmetric expansion) and cross-asserted."""
    points = list(points)
    t = len(points)
    d = f.degree
    if not 2 <= t <= d + 1:
        raise ValueError(f"need 2 <= t <= d+1 points, got {t}")
    if len(set(points)) != t:
        raise ValueError("points must be distinct")
    direct = Fraction(0)
    for j, mj in enumerate(points):
        denom = 1
        for k, mk in enumerate(points):
            if k != j:
                denom *= mj - mk
        direct += Fraction(f.eval(mj), denom)
    i = d - t + 1  # expansion truncates at ell >= d - i
    expansion = 0
    for ell in range(d - i, d + 1):
        expansion += f.coeffs[ell] * complete_homogeneous(ell - (d - i), points)
    if direct.denominator != 1:
        raise NonIntegral(f"A = {direct} at points {points}")
    if direct != expansion:
        raise NonIntegral(
            f"routes disagree: {direct} vs {expansion} at points {points}"
        )
    return int(direct)


def prime_hits(ledger: FactorLedger, p, limit):
    """(n, v_p(f(n))) for each n <= limit that p divides, in n order.

    Primes above the sieve bound carry their hits. Below it, ``limit``
    must be under p, so each root of f mod p yields at most one hit, the
    root itself; a prime of the content of f divides every f(n), so every
    n <= limit is a hit.
    """
    data = ledger.entries[p]
    if p > ledger.B:
        return [(n, v) for n, v in data.hits if n <= limit]
    every = content_layers(ledger.f, p, limit)
    hits = []
    for r in (range(1, limit + 1) if every else data.roots):
        if not 1 <= r <= limit:
            continue
        fn = abs(ledger.f.eval(r))
        v = 0
        while fn and fn % p == 0:
            fn //= p
            v += 1
        if v:
            hits.append((r, v))
    return hits


def harvest_divisibility_tuples(ledger: FactorLedger, above="N", limit=200):
    """Qualifying (p, i, points) tuples read off the ledger for primes
    above N (or DN): points are the n <= N hit by p with v_p(f(n)) >= i,
    taken when exactly enough for arity d - i + 1."""
    d = ledger.f.degree
    N = ledger.N
    bound = N if above == "N" else ledger.profile.D * N
    tuples = []
    # every tuple has t >= 2 points, so only primes with two hits qualify
    for p in ledger.p[(ledger.p > bound) & (ledger.hit_count >= 2)].tolist():
        hits = prime_hits(ledger, p, N)
        for i in range(1, d + 1):
            t = d - i + 1
            if t < 2:
                continue
            ns = [n for n, v in hits if v >= i]
            if len(ns) >= t:
                for combo in combinations(ns, t):
                    tuples.append((p, i, combo))
                    if len(tuples) >= limit:
                        return tuples
    return tuples


def check_divided_difference(
    ledger: FactorLedger, seed=0, trials=1000
) -> VerificationReport:
    """Random two-route agreement trials for A plus divisibility and
    nonvanishing of A on every ledger-harvested tuple above DN."""
    f = ledger.f
    d = f.degree
    report = VerificationReport(
        check_name="divided_difference",
        poly=str(f),
        N=ledger.N,
        parameters={"trials": trials},
    )
    rng = random.Random(seed)
    for _ in range(trials):
        t = rng.randint(2, d + 1)
        points = rng.sample(range(1, 10**6), t)
        try:
            divided_difference_A(f, points)
        except NonIntegral as exc:
            report.violations.append((tuple(points), "non-integral", str(exc), 0))
    irreducible = ledger.profile.irreducible_hint in ("proved", "assumed")
    harvested = harvest_divisibility_tuples(ledger, above="DN")
    for p, i, combo in harvested:
        A = divided_difference_A(f, list(combo))
        if A % p**i != 0:
            report.violations.append((combo, f"p^{i} | A", A, p**i))
        if irreducible and A == 0:
            report.violations.append((combo, "A != 0", 0, "nonzero"))
    report.empirical_constants["harvested_tuples"] = len(harvested)
    return _finish(report)


def check_amgm_ratio(d, i, ell, points) -> VerificationReport:
    """The symmetric-sum ratio h_{ell-(d-i)}(m) / sum m_j^{ell-(d-i)} lies
    in [1, C(ell, d-i)/(d-i+1)], and that sharp bound is <= 2^d."""
    points = list(points)
    t = d - i + 1
    report = VerificationReport(
        check_name="amgm_ratio",
        poly="",
        N=None,
        parameters={"d": d, "i": i, "ell": ell, "points": points},
    )
    if not (1 <= i <= d) or not (d - i <= ell <= d) or len(points) != t:
        raise ValueError("need 1 <= i <= d, d-i <= ell <= d, d-i+1 points")
    if any(m <= 0 for m in points):
        raise ValueError("points must be positive")
    s = ell - (d - i)
    if s == 0:
        # numerator h_0 = 1 vs denominator t: the bracket presumes s > 0
        return _finish(report, applicable=False)
    num = complete_homogeneous(s, points)
    den = sum(m**s for m in points)
    ratio = Fraction(num, den)
    sharp = Fraction(comb(ell, d - i), d - i + 1)
    report.empirical_constants["ratio"] = float(ratio)
    report.empirical_constants["sharp_bound"] = float(sharp)
    if ratio < 1:
        report.violations.append((tuple(points), "ratio >= 1", float(ratio), 1))
    if ratio > sharp:
        report.violations.append(
            (tuple(points), "ratio <= sharp", float(ratio), float(sharp))
        )
    if sharp > 2**d:
        report.violations.append(("-", "sharp <= 2^d", float(sharp), 2**d))
    return _finish(report)


def check_amgm_suite(d, seed=0, cases_per_cell=100) -> VerificationReport:
    """Seeded random point sets for every admissible (i, ell) at degree d."""
    rng = random.Random(seed)
    report = VerificationReport(
        check_name="amgm_ratio",
        poly="",
        N=None,
        parameters={"d": d, "cases_per_cell": cases_per_cell},
    )
    max_ratio = 0.0
    max_sharp = 0.0
    for i in range(1, d + 1):
        for ell in range(d - i + 1, d + 1):  # s = ell-(d-i) >= 1
            for _ in range(cases_per_cell):
                points = [rng.randint(1, 10**6) for _ in range(d - i + 1)]
                sub = check_amgm_ratio(d, i, ell, points)
                report.violations.extend(sub.violations)
                max_ratio = max(max_ratio, sub.empirical_constants["ratio"])
                max_sharp = max(max_sharp, sub.empirical_constants["sharp_bound"])
    report.empirical_constants["max_ratio"] = max_ratio
    report.empirical_constants["max_sharp_bound"] = max_sharp
    return _finish(report)


def check_squareful_ratios(ledger: FactorLedger) -> VerificationReport:
    """Report-only: the two conjecture-equivalence ratios and the split of
    prime counts below/above DN."""
    record = aggregate.summarize(ledger)
    DN = ledger.profile.D * ledger.N
    below = sum(1 for p in ledger.entries if p <= DN)
    report = VerificationReport(
        check_name="squareful_ratios",
        poly=str(ledger.f),
        N=ledger.N,
        parameters={"DN": DN},
    )
    n = record.n_primes
    report.empirical_constants = {
        "n_primes": n,
        "n_squareful": record.n_squareful,
        "n_repeated": record.n_repeated,
        "squareful_ratio": record.n_squareful / n if n else 0.0,
        "repeated_ratio": record.n_repeated / n if n else 0.0,
        "primes_below_DN": below,
        "primes_above_DN": n - below,
    }
    return _finish(report, applicable=n > 0)


def check_zone_inequalities(ledger: FactorLedger) -> VerificationReport:
    """(d-1) log L >= log Q_L and (d(d-1)/2) log rad >= log Q_L."""
    record = aggregate.summarize(ledger)
    d = ledger.f.degree
    report = VerificationReport(
        check_name="zone_inequalities",
        poly=str(ledger.f),
        N=ledger.N,
        parameters={},
    )
    lhs_l = (d - 1) * record.log_L
    lhs_rad = d * (d - 1) / 2 * record.log_rad
    report.empirical_constants = {
        "log_QL": record.log_QL,
        "lcm_side": lhs_l,
        "radical_side": lhs_rad,
    }
    if lhs_l < record.log_QL:
        report.violations.append(("-", "(d-1) log_L >= log_QL", lhs_l, record.log_QL))
    if lhs_rad < record.log_QL:
        report.violations.append(
            ("-", "(d(d-1)/2) log_rad >= log_QL", lhs_rad, record.log_QL)
        )
    return _finish(report)


# check name -> callable(ledger, seed) returning its VerificationReport.
CHECKS = {
    "naive_multiplicity": lambda ledger, seed: check_naive_multiplicity(ledger),
    "refined_multiplicity": lambda ledger, seed: check_refined_multiplicity(ledger),
    "hensel_formula": lambda ledger, seed: check_hensel_formula(ledger),
    "divided_difference": lambda ledger, seed: check_divided_difference(
        ledger, seed=seed
    ),
    "amgm_ratio": lambda ledger, seed: check_amgm_suite(ledger.f.degree, seed=seed),
    "squareful_ratios": lambda ledger, seed: check_squareful_ratios(ledger),
    "zone_inequalities": lambda ledger, seed: check_zone_inequalities(ledger),
}
CHECK_NAMES = tuple(CHECKS)


def run_checks(f: IntPoly, N, checks, seed=0, workers=1):
    """Build one ledger and run the named checks, sorted by check_name."""
    unknown = sorted(set(checks) - set(CHECKS))
    if unknown:
        raise ValueError(
            f"unknown checks {unknown}; valid: {', '.join(CHECK_NAMES)}"
        )
    ledger = build_ledger(f, N, seed=seed, workers=workers)
    return [CHECKS[name](ledger, seed) for name in sorted(set(checks))]
