"""Verification of the structural bounds against exact ledger data.

Checks with explicit finite bounds (alpha <= d^2, alpha <= d(d-1)/2,
b_i <= d-i, the symmetric-sum ratio range, integrality/divisibility of the
divided-difference quantity A) are asserted; statements whose constants
the theory leaves unspecified (Hensel deviation, squareful-prime ratios)
are report-only.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from . import aggregate
from .polynomial import IntPoly
from .sieve import FactorLedger, build_ledger


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

    @classmethod
    def of(cls, name, ledger, **parameters):
        """The report ``name`` on the f and N of ``ledger``."""
        return cls(name, str(ledger.f), ledger.N, parameters)


def _finish(report, applicable=True):
    if not applicable:
        report.status = "not-applicable"
    else:
        report.status = "fail" if report.violations else "pass"
    return report


def _multiplicity_check(name, ledger, above, rows, **parameters):
    """The report ``name`` with a violation (p, label, value, bound) for
    each prime p > above and each row (label, column, bound) of ``rows``
    with column[p] > bound, by p and then in row order."""
    report = VerificationReport.of(name, ledger, **parameters)
    keep = ledger.p > above
    p = ledger.p[keep].tolist()
    values = np.array([column[keep] for _, column, _ in rows])
    bounds = np.array([bound for _, _, bound in rows])[:, None]
    at, row = np.nonzero((values > bounds).T)
    report.violations = [
        (p[i], rows[j][0], int(values[j, i]), rows[j][2])
        for i, j in zip(at.tolist(), row.tolist())
    ]
    return _finish(report, applicable=bool(keep.any()))


def check_naive_multiplicity(ledger: FactorLedger) -> VerificationReport:
    """alpha_p <= d^2 for p > N, plus the proof's sub-claims
    hit_count <= d and max_exp <= d. The bounds hold for primitive f, so a
    prime of the content c of f is tested on the layers of f/c."""
    d = ledger.f.degree
    led = ledger.without_content()
    rows = [
        ("alpha", led.alpha, d * d),
        ("hit_count", led.hit_count, d),
        ("max_exp", led.max_exp, d),
    ]
    return _multiplicity_check("naive_multiplicity", led, ledger.N, rows, bound=d * d)


def check_refined_multiplicity(ledger: FactorLedger) -> VerificationReport:
    """alpha_p <= d(d-1)/2 and b_i <= d-i for p > DN (i = 1 covers the
    hit_count <= d-1 bound)."""
    d = ledger.f.degree
    bound = d * (d - 1) // 2
    rows = [("alpha", ledger.alpha, bound)]
    rows += [(f"b_{i}", ledger.layer(i), d - i) for i in range(1, d + 1)]
    return _multiplicity_check(
        "refined_multiplicity", ledger, ledger.B, rows, bound=bound, DN=ledger.B
    )


def check_hensel_formula(ledger: FactorLedger) -> VerificationReport:
    """Report-only: deviation of alpha_p from N rho_f(p)/(p-1) for
    unramified p <= N, scaled by ln p / ln N, with rho_f(p) read off the
    ledger's level-1 roots; ramified primes report alpha * p / N."""
    N = ledger.N
    report = VerificationReport.of("hensel_formula", ledger)
    if N < 2:
        return _finish(report, applicable=False)
    disc = ledger.f.profile.disc
    devs = []
    upto = ledger.p <= N
    columns = (ledger.p, ledger.alpha, ledger.roots.lengths())
    for p, alpha, rho in zip(*(col[upto].tolist() for col in columns)):
        if disc % p == 0:
            report.empirical_constants[f"ramified_{p}"] = alpha * p / N
            continue
        dev = abs(alpha - N * rho / (p - 1)) * math.log(p) / math.log(N)
        devs.append(dev)
    if devs:
        devs.sort()
        report.empirical_constants.update(
            max_dev=devs[-1],
            median_dev=devs[len(devs) // 2],
            mean_dev=sum(devs) / len(devs),
            n_primes=len(devs),
        )
    return _finish(report, applicable=bool(report.empirical_constants))


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
    computed two ways and cross-asserted: the defining sum
    sum_j f(m_j) / prod_{k != j} (m_j - m_k), over the common denominator
    L = lcm of its denominators, with one divmod by L; and the complete
    homogeneous symmetric expansion. A Fraction is built only to word the
    NonIntegral raised when L does not divide the sum."""
    points = list(points)
    t = len(points)
    d = f.degree
    if not 2 <= t <= d + 1:
        raise ValueError(f"need 2 <= t <= d+1 points, got {t}")
    if len(set(points)) != t:
        raise ValueError("points must be distinct")
    denoms = [
        math.prod(mj - mk for k, mk in enumerate(points) if k != j)
        for j, mj in enumerate(points)
    ]
    L = math.lcm(*denoms)
    total = sum(f.eval(m) * (L // den) for m, den in zip(points, denoms))
    direct, rest = divmod(total, L)
    i = d - t + 1  # expansion truncates at ell >= d - i
    expansion = 0
    for ell in range(d - i, d + 1):
        expansion += f.coeffs[ell] * complete_homogeneous(ell - (d - i), points)
    if rest:
        raise NonIntegral(f"A = {Fraction(total, L)} at points {points}")
    if direct != expansion:
        raise NonIntegral(
            f"routes disagree: {direct} vs {expansion} at points {points}"
        )
    return direct


def harvest_divisibility_tuples(ledger: FactorLedger, above, limit=200):
    """Qualifying (p, i, points) tuples read off the ledger for primes
    above N (``above="N"``) or above DN (any other value): points are the
    n <= N hit by p with v_p(f(n)) >= i, taken when exactly enough for
    arity d - i + 1."""
    d = ledger.f.degree
    N = ledger.N
    bound = N if above == "N" else ledger.B
    tuples = []
    # every tuple has t >= 2 points, so only primes with two hits qualify
    for p in ledger.p[(ledger.p > bound) & (ledger.hit_count >= 2)].tolist():
        hits = ledger.prime_hits(p, N)
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
    report = VerificationReport.of("divided_difference", ledger, trials=trials)
    rng = random.Random(seed)
    for _ in range(trials):
        t = rng.randint(2, d + 1)
        points = rng.sample(range(1, 10**6), t)
        try:
            divided_difference_A(f, points)
        except NonIntegral as exc:
            report.violations.append((tuple(points), "non-integral", str(exc), 0))
    harvested = harvest_divisibility_tuples(ledger, above="DN")
    for p, i, combo in harvested:
        A = divided_difference_A(f, list(combo))
        if A % p**i != 0:
            report.violations.append((combo, f"p^{i} | A", A, p**i))
        if f.profile.irreducible and A == 0:
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
    # the ratio num/den against the sharp bound C/t, compared as integers;
    # int / int is correctly rounded, as float(Fraction) is
    num = complete_homogeneous(s, points)
    den = sum(m**s for m in points)
    C = comb(ell, d - i)
    ratio, sharp = num / den, C / t
    report.empirical_constants["ratio"] = ratio
    report.empirical_constants["sharp_bound"] = sharp
    if num < den:
        report.violations.append((tuple(points), "ratio >= 1", ratio, 1))
    if num * t > C * den:
        report.violations.append((tuple(points), "ratio <= sharp", ratio, sharp))
    if C > 2**d * t:
        report.violations.append(("-", "sharp <= 2^d", sharp, 2**d))
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


def check_squareful_ratios(ledger: FactorLedger, record) -> VerificationReport:
    """Report-only: the two conjecture-equivalence ratios and the split of
    prime counts below/above DN; ``record`` is aggregate.summarize(ledger)."""
    below = int(np.searchsorted(ledger.p, ledger.B, side="right"))
    report = VerificationReport.of("squareful_ratios", ledger, DN=ledger.B)
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


def check_zone_inequalities(ledger: FactorLedger, record) -> VerificationReport:
    """(d-1) log L >= log Q_L and (d(d-1)/2) log rad >= log Q_L; ``record``
    is aggregate.summarize(ledger)."""
    d = ledger.f.degree
    report = VerificationReport.of("zone_inequalities", ledger)
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


# check name -> callable(ledger, seed, rec) returning its VerificationReport,
# where rec() is aggregate.summarize(ledger).
CHECKS = {
    "naive_multiplicity": lambda led, seed, rec: check_naive_multiplicity(led),
    "refined_multiplicity": lambda led, seed, rec: check_refined_multiplicity(led),
    "hensel_formula": lambda led, seed, rec: check_hensel_formula(led),
    "divided_difference": lambda led, seed, rec: check_divided_difference(led, seed),
    "amgm_ratio": lambda led, seed, rec: check_amgm_suite(led.f.degree, seed=seed),
    "squareful_ratios": lambda led, seed, rec: check_squareful_ratios(led, rec()),
    "zone_inequalities": lambda led, seed, rec: check_zone_inequalities(led, rec()),
}
CHECK_NAMES = tuple(CHECKS)


def run_checks(f: IntPoly, N, checks, seed=0, workers=1):
    """Build one ledger and run the named checks, sorted by check_name. The
    ledger is summarized once, when a check first needs the record."""
    unknown = sorted(set(checks) - set(CHECKS))
    if unknown:
        raise ValueError(
            f"unknown checks {unknown}; valid: {', '.join(CHECK_NAMES)}"
        )
    ledger = build_ledger(f, N, seed=seed, workers=workers)
    record = functools.cache(lambda: aggregate.summarize(ledger))
    return [CHECKS[name](ledger, seed, record) for name in sorted(set(checks))]
