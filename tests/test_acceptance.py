"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The slow criteria (full oracle equivalence, the N = 1e5 trend check)
run in well under their stated budgets on desktop hardware.
"""

import math
import random
import time

from lcmlab.aggregate import summarize
from lcmlab.analysis import (
    check_amgm_suite,
    check_naive_multiplicity,
    check_refined_multiplicity,
    divided_difference_A,
    harvest_divisibility_tuples,
)
from lcmlab.cli import main as cli_main
from lcmlab.oracle import log_big, naive_run
from lcmlab.polynomial import IntPoly

from conftest import TEST_POLYS


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence(ledger_factory):
    """Sieve ledger identical to the brute-force oracle for all four test
    polynomials at N in 1..200 and N = 500; logs match to 1e-9 relative."""
    t0 = time.time()
    ok = True
    detail = ""
    for name, f in TEST_POLYS.items():
        for N in list(range(1, 201)) + [500]:
            led = ledger_factory(f, N)
            ora = naive_run(f, N)
            if set(led.entries) != set(ora.entries):
                ok, detail = False, f"{name} N={N}: prime sets differ"
                break
            for p in led.entries:
                a, b = led.entries[p], ora.entries[p]
                if (a.alpha, a.max_exp, a.hit_count) != (
                    b.alpha, b.max_exp, b.hit_count,
                ):
                    ok, detail = False, f"{name} N={N} p={p}"
                    break
            rec = summarize(led)
            if N >= 1 and ora.lcm_value > 1:
                if abs(rec.log_L - log_big(ora.lcm_value)) > 1e-9 * max(
                    rec.log_L, 1e-300
                ):
                    ok, detail = False, f"{name} N={N}: log_L mismatch"
                if abs(rec.log_rad - log_big(ora.rad_value)) > 1e-9 * max(
                    rec.log_rad, 1e-300
                ):
                    ok, detail = False, f"{name} N={N}: log_rad mismatch"
            if not ok:
                break
        if not ok:
            break
    elapsed = time.time() - t0
    if elapsed >= 120:
        ok, detail = False, f"runtime {elapsed:.0f}s exceeds 2 minutes"
    _report("criterion 1: oracle equivalence", ok, detail or f"{elapsed:.1f}s")


def test_criterion_2_naive_multiplicity(ledger_factory):
    """At N = 1000, no prime p > N carries exponent above d^2."""
    ok = True
    detail = ""
    for name, f in TEST_POLYS.items():
        report = check_naive_multiplicity(ledger_factory(f, 1000))
        bad = [v for v in report.violations if v[1] == "alpha"]
        if bad:
            ok, detail = False, f"{name}: {bad[:3]}"
    _report("criterion 2: alpha <= d^2 above N", ok, detail)


def test_criterion_3_refined_multiplicity(ledger_factory):
    """At N = 1000, alpha <= d(d-1)/2 and b_i <= d-i above DN; any earlier
    violations settle below N = 1000, so the check passes at N = 999 too."""
    ok = True
    detail = ""
    for name, f in TEST_POLYS.items():
        for N in (999, 1000):
            report = check_refined_multiplicity(ledger_factory(f, N))
            if report.status != "pass":
                ok, detail = False, f"{name} at N={N}: {report.violations[:3]}"
    _report("criterion 3: refined multiplicity above DN", ok, detail)


def test_criterion_4_decomposition_identity(ledger_factory):
    """log_Q = log_QS + log_QLI + log_QL to 1e-9 relative at N = 1e4, and
    log_Q matches direct summation of ln|f(n)| to 1e-6 relative."""
    ok = True
    detail = ""
    for name, f in TEST_POLYS.items():
        rec = summarize(ledger_factory(f, 10**4))
        zones = rec.log_QS + rec.log_QLI + rec.log_QL
        if abs(rec.log_Q - zones) > 1e-9 * rec.log_Q:
            ok, detail = False, f"{name}: zone sum off"
            continue
        direct = math.fsum(
            math.log(abs(f.eval(n))) for n in range(1, 10**4 + 1)
        )
        if abs(rec.log_Q - direct) > 1e-6 * abs(direct):
            ok, detail = False, f"{name}: direct sum off by {rec.log_Q - direct}"
    _report("criterion 4: decomposition identity at N=1e4", ok, detail)


def test_criterion_5_assembly_inequalities(ledger_factory):
    """(d-1) log_L >= log_QL and (d(d-1)/2) log_rad >= log_QL at N = 1e4."""
    ok = True
    detail = ""
    for name, f in TEST_POLYS.items():
        d = f.degree
        rec = summarize(ledger_factory(f, 10**4))
        if (d - 1) * rec.log_L < rec.log_QL:
            ok, detail = False, f"{name}: lcm side"
        if d * (d - 1) / 2 * rec.log_rad < rec.log_QL:
            ok, detail = False, f"{name}: radical side"
    _report("criterion 5: assembly inequalities at N=1e4", ok, detail)


def test_criterion_6_conjecture_trend(ledger_factory):
    """ratio_L strictly increases over N in {1e3, 1e4, 1e5} for x^2+1 and
    lies in (0.5, 1.1) at N = 1e5."""
    t0 = time.time()
    f = TEST_POLYS["x^2+1"]
    ratios = []
    for N in (10**3, 10**4, 10**5):
        ratios.append(summarize(ledger_factory(f, N)).ratio_L)
    elapsed = time.time() - t0
    ok = ratios[0] < ratios[1] < ratios[2] and 0.5 < ratios[2] < 1.1
    if elapsed >= 600:
        ok = False
    _report(
        "criterion 6: conjecture trend",
        ok,
        f"ratios={[f'{r:.4f}' for r in ratios]}, {elapsed:.1f}s",
    )


def test_criterion_7_divided_difference_suite(ledger_factory):
    """1000 seeded random cases agree across both routes of A and are
    integers; every ledger-harvested tuple above DN at N = 1000 satisfies
    p^i | A with A != 0."""
    rng = random.Random(1_000_003)
    ok = True
    detail = ""
    for _ in range(1000):
        d = rng.randint(2, 6)
        coeffs = [rng.randint(-100, 100) for _ in range(d)] + [
            rng.choice([c for c in range(-100, 101) if c])
        ]
        f = IntPoly(tuple(coeffs))
        t = rng.randint(2, d + 1)
        points = rng.sample(range(1, 10**6), t)
        try:
            divided_difference_A(f, points)
        except Exception as exc:  # NonIntegral or route mismatch
            ok, detail = False, f"random case {coeffs} {points}: {exc}"
            break
    if ok:
        for name, f in TEST_POLYS.items():
            led = ledger_factory(f, 1000)
            for p, i, combo in harvest_divisibility_tuples(led, above="DN"):
                A = divided_difference_A(f, list(combo))
                if A % p**i != 0 or A == 0:
                    ok, detail = False, f"{name} p={p} i={i} {combo}: A={A}"
                    break
    _report("criterion 7: divided-difference suite", ok, detail)


def test_criterion_8_symmetric_ratio_suite():
    """1000 seeded random cases per (d, i, ell) cell for every degree up to
    6: each ratio lies in [1, C(ell, d-i)/(d-i+1)] and the sharp bound stays
    below 2^d."""
    ok = True
    detail = ""
    for d in range(2, 7):
        report = check_amgm_suite(d, seed=48611 + d, cases_per_cell=1000)
        if report.status != "pass":
            ok, detail = False, f"d={d}: {report.violations[:3]}"
            break
        if report.empirical_constants["max_sharp_bound"] > 2**d:
            ok, detail = False, f"d={d}: sharp bound above 2^d"
            break
    _report("criterion 8: symmetric-sum ratio suite", ok, detail)


def test_criterion_9_determinism(tmp_path):
    """Sweep at N = 1e4 with 1 and 8 workers produces identical CSV data.

    The wall-clock ``seconds`` column is normalized out before comparing:
    it is the only inherently non-reproducible field (see the column spec),
    every other byte must match.
    """
    texts = []
    for workers, name in ((1, "w1.csv"), (8, "w8.csv")):
        out = tmp_path / name
        code = cli_main(
            [
                "sweep", "--poly", "x^2+1", "--n", "10000",
                "--workers", str(workers), "--out", str(out),
            ]
        )
        assert code == 0
        texts.append(out.read_text())
    stripped = [
        [",".join(line.split(",")[:-1]) for line in t.splitlines()]
        for t in texts
    ]
    ok = stripped[0] == stripped[1]
    _report("criterion 9: determinism across worker counts", ok)
