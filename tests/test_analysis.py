import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlab.analysis import (
    NonIntegral,
    check_amgm_ratio,
    check_amgm_suite,
    check_divided_difference,
    check_hensel_formula,
    check_naive_multiplicity,
    check_refined_multiplicity,
    check_squareful_ratios,
    check_zone_inequalities,
    complete_homogeneous,
    divided_difference_A,
    harvest_divisibility_tuples,
    prime_hits,
    refined_multiplicity_threshold,
    run_checks,
)
from lcmlab.polynomial import IntPoly, parse_poly, profile
from lcmlab.sieve import build_ledger

from conftest import TEST_POLYS

F = parse_poly("x^2+1")
F3 = parse_poly("x^3+2")


def trial_division(n):
    """{p: e} for n >= 1 by trial division."""
    out = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_threshold(f, n_max):
    """1 + the largest N <= n_max at which some p > DN has more than d - i
    of the n <= N with p^i | f(n); 1 if there is none."""
    d = f.degree
    D = profile(f).D
    hits = {}  # p -> [(n, v_p(f(n)))]
    for n in range(1, n_max + 1):
        if f.eval(n):
            for p, e in trial_division(abs(f.eval(n))).items():
                hits.setdefault(p, []).append((n, e))
    worst = 0
    for N in range(1, n_max + 1):
        for p, lst in hits.items():
            if p > D * N and any(
                sum(1 for n, e in lst if n <= N and e >= i) > d - i
                for i in range(1, d + 1)
            ):
                worst = N
    return worst + 1


class TestMultiplicityChecks:
    def test_naive_passes_at_moderate_N(self, ledger_factory, test_poly):
        report = check_naive_multiplicity(ledger_factory(test_poly, 500))
        assert report.status == "pass"

    def test_refined_passes_at_moderate_N(self, ledger_factory, test_poly):
        report = check_refined_multiplicity(ledger_factory(test_poly, 500))
        assert report.status == "pass"

    def test_not_applicable_on_empty_zone(self, ledger_factory):
        led = ledger_factory(F, 0)
        assert check_naive_multiplicity(led).status == "not-applicable"
        assert check_refined_multiplicity(led).status == "not-applicable"

    def test_threshold_below_1000(self, ledger_factory, test_poly):
        assert refined_multiplicity_threshold(ledger_factory(test_poly, 1000)) < 1000

    @pytest.mark.parametrize("text", ["x^2-2", "x^5-x+1"])
    def test_threshold_with_unit_values(self, text):
        # |f(1)| = 1: nothing to factor at n = 1
        assert refined_multiplicity_threshold(build_ledger(parse_poly(text), 300)) == 1

    @pytest.mark.parametrize(
        "text, expected",
        [("-x^2+17x+23", 30), ("-x^2+25x+11", 56), ("2x^2+30x+6", 4)],
    )
    def test_threshold_matches_brute_force(self, text, expected):
        f = parse_poly(text)
        n_max = 300
        threshold = refined_multiplicity_threshold(build_ledger(f, n_max))
        assert threshold == brute_threshold(f, n_max) == expected


class TestHenselFormula:
    def test_report_only_always_passes(self, ledger_factory, test_poly):
        report = check_hensel_formula(ledger_factory(test_poly, 500))
        assert report.status == "pass"
        assert "max_dev" in report.empirical_constants

    def test_exact_at_p5_n10(self, ledger_factory):
        # alpha = 5 equals N rho/(p-1) = 10*2/4 exactly at p = 5, N = 10
        led = ledger_factory(F, 10)
        assert led.entries[5].alpha == 5

    def test_ramified_stat_recorded(self, ledger_factory):
        report = check_hensel_formula(ledger_factory(F, 200))
        assert "ramified_2" in report.empirical_constants


class TestDividedDifference:
    def test_examples(self):
        assert divided_difference_A(F, [1, 2]) == 3
        assert divided_difference_A(F, [1, 2, 3]) == 1  # leading coefficient
        assert divided_difference_A(F3, [2, 5]) == 39

    def test_complete_homogeneous(self):
        assert complete_homogeneous(0, [3, 7]) == 1
        assert complete_homogeneous(1, [1, 2]) == 3
        assert complete_homogeneous(2, [2, 5]) == 4 + 10 + 25

    def test_rejects_bad_arity_and_repeats(self):
        with pytest.raises(ValueError):
            divided_difference_A(F, [7])
        with pytest.raises(ValueError):
            divided_difference_A(F, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            divided_difference_A(F, [2, 2])

    def test_random_route_agreement(self):
        # 1000 seeded cases across degrees up to 6; both routes must agree
        rng = random.Random(20260823)
        for _ in range(1000):
            d = rng.randint(2, 6)
            coeffs = [rng.randint(-50, 50) for _ in range(d)] + [
                rng.choice([c for c in range(-50, 51) if c])
            ]
            f = IntPoly(tuple(coeffs))
            t = rng.randint(2, d + 1)
            points = rng.sample(range(-(10**6), 10**6), t)
            divided_difference_A(f, points)  # raises NonIntegral on mismatch

    @given(
        st.integers(min_value=2, max_value=5),
        st.data(),
    )
    @settings(max_examples=50)
    def test_leading_divided_difference_is_lead_coeff(self, d, data):
        coeffs = data.draw(
            st.lists(
                st.integers(min_value=-20, max_value=20),
                min_size=d + 1,
                max_size=d + 1,
            ).filter(lambda c: c[-1] != 0)
        )
        points = data.draw(
            st.lists(
                st.integers(min_value=-1000, max_value=1000),
                min_size=d + 1,
                max_size=d + 1,
                unique=True,
            )
        )
        f = IntPoly(tuple(coeffs))
        assert divided_difference_A(f, points) == coeffs[-1]


class TestDivisibilityA:
    def test_prime_hits_content_prime(self):
        # 101 divides every f(n), and divides f(10) = 101^2 twice
        f = parse_poly("101x^2+101")
        led = build_ledger(f, 50)
        assert led.entries[101].roots == (10, 91)  # the roots of x^2+1
        assert prime_hits(led, 101, 50) == [
            (n, trial_division(f.eval(n))[101]) for n in range(1, 51)
        ]

    def test_harvested_tuples_all_pass(self, ledger_factory):
        led = ledger_factory(F, 1000)
        tuples = harvest_divisibility_tuples(led, above="N")
        assert tuples, "expected qualifying tuples in the (N, DN] zone"
        for p, i, combo in tuples:
            A = divided_difference_A(F, list(combo))
            assert A % p**i == 0
            assert A != 0

    def test_harvest_magnitude_bound(self, ledger_factory, test_poly):
        # |A| <= (1 + |f_d| d^i) N^i on every harvested tuple
        N = 500
        d = test_poly.degree
        fd = abs(test_poly.coeffs[-1])
        led = ledger_factory(test_poly, N)
        for p, i, combo in harvest_divisibility_tuples(led, above="N"):
            A = divided_difference_A(test_poly, list(combo))
            assert abs(A) <= (1 + fd * d**i) * N**i


class TestAmGmRatio:
    def test_example_power_sum(self):
        report = check_amgm_ratio(2, 1, 2, [3, 4])
        assert report.status == "pass"
        assert report.empirical_constants["ratio"] == 1.0

    def test_example_all_ones_saturates(self):
        report = check_amgm_ratio(3, 2, 3, [1, 1])
        assert report.status == "pass"
        assert report.empirical_constants["ratio"] == 1.5
        assert report.empirical_constants["sharp_bound"] == 1.5

    def test_degenerate_exponent_not_applicable(self):
        assert check_amgm_ratio(3, 2, 1, [5, 9]).status == "not-applicable"

    def test_suite_passes_all_degrees(self):
        for d in range(2, 7):
            report = check_amgm_suite(d, seed=7, cases_per_cell=25)
            assert report.status == "pass", report.violations


class TestLedgerChecks:
    def test_squareful_example_n5(self, ledger_factory):
        report = check_squareful_ratios(ledger_factory(F, 5))
        ec = report.empirical_constants
        assert ec["n_primes"] == 4
        assert ec["n_squareful"] == 2
        assert ec["squareful_ratio"] == 0.5

    def test_zone_inequalities(self, ledger_factory, test_poly):
        report = check_zone_inequalities(ledger_factory(test_poly, 500))
        assert report.status == "pass"

    def test_divided_difference_check(self, ledger_factory):
        report = check_divided_difference(
            ledger_factory(F, 300), seed=3, trials=50
        )
        assert report.status == "pass"

    def test_run_checks_rejects_unknown(self):
        with pytest.raises(ValueError, match="bogus"):
            run_checks(F, 50, ["bogus"])

    def test_run_checks_all(self):
        from lcmlab.analysis import CHECK_NAMES

        reports = run_checks(F, 100, list(CHECK_NAMES))
        assert len(reports) == 7
        assert [r.check_name for r in reports] == sorted(
            r.check_name for r in reports
        )
        assert all(r.status != "fail" for r in reports)
