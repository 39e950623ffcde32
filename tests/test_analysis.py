import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlab import analysis
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
    run_checks,
)
from lcmlab.aggregate import summarize
from lcmlab.polynomial import IntPoly, parse_poly
from lcmlab.sieve import build_ledger

from conftest import TEST_POLYS

F = parse_poly("x^2+1")
F3 = parse_poly("x^3+2")


def fraction_A(f, points):
    """The reference for divided_difference_A: its defining sum added in
    Fractions, with the same checks and NonIntegral messages."""
    direct = Fraction(0)
    for j, mj in enumerate(points):
        denom = 1
        for k, mk in enumerate(points):
            if k != j:
                denom *= mj - mk
        direct += Fraction(f.eval(mj), denom)
    t = len(points)
    expansion = sum(
        f.coeffs[ell] * complete_homogeneous(ell - (t - 1), points)
        for ell in range(t - 1, f.degree + 1)
    )
    if direct.denominator != 1:
        raise NonIntegral(f"A = {direct} at points {points}")
    if direct != expansion:
        raise NonIntegral(
            f"routes disagree: {direct} vs {expansion} at points {points}"
        )
    return int(direct)


def fraction_amgm(d, i, ell, points):
    """The reference for check_amgm_ratio at s > 0: its constants and
    violations from the Fractions ratio and sharp bound, with h and the
    binomial read from ``analysis`` as it reads them."""
    s, t = ell - (d - i), d - i + 1
    num = analysis.complete_homogeneous(s, points)
    ratio = Fraction(num, sum(m**s for m in points))
    sharp = Fraction(analysis.comb(ell, d - i), t)
    violations = []
    if ratio < 1:
        violations.append((tuple(points), "ratio >= 1", float(ratio), 1))
    if ratio > sharp:
        violations.append((tuple(points), "ratio <= sharp", float(ratio), float(sharp)))
    if sharp > 2**d:
        violations.append(("-", "sharp <= 2^d", float(sharp), 2**d))
    return {"ratio": float(ratio), "sharp_bound": float(sharp)}, violations


class _OffByOne:
    """A stand-in for f whose value at ``at`` is one too large."""

    def __init__(self, f, at):
        self.f, self.at = f, at
        self.degree, self.coeffs = f.degree, f.coeffs

    def eval(self, n):
        return self.f.eval(n) + (n == self.at)


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


class TestMultiplicityChecks:
    def test_naive_passes_at_moderate_N(self, ledger_factory, test_poly):
        report = check_naive_multiplicity(ledger_factory(test_poly, 500))
        assert report.status == "pass"

    def test_refined_passes_at_moderate_N(self, ledger_factory, test_poly):
        report = check_refined_multiplicity(ledger_factory(test_poly, 500))
        assert report.status == "pass"

    def test_naive_content_prime(self):
        # the bound holds for f/c: 4099 and 101 divide every f(n), and
        # 101^2 divides f(10) = 101 * 101
        assert check_naive_multiplicity(
            build_ledger(parse_poly("4099x^2+4099"), 300)
        ).status == "pass"
        led = build_ledger(parse_poly("101x^2+101"), 50)
        assert led.entries[101].layer_counts == (50, 1)
        assert led.without_content().entries[101].layer_counts == (1,)
        assert check_naive_multiplicity(led).status == "pass"

    def test_not_applicable_on_empty_zone(self, ledger_factory):
        led = ledger_factory(F, 0)
        assert check_naive_multiplicity(led).status == "not-applicable"
        assert check_refined_multiplicity(led).status == "not-applicable"


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

    def test_matches_fraction_sum(self):
        rng = random.Random(24)
        for _ in range(500):
            d = rng.randint(2, 6)
            coeffs = [rng.randint(-(10**6), 10**6) for _ in range(d)]
            f = IntPoly(tuple(coeffs + [rng.choice([-3, -1, 1, 2, 7])]))
            t = rng.randint(2, d + 1)
            points = rng.sample(range(-(10**6), 10**6), t)
            assert divided_difference_A(f, points) == fraction_A(f, points)

    def test_off_by_one_raises_the_fraction_message(self):
        # one value off by one leaves 1/prod(m_j - m_k) in the sum, which is
        # not an integer unless the product is +-1; then the routes disagree
        rng = random.Random(25)
        cases = [(F3, [1, 2], 1), (F3, [1, 2, 4], 4), (F, [3, 5], 5)]
        cases += [(F3, rng.sample(range(1, 10**6), rng.randint(2, 4)), None)
                  for _ in range(50)]
        messages = []
        for f, points, at in cases:
            g = _OffByOne(f, points[0] if at is None else at)
            with pytest.raises(NonIntegral) as want:
                fraction_A(g, points)
            with pytest.raises(NonIntegral) as got:
                divided_difference_A(g, points)
            assert str(got.value) == str(want.value)
            messages.append(str(got.value))
        assert messages[0] == "routes disagree: 6 vs 7 at points [1, 2]"
        assert messages[1].startswith("A = ") and "/" in messages[1]

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
        assert led.prime_hits(101, 50) == [
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

    @staticmethod
    def _cases(rng, count):
        """(d, i, ell, points) at s > 0: seeded random points, and all ones,
        where the ratio meets the sharp bound."""
        for _ in range(count):
            d = rng.randint(2, 6)
            i = rng.randint(1, d)
            ell = rng.randint(d - i + 1, d)
            points = [rng.randint(1, 10**6) for _ in range(d - i + 1)]
            yield d, i, ell, points
            yield d, i, ell, [1] * len(points)

    def test_matches_fractions(self):
        for d, i, ell, points in self._cases(random.Random(26), 400):
            report = check_amgm_ratio(d, i, ell, points)
            constants, violations = fraction_amgm(d, i, ell, points)
            assert report.empirical_constants == constants
            assert report.violations == violations == []
            if set(points) == {1}:
                assert constants["ratio"] == constants["sharp_bound"]

    @pytest.mark.parametrize("scale", [(0, 1), (1, 2), (3, 1), (10**9, 1)])
    @pytest.mark.parametrize("widen", [1, 2**8])
    def test_violations_match_fractions(self, monkeypatch, scale, widen):
        # h scaled by k/q moves the ratio out of [1, sharp], and the
        # binomial scaled by 2^8 moves the sharp bound above 2^d
        k, q = scale
        h, comb = analysis.complete_homogeneous, analysis.comb
        monkeypatch.setattr(analysis, "complete_homogeneous", lambda s, m: h(s, m) * k // q)
        monkeypatch.setattr(analysis, "comb", lambda n, r: comb(n, r) * widen)
        seen = 0
        for d, i, ell, points in self._cases(random.Random(27), 100):
            report = check_amgm_ratio(d, i, ell, points)
            constants, violations = fraction_amgm(d, i, ell, points)
            assert report.empirical_constants == constants
            assert report.violations == violations
            assert report.status == ("fail" if violations else "pass")
            seen += bool(violations)
        assert seen

    def test_degenerate_exponent_not_applicable(self):
        assert check_amgm_ratio(3, 2, 1, [5, 9]).status == "not-applicable"

    def test_suite_passes_all_degrees(self):
        for d in range(2, 7):
            report = check_amgm_suite(d, seed=7, cases_per_cell=25)
            assert report.status == "pass", report.violations


class TestLedgerChecks:
    def test_squareful_example_n5(self, ledger_factory):
        led = ledger_factory(F, 5)
        report = check_squareful_ratios(led, summarize(led))
        ec = report.empirical_constants
        assert ec["n_primes"] == 4
        assert ec["n_squareful"] == 2
        assert ec["squareful_ratio"] == 0.5

    def test_zone_inequalities(self, ledger_factory, test_poly):
        led = ledger_factory(test_poly, 500)
        report = check_zone_inequalities(led, summarize(led))
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
