import math

import pytest

from lcmlab.aggregate import summarize
from lcmlab.oracle import HARD_CAP, OracleCapped, log_big, naive_run, trial_factor
from lcmlab.polynomial import parse_poly

F = parse_poly("x^2+1")


class TestNaiveRun:
    def test_examples(self):
        assert naive_run(F, 3).lcm_value == 10
        res = naive_run(F, 5)
        assert res.lcm_value == 2210 and res.rad_value == 2210
        # f(7) = 50 contributes 5^2: lcm = 2 * 5^2 * 13 * 17 * 37
        assert naive_run(F, 7).lcm_value == 408850

    def test_cap(self):
        with pytest.raises(OracleCapped):
            naive_run(F, HARD_CAP + 1)

    def test_rad_divides_lcm(self, test_poly):
        for N in (1, 7, 40, 160):
            res = naive_run(test_poly, N)
            assert res.lcm_value % res.rad_value == 0
            assert res.lcm_value >= 1
            for n in range(1, N + 1):
                v = test_poly.eval(n)
                if v != 0:
                    assert res.lcm_value % abs(v) == 0

    def test_log_agreement_with_pipeline(self, ledger_factory, test_poly):
        for N in (50, 300):
            res = naive_run(test_poly, N)
            rec = summarize(ledger_factory(test_poly, N))
            assert abs(rec.log_L - log_big(res.lcm_value)) <= 1e-9 * rec.log_L
            assert abs(rec.log_rad - log_big(res.rad_value)) <= 1e-9 * rec.log_rad


class TestHelpers:
    def test_trial_factor(self):
        assert trial_factor(44200) == {2: 3, 5: 2, 13: 1, 17: 1}
        assert trial_factor(1) == {}
        assert trial_factor(2**10) == {2: 10}

    def test_log_big_accuracy(self):
        for n in (5, 10**6, 2**200 + 12345, 10**500 + 7):
            approx = log_big(n)
            # reference via bit-shifted float log
            e = max(n.bit_length() - 53, 0)
            ref = math.log(n >> e) + e * math.log(2) if e else math.log(n)
            assert approx == pytest.approx(ref, rel=1e-12)
        assert log_big(8) == pytest.approx(math.log(8), rel=1e-15)
