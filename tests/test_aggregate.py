import math

import pytest

from lcmlab import sieve
from lcmlab.aggregate import summarize, sweep
from lcmlab.polynomial import parse_poly
from lcmlab.primes import FactorTimeout

F = parse_poly("x^2+1")


class TestSummarize:
    def test_example_n5(self, ledger_factory):
        rec = summarize(ledger_factory(F, 5))
        assert rec.log_L == pytest.approx(math.log(2210), rel=1e-12)
        assert rec.log_Q == pytest.approx(math.log(44200), rel=1e-12)
        assert rec.log_rad == pytest.approx(math.log(2210), rel=1e-12)

    def test_example_n1(self, ledger_factory):
        rec = summarize(ledger_factory(F, 1))
        assert rec.log_Q == rec.log_L == rec.log_rad == pytest.approx(math.log(2))
        assert math.isnan(rec.ratio_L)  # normalizer vanishes at N = 1

    def test_zone_split_n5(self, ledger_factory):
        # D = 3: zones are p <= 5, 5 < p <= 15, p > 15. The n = 5 ledger
        # holds {2, 5, 13, 17}, so 13 lands in the middle zone.
        rec = summarize(ledger_factory(F, 5))
        assert rec.log_QS == pytest.approx(3 * math.log(2) + 2 * math.log(5))
        assert rec.log_QLI == pytest.approx(math.log(13))
        assert rec.log_QL == pytest.approx(math.log(17))

    def test_zone_additivity(self, ledger_factory, test_poly):
        rec = summarize(ledger_factory(test_poly, 500))
        total = rec.log_QS + rec.log_QLI + rec.log_QL
        assert abs(rec.log_Q - total) <= 1e-9 * rec.log_Q

    def test_radical_bounds(self, ledger_factory, test_poly):
        for N in (5, 50, 500):
            rec = summarize(ledger_factory(test_poly, N))
            assert rec.n_primes * math.log(2) <= rec.log_rad + 1e-9
            assert rec.log_rad <= rec.log_L + 1e-9
            assert rec.log_L <= rec.log_Q + 1e-9
            assert 0 <= rec.n_repeated <= rec.n_squareful <= rec.n_primes


class TestSweep:
    def test_ratio_trend_upward(self):
        records, gaps = sweep(F, [10, 100])
        assert not gaps
        assert len(records) == 2
        assert records[1].ratio_L > records[0].ratio_L

    def test_empty_schedule(self):
        records, gaps = sweep(F, [])
        assert records == [] and gaps == []

    def test_cubic_normalizer(self):
        f = parse_poly("x^3+2")
        (rec,), gaps = sweep(f, [50])
        assert not gaps
        assert rec.ratio_L == pytest.approx(
            rec.log_L / (2 * 50 * math.log(50)), rel=1e-12
        )

    def test_monotone_in_N(self, test_poly):
        records, _ = sweep(test_poly, [10, 30, 100, 300])
        for a, b in zip(records, records[1:]):
            assert b.log_L >= a.log_L
            assert b.log_rad >= a.log_rad

    def test_rejects_nonincreasing_schedule(self):
        with pytest.raises(ValueError):
            sweep(F, [100, 10])

    def test_sink_receives_in_order(self):
        seen = []
        sweep(F, [5, 10, 20], sink=lambda r: seen.append(r.N))
        assert seen == [5, 10, 20]

    def test_factor_timeout_is_a_gap(self, monkeypatch):
        build = sieve.build_ledger

        def timeout_at_10(f, N, **kwargs):
            if N == 10:
                raise FactorTimeout("rho gave up")
            return build(f, N, **kwargs)

        monkeypatch.setattr(sieve, "build_ledger", timeout_at_10)
        records, gaps = sweep(F, [5, 10, 20])
        assert [r.N for r in records] == [5, 20]
        assert gaps == [(10, "FactorTimeout: rho gave up")]

    def test_ledger_mismatch_propagates(self, monkeypatch):
        def mismatch(f, N, **kwargs):
            raise sieve.LedgerMismatch("p=5: analytic alpha 3 != sieved 2")

        monkeypatch.setattr(sieve, "build_ledger", mismatch)
        with pytest.raises(sieve.LedgerMismatch) as info:
            sweep(F, [5, 10])
        assert info.value.__notes__ == ["while sweeping x^2+1 at N=5"]

