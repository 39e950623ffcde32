import collections
import dataclasses
import math
import random
import types

import numpy as np
import pytest

from lcmlab import aggregate, primes, sieve
from lcmlab.aggregate import summarize, sweep
from lcmlab.polynomial import IntPoly, parse_poly

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


def record_sums(rec):
    return rec.log_Q, rec.log_QS, rec.log_QLI, rec.log_QL, rec.log_L, rec.log_rad


def one_list_sums(ledger):
    """The sums of ``record_sums`` for a ledger, each ``math.fsum`` over the
    float64 terms of one list of Python floats in ascending p."""
    logs = [math.log(p) for p in ledger.p.tolist()]
    contrib = [a * lp for a, lp in zip(ledger.alpha.tolist(), logs)]
    lcm = [m * lp for m, lp in zip(ledger.max_exp.tolist(), logs)]
    small, linear = np.searchsorted(ledger.p, (ledger.N, ledger.B), side="right")
    zones = (contrib[:small], contrib[small:linear], contrib[linear:])
    return tuple(math.fsum(t) for t in (contrib, *zones, lcm, logs))


def chunked_sum(terms, chunk):
    """The float of aggregate._exact_sum added over chunks of ``terms``."""
    total = sum(
        aggregate._exact_sum(terms[lo : lo + chunk])
        for lo in range(0, len(terms), chunk)
    )
    return total / 2**53


def random_irreducible(rng, degree):
    """A seeded random f of the degree, irreducible over Q and profiled."""
    while True:
        coeffs = [rng.randint(-30, 30) for _ in range(degree)]
        f = IntPoly(tuple(coeffs + [rng.choice([-3, -2, -1, 1, 2, 5])]))
        try:
            if f.profile.irreducible:
                return f
        except ValueError:  # a zero discriminant
            pass


class TestChunkedKahan:
    """Chunked exact sums against math.fsum of the same float64 terms."""

    @pytest.mark.parametrize("length", ["0", "1", "c-1", "c", "c+1", "3c+5"])
    def test_chunks_equal_one_list(self, length):
        # terms from 1/2 to below 2^30, log-uniform, so each chunk mixes
        # magnitudes across the whole exact range
        chunk = aggregate.CHUNK
        extra = {"0": -chunk, "1": 1 - chunk, "c-1": -1, "c": 0, "c+1": 1}.get(
            length, 2 * chunk + 5
        )
        rng = random.Random(extra)
        terms = np.array(
            [min(2 ** rng.uniform(-1, 30), 2**30 - 1) for _ in range(chunk + extra)]
        )
        assert chunked_sum(terms, chunk) == math.fsum(terms.tolist())

    def test_range_ends(self):
        # a full chunk just below 2^30 fills both int64 sums to their
        # largest; terms at 1/2 are the smallest exact ones
        top = np.full(aggregate.CHUNK, np.nextafter(2.0**30, 0))
        half = np.full(aggregate.CHUNK, 0.5)
        mixed = np.concatenate((top, half, top[:3], half[:5]))
        for terms in (top, half, mixed):
            expect = math.fsum(terms.tolist())
            assert chunked_sum(terms, aggregate.CHUNK) == expect

    @pytest.mark.parametrize("bad", [2.0**30, 2.0**40, math.nan, 0.25])
    def test_term_outside_range_raises(self, bad, ledger_factory):
        terms = np.array([1.0, bad, 3.0])
        with pytest.raises(ValueError, match=r"leave \[1/2, 2\^30\)"):
            aggregate._exact_sum(terms)
        # in summarize, the error names f and N
        led = ledger_factory(F, 300)
        logs = np.array([math.log(p) for p in led.p.tolist()])
        logs[len(logs) // 2] = bad
        with pytest.raises(ValueError, match=r"^x\^2\+1 at N=300: log terms"):
            aggregate._summarize(led, logs)

    def test_summarize_chunks(self, ledger_factory, monkeypatch):
        # chunks of 1, 7, n - 1, n, n + 1 and 2^16 primes, so the zone
        # bounds fall inside chunks and at their ends; at N = 110 a Kahan
        # sum of log_QS misses fsum by one ulp
        cases = [ledger_factory(F, N) for N in (110, 300)]
        rng = random.Random(31)
        for degree in (2, 2, 3, 3, 4):
            cases.append(sieve.build_ledger(random_irreducible(rng, degree), 60))
        for led in cases:
            n = len(led.p)
            for chunk in (1, 7, n - 1, n, n + 1, 1 << 16):
                monkeypatch.setattr(aggregate, "CHUNK", chunk)
                assert record_sums(summarize(led)) == one_list_sums(led), chunk
        # ledgers of 0 and 1 primes
        for f, N, held in (("x^2-1", 1, 0), ("x^2+1", 1, 1)):
            led = sieve.build_ledger(parse_poly(f), N)
            assert len(led.p) == held
            assert record_sums(summarize(led)) == one_list_sums(led)


class TestSweep:
    def test_log_once_per_prime(self, monkeypatch):
        # a sweep takes math.log of each prime of its pass once, and of
        # each N >= 2 once for the normalizers
        calls = collections.Counter()

        def log(x):
            calls[x] += 1
            return math.log(x)

        counted = types.SimpleNamespace(log=log, nan=math.nan)
        monkeypatch.setattr(aggregate, "math", counted)
        schedule = [1, 2, 10, 100, 101, 1000, 3000]
        sweep(F, schedule)
        held = sieve.build_ledger(F, schedule[-1]).p.tolist()
        assert calls == collections.Counter(held + schedule[1:])

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
        # the schedule is checked before the pass, so no N is blamed
        with pytest.raises(ValueError, match="10 follows 100") as info:
            sweep(F, [100, 10])
        assert not hasattr(info.value, "__notes__")
        # at the call of iter_ledgers, before any iteration
        with pytest.raises(ValueError, match="3 follows 3"):
            sieve.iter_ledgers(F, [3, 3])

    @pytest.mark.parametrize(
        "poly, schedule",
        [
            ("x^2+1", [70000, 140000]),  # two segments per checkpoint
            ("6x^2-6", [1, 2, 3, 64, 65, 300]),  # a content, and a zero at n = 1
            ("x^5-x+1", [10, 200, 1500]),
        ],
    )
    def test_records_equal_single_builds(self, poly, schedule):
        f = parse_poly(poly)
        records, gaps = sweep(f, schedule)
        assert not gaps
        assert [rec.N for rec in records] == schedule
        for rec in records:
            alone = summarize(sieve.build_ledger(f, rec.N))
            assert rec == dataclasses.replace(alone, seconds=rec.seconds)

    def test_sink_receives_in_order(self):
        seen = []
        sweep(F, [5, 10, 20], sink=lambda r: seen.append(r.N))
        assert seen == [5, 10, 20]

    def test_factor_timeout_is_a_gap(self, monkeypatch):
        # with no rho steps, rho gives up on the first composite cofactor
        # above B^2 = 200^2, 1048561 = f(16); the pass ends there after the
        # records of N = 10 and 15
        f = parse_poly("x^5-x+1")
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(primes, "RHO_MAX_ITERS", 0)
            records, gaps = sweep(f, [10, 15, 16, 40], sink=lambda r: seen.append(r.N))
        assert [r.N for r in records] == seen == [10, 15]
        error = (
            "FactorTimeout: x^5-x+1 at N=16: n=16, cofactor 1048561: "
            "rho gave up on 1048561"
        )
        assert gaps == [(N, error) for N in (16, 40)]
        for rec in records:
            assert rec == dataclasses.replace(
                summarize(sieve.build_ledger(f, rec.N)), seconds=rec.seconds
            )

    def test_ledger_mismatch_propagates(self, monkeypatch):
        def mismatch(*args):
            raise sieve.LedgerMismatch("p=5: analytic alpha 3 != sieved 2")

        monkeypatch.setattr(sieve, "_checkpoint", mismatch)
        with pytest.raises(sieve.LedgerMismatch) as info:
            sweep(F, [5, 10])
        assert info.value.__notes__ == ["while sweeping x^2+1 at N=5"]

    def test_mismatch_at_small_checkpoint(self, monkeypatch):
        # one Leg 1 count is off at N = 10 only; the pass stops there
        layers = sieve.PrimeColumns.layers

        def off_at_10(cols, n_max, nzeros):
            full, g = layers(cols, n_max, nzeros)
            if n_max == 10:
                g[0] += 1
            return full, g

        monkeypatch.setattr(sieve.PrimeColumns, "layers", off_at_10)
        seen = []
        message = r"x\^2\+1 at N=10: p=2: "
        with pytest.raises(sieve.LedgerMismatch, match=message) as info:
            sweep(F, [5, 10, 100], sink=lambda r: seen.append(r.N))
        assert info.value.__notes__ == ["while sweeping x^2+1 at N=10"]
        assert seen == [5]
