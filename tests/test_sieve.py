import concurrent.futures
import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lcmlab import modular, polynomial, primes, sieve
from lcmlab.aggregate import summarize, sweep
from lcmlab.modular import roots_mod_p
from lcmlab.oracle import log_big, naive_run
from lcmlab.polynomial import IntPoly, discriminant, parse_poly, value_bound
from lcmlab.primes import FactorTimeout, factorize, is_probable_prime
from lcmlab.sieve import LedgerMismatch, build_ledger, factor_cofactor, prime_data

from conftest import TEST_POLYS
from test_modular import scan_roots

F = parse_poly("x^2+1")


def _entry_tuple(d):
    return (d.alpha, d.max_exp, d.hit_count, d.layer_counts)


# Largest N per degree: the oracle's trial division grows with |f(N)|.
ORACLE_N = {2: 120, 3: 120, 4: 60, 5: 40}


@st.composite
def oracle_cases(draw):
    """(f, N): f of degree 2 to 5, nonmonic, either sign of leading
    coefficient, content up to 3, and in about a third of the cases an
    integer zero in [1, N]."""
    d = draw(st.integers(2, 5))
    N = draw(st.integers(1, ORACLE_N[d]))
    zero = draw(st.one_of(st.none(), st.none(), st.integers(1, N)))
    k = d if zero is None else d - 1
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k))
    coeffs.append(draw(st.integers(-12, 12).filter(bool)))
    if zero is not None:  # times (x - zero)
        coeffs = [a - zero * b for a, b in zip([0] + coeffs, coeffs + [0])]
    content = draw(st.sampled_from([1, 1, 2, 3]))
    return IntPoly(tuple(content * c for c in coeffs)), N


def oracle_test(test):
    """``test(self, case)`` on 80 oracle_cases() and the examples below."""
    for case in (
        (parse_poly("x^2+x+2"), 120),  # 2 | f(n) for all n
        (parse_poly("x^3-5*x^2+x-5"), 120),  # (x - 5)(x^2 + 1)
        (parse_poly("-3*x^5+6*x-9"), 40),  # content 3
        (parse_poly("x^3-x+1"), 60),  # f(56) = 419^2 with 419 > B
        (parse_poly("4099*x^2+4099"), 30),  # content 4099 > 2048
        (parse_poly("24*x^2+24*x+48"), 120),  # 24 = 2^3 * 3, 2 | f(n)/24
    ):
        test = example(case)(test)
    return given(oracle_cases())(
        settings(derandomize=True, max_examples=80, deadline=None)(test)
    )


def _assert_matches_oracle(f, N):
    assume(discriminant(f) != 0)
    led = build_ledger(f, N)
    ora = naive_run(f, N)
    assert {p: _entry_tuple(d) for p, d in led.entries.items()} == {
        p: _entry_tuple(d) for p, d in ora.entries.items()
    }
    rec = summarize(led)
    for got, exact in ((rec.log_L, ora.lcm_value), (rec.log_rad, ora.rad_value)):
        assert abs(got - log_big(exact)) <= 1e-9 * max(got, 1.0)


class TestLocalData:
    def test_example_p5(self):
        d = prime_data(F, 5, 10, 0)
        assert (d.alpha, d.max_exp, d.hit_count) == (5, 2, 4)
        assert d.layer_counts == (4, 1)

    def test_example_rho_zero(self):
        d = prime_data(F, 3, 100, 0)
        assert (d.alpha, d.max_exp, d.hit_count) == (0, 0, 0)

    def test_example_single_large_hit(self):
        d = prime_data(F, 101, 10, 0)
        assert (d.alpha, d.max_exp, d.hit_count) == (1, 1, 1)

    def test_maximum_between_critical_points(self):
        # f = (x - 5000)^6 - (q^5 + 1): f(4999) = f(5001) = -q^5, while the
        # largest |f(n)| on [1, 10^4] is |f(5000)| = q^5 + 1, far from the
        # real critical point a float root finder reports (5005.13).
        q, N = 27011, 10**4
        coeffs = [math.comb(6, i) * (-5000) ** (6 - i) for i in range(7)]
        coeffs[0] -= q**5 + 1
        f = IntPoly(tuple(coeffs))
        assert f.eval(5001) == f.eval(4999) == -(q**5)
        d = prime_data(f, q, N, 0)
        assert d.roots == (4999, 5001)
        assert d.layer_counts == (2, 2, 2, 2, 2)

    @pytest.mark.parametrize(
        "poly, p, N, layers",
        [
            # the root 0 has no lift mod p^2
            ("x^2+1000003", 1000003, 2000006, (2,)),
            # 4295098369 = 65537^2: the root 0 lifts to all p residues
            ("x^2+4295098369", 65537, 131074, (2, 2)),
        ],
        ids=["x^2+1000003", "x^2+65537^2"],
    )
    def test_large_ramified_prime(self, poly, p, N, layers):
        # p^2 >= 2^31, so the lifts run on Python-int moduli; the roots of
        # f mod p are its multiples of p
        f = parse_poly(poly)
        v = [sieve._valuation(f.eval(n), p) for n in range(p, N + 1, p)]
        expected = tuple(sum(x >= k for x in v) for k in range(1, max(v) + 1))
        assert prime_data(f, p, N, 0).layer_counts == expected == layers

    def test_layer_identities(self, ledger_factory, test_poly):
        ledger = ledger_factory(test_poly, 300)
        for p, d in ledger.entries.items():
            assert d.alpha == sum(d.layer_counts)
            assert all(
                a >= b for a, b in zip(d.layer_counts, d.layer_counts[1:])
            )
            assert d.hit_count == d.layer_counts[0]
            assert d.max_exp == len(d.layer_counts)
            assert d.max_exp <= d.alpha <= d.hit_count * d.max_exp


class TestBuildLedger:
    def test_example_n5(self):
        led = build_ledger(F, 5)
        got = {p: (d.alpha, d.max_exp, d.hit_count) for p, d in led.entries.items()}
        assert got == {2: (3, 1, 3), 5: (2, 1, 2), 13: (1, 1, 1), 17: (1, 1, 1)}
        lcm = 1
        for p, d in led.entries.items():
            lcm *= p**d.max_exp
        assert lcm == 2210

    def test_example_n1(self):
        led = build_ledger(F, 1)
        assert {p: d.alpha for p, d in led.entries.items()} == {2: 1}

    def test_empty_product(self):
        led = build_ledger(F, 0)
        assert led.entries == {}

    def test_oracle_equivalence(self, ledger_factory, test_poly):
        for N in list(range(1, 60)) + [150, 500]:
            led = ledger_factory(test_poly, N)
            ora = naive_run(test_poly, N)
            assert set(led.entries) == set(ora.entries), (test_poly, N)
            for p in led.entries:
                assert _entry_tuple(led.entries[p]) == _entry_tuple(
                    ora.entries[p]
                ), (test_poly, N, p)

    @oracle_test
    def test_random_oracle_equivalence(self, case):
        _assert_matches_oracle(*case)

    @oracle_test
    def test_random_oracle_equivalence_in_lanes(self, case):
        # every Miller-Rabin round and rho walk below 2^63 runs in lanes
        with mock.patch.object(primes, "LANES", 1):
            _assert_matches_oracle(*case)

    def test_quintic_lanes_equal_scalar(self, monkeypatch):
        # 1225 cofactors above B^2, 478 of them composite; with LANES =
        # 10^9 every walk is scalar
        f = parse_poly("x^5-x+1")
        lanes = build_ledger(f, 1500)
        monkeypatch.setattr(primes, "LANES", 10**9)
        scalar = build_ledger(f, 1500)
        assert dict(lanes.entries) == dict(scalar.entries)

    def test_partition_independence(self, test_poly, monkeypatch):
        N = 400
        ledgers = []
        for size in (64, 1000, N):
            monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
            ledgers.append(build_ledger(test_poly, N))
        # Leg 1 with the primes streamed in blocks of 1 and of 7
        for size in (1, 7):
            monkeypatch.setattr(modular, "BLOCK_SIZE", size)
            ledgers.append(build_ledger(test_poly, N))
        base = {p: _entry_tuple(d) for p, d in ledgers[0].entries.items()}
        for led in ledgers[1:]:
            assert {p: _entry_tuple(d) for p, d in led.entries.items()} == base

    def test_worker_independence(self, test_poly):
        serial = build_ledger(test_poly, 300, workers=1)
        parallel = build_ledger(test_poly, 300, workers=4)
        assert {p: _entry_tuple(d) for p, d in serial.entries.items()} == {
            p: _entry_tuple(d) for p, d in parallel.entries.items()
        }

    def test_zone_consistency_large_primes(self, ledger_factory, test_poly):
        d = test_poly.degree
        ledger = ledger_factory(test_poly, 300)
        for p in ledger.p[ledger.p > ledger.B].tolist():
            data = ledger.entries[p]
            assert data.hit_count <= d and data.max_exp <= d, (p, data)

    def test_large_prime_hits(self, ledger_factory, test_poly):
        # a prime above B keeps as its roots every n <= N with p | f(n), and
        # prime_hits reads each v_p(f(n)) off them
        N = 300
        ledger = ledger_factory(test_poly, N)
        for p in ledger.p[ledger.p > ledger.B].tolist():
            expected = []
            for n in range(1, N + 1):
                v, e = abs(test_poly.eval(n)), 0
                while v % p == 0:
                    v //= p
                    e += 1
                if e:
                    expected.append((n, e))
            assert ledger.prime_hits(p, N) == expected, p
            assert ledger.entries[p].roots == tuple(n for n, _ in expected), p

    @pytest.mark.parametrize("poly", ["x^2+1", "x^3+2", "6x^2-6"])
    def test_prime_hits_at_any_limit(self, poly):
        # a limit at or past p reads every n = r mod p, not only the roots
        # r; 6x^2-6 has the content primes 2 and 3 and the zero n = 1
        f, N = parse_poly(poly), 30
        led = build_ledger(f, N)
        for p in led.entries:
            expected = []
            for n in range(1, N + 1):
                v, e = f.eval(n), 0
                while v and v % p == 0:
                    v //= p
                    e += 1
                if e:
                    expected.append((n, e))
            for limit in sorted({1, min(p, N), N}):
                hits = [(n, e) for n, e in expected if n <= limit]
                assert led.prime_hits(p, limit) == hits, (p, limit)
        with pytest.raises(ValueError, match="exceeds"):
            led.prime_hits(2, N + 1)

    def test_log_sum_agreement(self, ledger_factory, test_poly):
        N = 300
        ledger = ledger_factory(test_poly, N)
        from_ledger = sum(
            d.alpha * math.log(p) for p, d in ledger.entries.items()
        )
        direct = sum(math.log(abs(test_poly.eval(n))) for n in range(1, N + 1))
        assert abs(from_ledger - direct) <= 1e-6 * abs(direct)

    def test_reducible_poly_skips_zeros(self):
        g = parse_poly("x^2-1")
        led = build_ledger(g, 20)
        direct = sum(
            math.log(abs(g.eval(n))) for n in range(2, 21)
        )
        from_ledger = sum(d.alpha * math.log(p) for p, d in led.entries.items())
        assert abs(from_ledger - direct) <= 1e-9 * abs(direct)


def test_build_loads_no_lazy_numpy_module():
    # numpy.random and numpy.ma load on first use, at a cost in peak RSS of
    # a few MB (numpy.random) that the benchmark's bound would see
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from lcmlab import build_ledger, parse_poly\n"
        "build_ledger(parse_poly('x^2+1'), 2000)\n"
        "print(sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"


@st.composite
def schedule_cases(draw):
    """(f, schedule): f of degree 2 to 4 with content up to 3 and, in about
    a third of the cases, an integer zero; the schedule is one point, or
    increasing with, in about half of the cases, some adjacent N and N + 1."""
    d = draw(st.integers(2, 4))
    zero = draw(st.one_of(st.none(), st.none(), st.integers(1, 60)))
    k = d if zero is None else d - 1
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k))
    coeffs.append(draw(st.integers(-12, 12).filter(bool)))
    if zero is not None:
        coeffs = [a - zero * b for a, b in zip([0] + coeffs, coeffs + [0])]
    content = draw(st.sampled_from([1, 1, 2, 3]))
    points = draw(st.lists(st.integers(1, 300), min_size=1, max_size=5, unique=True))
    if draw(st.booleans()):
        points += [n + 1 for n in points]
    return IntPoly(tuple(content * c for c in coeffs)), sorted(set(points))


class TestCheckpointPass:
    """iter_ledgers makes every checkpoint's ledger in one pass."""

    @given(schedule_cases())
    @example((parse_poly("x^2+1"), [5]))
    @example((parse_poly("x^2+1"), [1, 2, 5, 6]))  # 17 | f(4): above B at N = 5
    @example((parse_poly("6*x^3-6*x"), [1, 2, 3, 4]))  # content 6, zero at 1
    @example((parse_poly("x^2-1"), [1, 2, 20]))  # every value zero at N = 1
    # f(8) = 181^2 and 929^2 | f(60): a prime in (D*N_1, B] whose hit has
    # exponent 2, from two layers' progressions
    @example((parse_poly("x^5-x+1"), [10, 40]))
    @example((parse_poly("x^5-x+1"), [60, 200]))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_checkpoints_equal_builds(self, case):
        f, schedule = case
        assume(discriminant(f) != 0)
        ledgers = list(sieve.iter_ledgers(f, schedule))
        assert [led.N for led in ledgers] == schedule
        for led in ledgers:
            single = build_ledger(f, led.N)
            assert dict(led.entries) == dict(single.entries), (f, led.N)
            assert summarize(led) == summarize(single)

    def test_oracle_at_every_checkpoint(self):
        f = parse_poly("x^2+x+1")
        schedule = [1, 2, 999, 1000, 2500, 10000]
        for led in sieve.iter_ledgers(f, schedule):
            ora = naive_run(f, led.N)
            assert {p: _entry_tuple(d) for p, d in led.entries.items()} == {
                p: _entry_tuple(d) for p, d in ora.entries.items()
            }, led.N

    @pytest.mark.parametrize("size", [7, 64])
    @pytest.mark.parametrize(
        "poly, schedule",
        [
            ("x^2+1", [1, 2, 6, 7, 10, 14, 64, 65, 100, 128, 129, 200, 448]),
            # the content 6 and the integer zero n = 1
            ("6x^2-6", [1, 2, 3, 7, 13, 14, 21, 63, 64, 100, 191, 300]),
            # Leg 3 factors cofactors above B^2 by rho
            ("x^5-x+1", [1, 3, 7, 8, 20, 49, 64, 70, 127, 128, 150]),
            # values above 2^63: Python-int columns and Leg 3 primes
            ("x^2+20000000000000000003", [1, 2, 7, 10, 14, 30, 64, 65, 100, 128]),
        ],
    )
    def test_checkpoints_across_segments(self, monkeypatch, poly, schedule, size):
        # with segments of 7 or 64 values, checkpoints fall inside segments
        # and at their ends; Leg 3's run and Leg 2's progressions are then
        # carried across many segments and checkpoints
        f = parse_poly(poly)
        singles = {N: build_ledger(f, N) for N in schedule}
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
        ledgers = list(sieve.iter_ledgers(f, schedule))
        records, gaps = sweep(f, schedule)
        assert not gaps
        assert [led.N for led in ledgers] == [r.N for r in records] == schedule
        for led, rec in zip(ledgers, records):
            single = singles[led.N]
            assert dict(led.entries) == dict(single.entries), (poly, led.N)
            assert summarize(led) == summarize(single)
            assert dataclasses.replace(rec, seconds=0.0) == summarize(single)
        if poly == "x^5-x+1":
            # Leg 3 primes above B = 900: 929^2 | f(60), a pair of two rows,
            # and 3121's hits 5 and 81 lie in different segments and
            # checkpoints
            last = ledgers[-1].entries
            assert last[929].layer_counts == (1, 1)
            assert last[3121].roots == (5, 81)

    def test_leg1_streams_primes(self, monkeypatch):
        # with 2 workers at most 4 blocks are in flight, so the first
        # block's result arrives after 4 of the 379 blocks were read
        read = []
        stream = primes.prime_blocks

        def counted(limit, size):
            for block in stream(limit, size):
                if size == 16:  # Leg 1's stream, not the base primes' sieve
                    read.extend(block.tolist())
                yield block

        monkeypatch.setattr(primes, "prime_blocks", counted)
        monkeypatch.setattr(modular, "BLOCK_SIZE", 16)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool's cap
        N = 20000
        blocks = sieve._leg1(F.coeffs, 3 * N, N, (), 0, workers=2)
        first = next(blocks)
        assert len(read) == 4 * 16
        cols = sieve.PrimeColumns.concat([first, *blocks])
        assert len(read) == 6057  # the primes up to B = 60000
        assert cols.p.tolist() == [p for p in read if p == 2 or p % 4 == 1]

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # a pool starts all its workers at the first submit, so --workers
        # 10^6 would fork 10^6 processes; this pool runs each block in-line
        made = []

        class InlinePool(concurrent.futures.Executor):
            def __init__(self, max_workers):
                made.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(sieve, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(modular, "BLOCK_SIZE", 16)
        led = build_ledger(F, 2000, workers=10**6)
        assert made == [3]
        assert dict(led.entries) == dict(build_ledger(F, 2000).entries)


def per_prime_columns(f, block, N, zeros):
    """Leg 1 one prime at a time, as it ran before the block columns: the
    roots of g = f/c mod p by a scan, every lift by a search over the p
    candidates. The (p, roots, (row, level, r, m)) rows of the block."""
    g = sieve.primitive_part(f)
    cap = value_bound(g, N)
    c = math.gcd(*f.coeffs)
    ps, roots, progs = [], [], []
    for p in block:
        rs = scan_roots(g, p)
        e = sieve._valuation(c, p) if c % p == 0 and N > len(zeros) else 0
        if not (rs or e):
            continue
        row = len(ps)
        ps.append(p)
        roots.append(rs)
        progs += [(row, k, 0, 1) for k in range(1, e + 1)]
        k = 1
        while rs:
            pk = p**k
            if sum(sieve._count_progression(r, pk, N) for r in rs) <= len(zeros):
                break
            progs += [(row, e + k, r if r <= N else 0, min(pk, N + 1)) for r in rs]
            if pk * p > cap:
                break
            rs = tuple(
                sorted(
                    r + t * pk
                    for r in rs
                    for t in range(p)
                    if g.eval(r + t * pk) % (pk * p) == 0
                )
            )
            k += 1
    return ps, roots, progs


@st.composite
def block_cases(draw):
    """(f, N): a quadratic or cubic, nonmonic, with content up to 6 and, in
    about a third of the cases, a rational root a/b."""
    d = draw(st.integers(2, 3))
    fraction = st.tuples(st.integers(-9, 9), st.integers(1, 3))
    root = draw(st.one_of(st.none(), st.none(), fraction))
    k = d if root is None else d - 1
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=k, max_size=k))
    coeffs.append(draw(st.integers(-12, 12).filter(bool)))
    if root is not None:  # times (b*x - a)
        a, b = root
        coeffs = [b * x - a * y for x, y in zip([0] + coeffs, coeffs + [0])]
    content = draw(st.sampled_from([1, 1, 2, 3, 6]))
    N = draw(st.integers(1, 120 if d == 2 else 60))
    return IntPoly(tuple(content * c for c in coeffs)), N


class TestBlockColumns:
    @given(block_cases())
    @example((parse_poly("6x^2-6"), 100))
    @example((parse_poly("x^2-1"), 100))
    @example((parse_poly("3x^2+5x+7"), 100))  # degree 1 mod 3
    @example((parse_poly("x^2-45"), 120))  # ramified at 3 and 5
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_blocks_match_per_prime(self, case):
        # every block of 16 primes, as Leg 1 makes it in columns, equals
        # the per-prime walk, column for column
        f, N = case
        assume(discriminant(f) != 0)
        zeros = f.profile.integer_roots_in_range(N)
        B = f.profile.D * N
        with mock.patch.object(modular, "BLOCK_SIZE", 16):
            blocks = list(sieve._leg1(f.coeffs, B, N, zeros, 0, workers=1))
        stream = primes.sieve_primes(B)
        for i, cols in enumerate(blocks):
            block = stream[16 * i : 16 * (i + 1)]
            ps, roots, progs = per_prime_columns(f, block, N, zeros)
            assert cols.p.tolist() == ps
            assert [tuple(cols.roots.row(i).tolist()) for i in range(len(ps))] == roots
            got = np.stack((cols.row, cols.level, cols.r, cols.m), axis=1)
            assert got.tolist() == [list(x) for x in progs]
            dtypes = {a.dtype for a in (cols.p, cols.roots.values, got)}
            assert dtypes == {np.dtype(np.int64)}


class TestColumnarLedger:
    @pytest.mark.parametrize(
        "poly, N", [("x^2+18446744073709551617", 300), ("x^7+x+1", 600)]
    )
    def test_object_columns(self, poly, N):
        # value_bound >= 2^63, so Legs 2 and 3 run in Python-int columns;
        # x^7+x+1 sends 555 cofactors above B^2 to Leg 3 in one batch
        f = parse_poly(poly)
        assert value_bound(f, N) >= 2**63
        led = build_ledger(f, N)
        assert led.p.dtype == object
        values = [abs(f.eval(n)) for n in range(1, N + 1)]
        assert math.prod(p**d.alpha for p, d in led.entries.items()) == math.prod(
            values
        )
        assert math.prod(
            p**d.max_exp for p, d in led.entries.items()
        ) == math.lcm(*values)
        for p in led.p[led.p > led.B].tolist():
            expected = []
            for n, v in enumerate(values, start=1):
                e = 0
                while v % p == 0:
                    v //= p
                    e += 1
                if e:
                    expected.append((n, e))
            assert led.prime_hits(p, N) == expected, p
            assert led.entries[p].roots == tuple(n for n, _ in expected), p

    def test_entries_mapping(self):
        N = 300
        led = build_ledger(F, N)
        ora = naive_run(F, N)
        keys = list(led.entries)
        assert keys == sorted(keys) and len(led.entries) == len(keys)
        with pytest.raises(TypeError):
            led.entries[keys[0]] = led.entries[keys[0]]
        assert 3 not in led.entries and "5" not in led.entries
        with pytest.raises(KeyError):
            led.entries[3]
        assert ora.entries == {
            p: dataclasses.replace(d, roots=()) for p, d in led.entries.items()
        }


class TestLegCrossCheck:
    def test_missed_root_fails(self, monkeypatch):
        # Without root 514 of x^3+2 mod 2069, f(514) = 2069 * 10939 is left
        # as a cofactor below B^2 = 8000^2 that is not prime.
        f = parse_poly("x^3+2")
        assert roots_mod_p(f, 2069).roots == (514,)
        found = modular.roots_mod_primes

        def drop_root(g, block, seed=0):
            cols = found(g, block, seed)
            return cols.take((cols.p[cols.row] != 2069) | (cols.r != 514))

        monkeypatch.setattr(modular, "roots_mod_primes", drop_root)
        with pytest.raises(LedgerMismatch, match="22632791"):
            build_ledger(f, 2000)

    @pytest.mark.parametrize("poly", ["x^2+1", "5x^2+5"])
    def test_layer_vector_checked(self, monkeypatch, poly):
        # Leg 1's last layer at p = 5 is moved down one level: the
        # progressions 7 mod 25 and 18 mod 25 of x^2+1 then count in b_1,
        # and (4, 1) -> (5,) keeps alpha = 5 at N = 10. For 5x^2+5 the row
        # at p = 5 starts with the content layer (10,), and its layers of
        # x^2+1 become (5,) in the same way. Leg 2 stops at n = 7: 25
        # divides g(7) = 50, past the moved layer.
        exact = sieve._prime_columns

        def wrong_layers(*args, **kwargs):
            cols = exact(*args, **kwargs)
            at = cols.p[cols.row] == 5
            last = at & (cols.level == cols.level[at].max(initial=0))
            return dataclasses.replace(cols, level=cols.level - last)

        monkeypatch.setattr(sieve, "_prime_columns", wrong_layers)
        with pytest.raises(LedgerMismatch, match="p=5: ") as info:
            build_ledger(parse_poly(poly), 10)
        assert re.search(r"\bn=7\b", str(info.value))

    @pytest.mark.parametrize("poly", ["x^2-1", "6x^3-6x"])
    def test_dropped_zero_fails(self, monkeypatch, poly):
        # with its first integer zero n = 1 dropped, Leg 1 counts f(1) = 0
        # as a hit of every progression of the root 1, which Leg 2 never
        # divides
        exact = polynomial.PolyProfile.integer_roots_in_range
        monkeypatch.setattr(
            polynomial.PolyProfile,
            "integer_roots_in_range",
            lambda prof, N: exact(prof, N)[1:],
        )
        with pytest.raises(LedgerMismatch, match="analytic layers"):
            build_ledger(parse_poly(poly), 10)


def test_root_finder_error_names_block(unsplit_blocks):
    # x^3+2 at 500: B = 2000, one block of the 303 primes 2..1999; the
    # note survives the pickling that brings it back from a pool worker
    with pytest.raises(ValueError, match="p=3 did not split") as info:
        build_ledger(parse_poly("x^3+2"), 500)
    note = "Leg 1 of x^3+2 at N=500, primes 2..1999"
    assert info.value.__notes__ == [note]
    assert pickle.loads(pickle.dumps(info.value)).__notes__ == [note]


@pytest.mark.parametrize("span", [64, 1000])
def test_prime_blocks_segments(span, monkeypatch):
    import sympy

    monkeypatch.setattr(primes, "_SEGMENT_SPAN", span)
    # segments are [2 + i*span, 2 + (i+1)*span); base primes up to 346
    # exceed the smaller span, so some have no multiple in a segment.
    # Blocks of 7 and 50 primes straddle segment ends.
    edges = [1 + i * span + j for i in (1, 2, 3) for j in (-1, 0, 1)]
    for limit in [0, 1, 2, 3, *edges, 120_011]:
        expected = list(sympy.primerange(limit + 1))
        assert primes.sieve_primes(limit) == expected, limit
        for size in (7, 50):
            blocks = list(primes.prime_blocks(limit, size))
            assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
            assert all(b.dtype == np.int64 and len(b) for b in blocks)
            assert [p for b in blocks for p in b.tolist()] == expected, limit


class TestFactorCofactor:
    def test_examples(self):
        assert factor_cofactor(561) == [(3, 1), (11, 1), (17, 1)]
        assert factor_cofactor(101) == [(101, 1)]
        assert factor_cofactor(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]

    def test_rejects_unit(self):
        with pytest.raises(ValueError):
            factor_cofactor(1)

    def test_timeout_surfaces(self, monkeypatch):
        # absurdly small budget forces the timeout path on a hard semiprime
        monkeypatch.setattr(primes, "RHO_MAX_ITERS", 2)
        monkeypatch.setattr(primes, "RHO_ATTEMPTS", 1)
        n = (10**9 + 7) * (10**9 + 9)
        with pytest.raises(FactorTimeout, match=f"^rho gave up on {n}$"):
            factorize(n)

    def test_primality_agrees_with_trial_division(self):
        def trial_prime(n):
            if n < 2:
                return False
            d = 2
            while d * d <= n:
                if n % d == 0:
                    return False
                d += 1
            return True

        for n in range(2, 3000):
            assert is_probable_prime(n) == trial_prime(n), n

    def test_primality_large_values_vs_sympy(self):
        import sympy

        for n in [2**61 - 1, 2**64 + 13, 2**67 - 1, 10**18 + 9, 561, 6601]:
            assert is_probable_prime(n) == sympy.isprime(n), n
