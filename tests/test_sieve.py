import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lcmlab import modular, primes, sieve
from lcmlab.aggregate import summarize
from lcmlab.modular import roots_mod_p
from lcmlab.oracle import log_big, naive_run
from lcmlab.polynomial import IntPoly, discriminant, parse_poly, value_bound
from lcmlab.primes import FactorTimeout, factorize, is_probable_prime
from lcmlab.sieve import LedgerMismatch, build_ledger, factor_cofactor, local_data

from conftest import TEST_POLYS

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


class TestLocalData:
    def test_example_p5(self):
        d = local_data(F, roots_mod_p(F, 5), 10, value_bound(F, 10))
        assert (d.alpha, d.max_exp, d.hit_count) == (5, 2, 4)
        assert d.layer_counts == (4, 1)

    def test_example_rho_zero(self):
        d = local_data(F, roots_mod_p(F, 3), 100, value_bound(F, 100))
        assert (d.alpha, d.max_exp, d.hit_count) == (0, 0, 0)

    def test_example_single_large_hit(self):
        d = local_data(F, roots_mod_p(F, 101), 10, value_bound(F, 10))
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
        d = local_data(f, roots_mod_p(f, q), N, value_bound(f, N))
        assert d.roots == (4999, 5001)
        assert d.layer_counts == (2, 2, 2, 2, 2)

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
            assert set(led.entries) == set(ora.ledger.entries), (test_poly, N)
            for p in led.entries:
                assert _entry_tuple(led.entries[p]) == _entry_tuple(
                    ora.ledger.entries[p]
                ), (test_poly, N, p)

    @given(oracle_cases())
    @example((parse_poly("x^2+x+2"), 120))  # 2 | f(n) for all n
    @example((parse_poly("x^3-5*x^2+x-5"), 120))  # (x - 5)(x^2 + 1)
    @example((parse_poly("-3*x^5+6*x-9"), 40))  # content 3
    @example((parse_poly("x^3-x+1"), 60))  # f(56) = 419^2 with 419 > B
    @example((parse_poly("4099*x^2+4099"), 30))  # content 4099 > 2048
    @example((parse_poly("24*x^2+24*x+48"), 120))  # 24 = 2^3 * 3, 2 | f(n)/24
    @settings(derandomize=True, max_examples=80, deadline=None)
    def test_random_oracle_equivalence(self, case):
        f, N = case
        assume(discriminant(f) != 0)
        led = build_ledger(f, N)
        ora = naive_run(f, N)
        assert {p: _entry_tuple(d) for p, d in led.entries.items()} == {
            p: _entry_tuple(d) for p, d in ora.ledger.entries.items()
        }
        rec = summarize(led)
        for got, exact in ((rec.log_L, ora.lcm_value), (rec.log_rad, ora.rad_value)):
            assert abs(got - log_big(exact)) <= 1e-9 * max(got, 1.0)

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
        # primes above B carry every (n, v_p(f(n))) with p | f(n), n <= N
        N = 300
        ledger = ledger_factory(test_poly, N)
        for p, data in ledger.entries.items():
            if p <= ledger.B:
                assert data.hits == ()
                continue
            expected = []
            for n in range(1, N + 1):
                v, e = abs(test_poly.eval(n)), 0
                while v % p == 0:
                    v //= p
                    e += 1
                if e:
                    expected.append((n, e))
            assert data.hits == tuple(expected), p

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
        assert led.skipped_zero_count == 1  # g(1) = 0
        direct = sum(
            math.log(abs(g.eval(n))) for n in range(2, 21)
        )
        from_ledger = sum(d.alpha * math.log(p) for p, d in led.entries.items())
        assert abs(from_ledger - direct) <= 1e-9 * abs(direct)


class TestColumnarLedger:
    def test_object_columns(self):
        # value_bound >= 2^63, so Legs 2 and 3 run in Python-int columns
        f = parse_poly("x^2+18446744073709551617")
        N = 300
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
            assert led.entries[p].hits == tuple(expected), p

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
        assert ora.ledger.entries == {
            p: dataclasses.replace(d, roots=(), hits=())
            for p, d in led.entries.items()
        }
        again = sieve.FactorLedger.from_entries(
            f=F, N=N, entries=dict(led.entries.items()),
            skipped_zero_count=0, profile=led.profile,
        )
        assert again.entries == led.entries
        assert summarize(again) == summarize(led)


class TestLegCrossCheck:
    def test_missed_root_fails(self, monkeypatch):
        # Without root 514 of x^3+2 mod 2069, f(514) = 2069 * 10939 is left
        # as a cofactor below B^2 = 8000^2 that is not prime.
        f = parse_poly("x^3+2")
        assert roots_mod_p(f, 2069).roots == (514,)
        found = modular.roots_mod_primes

        def drop_root(g, block, seed=0):
            out = found(g, block, seed)
            return [
                modular.RootSet(rs.p, 1, (), ()) if rs.p == 2069 else rs
                for rs in out
            ]

        monkeypatch.setattr(modular, "roots_mod_primes", drop_root)
        with pytest.raises(LedgerMismatch, match="22632791"):
            build_ledger(f, 2000)

    @pytest.mark.parametrize("poly", ["x^2+1", "5x^2+5"])
    def test_layer_vector_checked(self, monkeypatch, poly):
        # (4, 1) -> (5,) keeps alpha = 5 at p = 5 for x^2+1, N = 10. For
        # 5x^2+5 the stored row at p = 5 is the content layer (10,)
        # followed by the corrupted layers of x^2+1.
        exact = sieve.local_data

        def wrong_layers(*args, **kwargs):
            data = exact(*args, **kwargs)
            if data.layer_counts == (4, 1):
                return dataclasses.replace(data, layer_counts=(5,))
            return data

        monkeypatch.setattr(sieve, "local_data", wrong_layers)
        with pytest.raises(LedgerMismatch, match="p=5: "):
            build_ledger(parse_poly(poly), 10)

    def test_fermat_kernel_matches_pow(self):
        rng = random.Random(7)
        # near 2^50 the float quotient is off by one in either direction
        # for a few percent of products
        m = [rng.randrange(1 << 49, 1 << 50) for _ in range(2000)]
        a, b = ([rng.randrange(x) for x in m] for _ in range(2))
        got = sieve._mulmod(*(np.array(v, dtype=np.int64) for v in (a, b, m)))
        assert got.tolist() == [x * y % z for x, y, z in zip(a, b, m)]
        ms = [
            rng.randrange(3, 1 << bits)
            for bits in (12, 40, 50, 51, 62, 90)
            for _ in range(300)
        ]
        ms += [(1 << 50) - 1, 1 << 50, 341, 561, 2069 * 10939, 1093**2]
        for column in (np.array(ms, dtype=object), sieve._int_column(ms[:1500])):
            got = sieve._fermat_base2(column)
            assert got.tolist() == [pow(2, x - 1, x) == 1 for x in column.tolist()]


@pytest.mark.parametrize("span", [64, 1000])
def test_iter_primes_segments(span, monkeypatch):
    import sympy

    monkeypatch.setattr(primes, "_SEGMENT_SPAN", span)
    # segments are [2 + i*span, 2 + (i+1)*span); base primes up to 346
    # exceed the smaller span, so some have no multiple in a segment
    edges = [1 + i * span + j for i in (1, 2, 3) for j in (-1, 0, 1)]
    for limit in [0, 1, 2, 3, *edges, 120_011]:
        assert list(primes.iter_primes(limit)) == list(
            sympy.primerange(limit + 1)
        ), limit


class TestFactorCofactor:
    def test_examples(self):
        assert factor_cofactor(561) == [(3, 1), (11, 1), (17, 1)]
        assert factor_cofactor(101) == [(101, 1)]
        assert factor_cofactor(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]

    def test_rejects_unit(self):
        with pytest.raises(ValueError):
            factor_cofactor(1)

    def test_timeout_surfaces(self):
        # absurdly small budget forces the timeout path on a hard semiprime
        n = (10**9 + 7) * (10**9 + 9)
        with pytest.raises(FactorTimeout):
            factorize(n, max_iters=2, attempts=1)

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
