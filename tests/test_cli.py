import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lcmlab import aggregate, analysis, parse_poly, polynomial, primes, sieve
from lcmlab.cli import CSV_COLUMNS, build_parser, main

from conftest import TEST_POLYS

README = Path(__file__).resolve().parent.parent / "README.md"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_config_error(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def _strip_seconds(csv_text):
    lines = csv_text.splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestSweep:
    def test_csv_columns_and_trend(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = _run(
            capsys, "sweep", "--poly", "x^2+1", "--n", "10,100,1000",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# lcmlab sweep")
        assert "seed=0" in lines[0]
        assert lines[1] == ",".join(CSV_COLUMNS)
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["10", "100", "1000"]
        ratios = [float(r[CSV_COLUMNS.index("ratio_L")]) for r in rows]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_ledger_mismatch_exit_1(self, monkeypatch, capsys):
        def mismatch(*args):
            raise sieve.LedgerMismatch("p=5: analytic alpha 3 != sieved 2")

        monkeypatch.setattr(sieve, "_checkpoint", mismatch)
        code, _, err = _run(capsys, "sweep", "--poly", "x^2+1", "--n", "10,20")
        assert code == 1
        assert "p=5: analytic alpha 3 != sieved 2" in err
        assert "x^2+1 at N=10" in err

    def test_empty_schedule_exit_1(self, capsys):
        code, _, err = _run(capsys, "sweep", "--poly", "x^2+1", "--n", "")
        assert code == 1
        assert "empty schedule" in err

    def test_reducible_warning_still_runs(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, err = _run(
            capsys, "sweep", "--poly", "x^2-1", "--n", "10", "--out", str(out)
        )
        assert code == 0
        assert "reducible" in err
        assert len(out.read_text().splitlines()) == 3

    def test_ratio_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        _run(capsys, "sweep", "--poly", "x^3+2", "--n", "20,50", "--out", str(out))
        d = 3
        for line in out.read_text().splitlines()[2:]:
            row = dict(zip(CSV_COLUMNS, line.split(",")))
            N = int(row["N"])
            rederived = float(row["log_L"]) / ((d - 1) * N * math.log(N))
            assert abs(rederived - float(row["ratio_L"])) <= 1e-12

    def test_byte_identical_across_worker_counts(self, tmp_path, capsys):
        outs = []
        for workers, name in ((1, "a.csv"), (4, "b.csv")):
            out = tmp_path / name
            code, _, _ = _run(
                capsys, "sweep", "--poly", "x^2+1", "--n", "200,400",
                "--workers", str(workers), "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_text())
        # identical except the wall-clock seconds column
        assert _strip_seconds(outs[0]) == _strip_seconds(outs[1])

    def test_ndjson_stream(self, tmp_path, capsys):
        out = tmp_path / "s.ndjson"
        code, _, _ = _run(
            capsys, "sweep", "--poly", "x^2+1", "--n", "5,10",
            "--format", "ndjson", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["meta"]["seed"] == 0
        assert [json.loads(l)["N"] for l in lines[1:]] == [5, 10]

    def test_geometric_schedule(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code, _, _ = _run(
            capsys, "sweep", "--poly", "x^2+1", "--n-geom", "10:1000:10",
            "--out", str(out),
        )
        assert code == 0
        ns = [int(l.split(",")[0]) for l in out.read_text().splitlines()[2:]]
        assert ns == [10, 100, 1000]

    def test_empty_geometric_schedule_exit_1(self, capsys):
        result = _run(capsys, "sweep", "--poly", "x^2+1", "--n-geom", "100:10:2")
        _assert_config_error(*result)
        assert "empty schedule" in result[2]

    def test_degree_1_exit_1(self, capsys):
        result = _run(capsys, "sweep", "--poly", "x+1", "--n", "10")
        _assert_config_error(*result)
        assert "degree" in result[2]

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_zero_discriminant_exit_1(self, capsys, command):
        result = _run(capsys, command, "--poly", "x^2", "--n", "10")
        _assert_config_error(*result)
        assert "squarefree" in result[2]

    def test_bad_schedule_exit_1(self, capsys):
        code, _, _ = _run(capsys, "sweep", "--poly", "x^2+1", "--n", "10,5")
        assert code == 1

    @pytest.mark.parametrize(
        "schedule, message",
        [
            (("--n", "7,9", "--n-geom", "10:20:2"), "not both"),
            (("--n-geom", "1:10:nan"), "bad geometric schedule"),
            (("--n-geom", "1:10:inf"), "bad geometric schedule"),
            (("--n-geom", f"1:{10**400}:1e300"), "bad geometric schedule"),
        ],
    )
    def test_bad_schedule_options_exit_1(self, capsys, schedule, message):
        result = _run(capsys, "sweep", "--poly", "x^2+1", *schedule)
        _assert_config_error(*result)
        assert message in result[2]


class TestVerify:
    def test_single_check_pass(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--poly", "x^2+1", "--n", "1000",
            "--checks", "refined_multiplicity",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == "1"
        assert doc["reports"][0]["status"] == "pass"

    def test_unknown_check_exit_1(self, capsys):
        code, _, err = _run(
            capsys, "verify", "--poly", "x^2+1", "--n", "50",
            "--checks", "bogus",
        )
        assert code == 1
        assert "naive_multiplicity" in err  # lists valid names

    @pytest.mark.parametrize("checks", [",", ""])
    def test_no_check_named_exit_1(self, monkeypatch, capsys, checks):
        def no_build(*args, **kwargs):
            raise AssertionError("ledger built")

        monkeypatch.setattr(analysis, "build_ledger", no_build)
        result = _run(
            capsys, "verify", "--poly", "x^2+1", "--n", "50", "--checks", checks
        )
        _assert_config_error(*result)
        assert "names no check" in result[2]

    def test_root_finder_error_exit_1(self, unsplit_blocks, capsys):
        result = _run(capsys, "verify", "--poly", "x^3+2", "--n", "500")
        _assert_config_error(*result)
        assert result[2] == (
            "error: roots_of_split: p=3 did not split"
            " (Leg 1 of x^3+2 at N=500, primes 2..1999)\n"
        )

    def test_all_checks_seven_reports(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--poly", "x^3+2", "--n", "200", "--checks", "all"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 7
        names = [r["check_name"] for r in doc["reports"]]
        assert names == sorted(names)

    @pytest.mark.parametrize(
        "checks, calls",
        [("all", 1), ("zone_inequalities", 1), ("naive_multiplicity,amgm_ratio", 0)],
    )
    def test_ledger_summarized_at_most_once(self, monkeypatch, capsys, checks, calls):
        # squareful_ratios and zone_inequalities share one summarize record
        seen = []
        real = aggregate.summarize

        def counted(ledger):
            seen.append(ledger)
            return real(ledger)

        monkeypatch.setattr(aggregate, "summarize", counted)
        code, _, _ = _run(
            capsys, "verify", "--poly", "x^3+2", "--n", "200", "--checks", checks
        )
        assert code == 0
        assert len(seen) == calls

    def test_seed_recorded(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--poly", "x^2+1", "--n", "100",
            "--checks", "squareful_ratios", "--seed", "42",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 42


class TestOtherCommands:
    def test_local_dump(self, capsys):
        code, out, _ = _run(
            capsys, "local", "--poly", "x^2+1", "--p", "5", "--n", "10"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 5 and doc["roots"] == [2, 3]

    def test_local_composite_p_exit_1(self, capsys):
        result = _run(capsys, "local", "--poly", "x^2+1", "--p", "4", "--n", "10")
        _assert_config_error(*result)
        assert "not a prime" in result[2]

    def test_local_n_0_exit_1(self, capsys):
        result = _run(capsys, "local", "--poly", "x^2+1", "--p", "5", "--n", "0")
        _assert_config_error(*result)

    def test_oracle_check_pass(self, capsys):
        for poly in ("x^2+1", "x^3+2"):
            code, out, _ = _run(
                capsys, "oracle-check", "--poly", poly, "--n", "500"
            )
            assert code == 0
            assert "identical" in out

    def test_oracle_check_cap(self, capsys):
        code, _, err = _run(
            capsys, "oracle-check", "--poly", "x^2+1", "--n", "100000"
        )
        assert code == 1
        assert "capped" in err

    def test_local_content_prime_above_2048(self, capsys):
        # 4099 divides every coefficient, so it divides every f(n) once
        code, out, _ = _run(
            capsys, "local", "--poly", "4099x^2+4099", "--p", "4099", "--n", "10"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["layer_counts"] == [10] and doc["roots"] == []

    def test_sweep_content_prime_above_2048(self, capsys):
        code, out, _ = _run(capsys, "sweep", "--poly", "4099x^2+4099", "--n", "10")
        assert code == 0
        assert out.splitlines()[2].startswith("10,")

    def test_local_large_constant_term(self, capsys):
        # a 41-digit semiprime constant term: rational roots are lifted
        # from roots mod a small prime, not read off its divisors
        code, out, _ = _run(
            capsys, "local", "--poly",
            "x^2+30000000000000000017000000000000000002067",
            "--p", "5", "--n", "10",
        )
        assert code == 0
        assert json.loads(out)["prime"] == 5

    @pytest.mark.parametrize("command", ["verify", "oracle-check"])
    def test_rho_timeout_exit_2(self, monkeypatch, capsys, command):
        # x^5-x+1 at N=30 leaves f(8) = 181^2 above B^2 = 150^2 for rho,
        # which gives up on it with no steps
        monkeypatch.setattr(primes, "RHO_MAX_ITERS", 0)
        code, out, err = _run(capsys, command, "--poly", "x^5-x+1", "--n", "30")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: FactorTimeout: x^5-x+1 at N=30: n=8, cofactor 32761: "
            "rho gave up on 32761"
        ]

    @pytest.mark.parametrize("poly", [*TEST_POLYS, "2039x^2+2039", "24x^2+24x+48"])
    def test_local_matches_ledger(self, ledger_factory, capsys, poly):
        # p = 2, 3, the primes of the content and the least prime above D*N
        N = 300
        led = ledger_factory(parse_poly(poly), N)
        content = math.gcd(*led.f.coeffs)
        ps = {2, 3, *(q for q in led.entries if content % q == 0)}
        ps.update(led.p[led.p > led.B][:1].tolist())
        for p in sorted(ps):
            code, out, _ = _run(
                capsys, "local", "--poly", poly, "--p", str(p), "--n", str(N)
            )
            entry = led.entries.get(p)
            layers, roots = (entry.layer_counts, entry.roots) if entry else ((), ())
            doc = json.loads(out)
            assert code == 0 and tuple(doc["layer_counts"]) == layers, p
            # above D*N, only the n <= N that p divides
            assert tuple(doc["roots"]) == roots, p

    def test_float_format_17_digits(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        _run(capsys, "sweep", "--poly", "x^2+1", "--n", "100", "--out", str(out))
        row = out.read_text().splitlines()[2].split(",")
        val = row[CSV_COLUMNS.index("log_Q")]
        assert float(val) == float(format(float(val), ".17g"))  # round-trips
        assert re.match(r"^\d+\.\d+$", val)


@pytest.mark.parametrize(
    "command, n",
    [
        ("sweep", "0"),
        ("sweep", "-3,5"),
        ("verify", "0"),
        ("oracle-check", "0"),
    ],
)
def test_n_below_1_exit_1(capsys, command, n):
    result = _run(capsys, command, "--poly", "x^2+1", f"--n={n}")
    _assert_config_error(*result)
    assert "--n must be >= 1" in result[2]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--poly", "x^2+1"], "the following arguments are required: --n"),
        (
            ["sweep", "--poly", "x^2+1", "--n", "10", "--format", "xml"],
            "argument --format: invalid choice: 'xml'",
        ),
        (
            ["verify", "--poly", "x^2+1", "--n", "ten"],
            "argument --n: invalid int value: 'ten'",
        ),
    ],
)
def test_usage_error_exit_1(capsys, argv, message):
    # exit 2 is kept for a rho timeout, so a usage error returns 1
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    usage, error = err.splitlines()[0], err.splitlines()[-1]
    assert usage.startswith(f"usage: lcmlab {argv[0]} ")
    assert error.startswith(f"lcmlab {argv[0]}: error: {message}")


def test_help_exit_0(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0 and out.startswith("usage: lcmlab ")


def test_readme_cli_examples_parse():
    """Every lcmlab line of README's CLI block parses with the real parser."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [
        line.strip()
        for line in block.splitlines()
        if line.strip().startswith("lcmlab ")
    ]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "10,20,30"],
        ["verify", "--n", "30"],
        ["oracle-check", "--n", "30"],
        ["local", "--p", "5", "--n", "30"],
    ],
)
def test_profile_once_per_command(monkeypatch, capsys, argv):
    calls = []
    exact = polynomial.profile
    monkeypatch.setattr(
        polynomial, "profile", lambda f: calls.append(f) or exact(f)
    )
    code, _, _ = _run(capsys, *argv, "--poly", "x^2+x+1")
    assert code == 0
    assert calls == [parse_poly("x^2+x+1")]


@pytest.mark.parametrize(
    "poly, reducible",
    [
        ("x^4+1", False),
        ("x^4-10x^2+1", False),
        ("x^4+3x^2+2", True),
        ("x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1", True),
    ],
)
def test_irreducibility_warning(capsys, poly, reducible):
    # no prime below 200 certifies these, and none has a rational root
    code, _, err = _run(capsys, "local", "--poly", poly, "--p", "5", "--n", "10")
    assert code == 0
    expected = "warning: reducible: conjecture ratios not meaningful\n"
    assert err == (expected if reducible else "")


def test_verify_benchmark_polys_do_not_load_sympy():
    # the polynomials perfbench runs are certified irreducible mod a small
    # prime, so profiling them never factors over ZZ
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import contextlib, io, sys, lcmlab.cli\n"
        "for poly in ('x^2+1', 'x^5-x+1', 'x^2+x+1', 'x^3+2'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert lcmlab.cli.main(['verify', '--poly', poly, '--n', '50']) == 0\n"
        "print('sympy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "False" and result.stderr == ""


def test_import_does_not_load_sympy():
    # sympy is only the oracle's fallback factorizer and slow to import
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, lcmlab.cli; print('sympy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "False"
