#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

1. Two traced operations of each workload give correct outputs and exactly
   the same counters.
2. The tracer refuses to run while an lcmlab namespace keeps a traced
   function where it cannot be rebound, and rebinds module-level dicts.
3. A tampered expected value makes an output, and a whole run, fail.
4. ``lcmlab oracle-check`` agrees with the sieve on every workload
   polynomial at N <= 10^4, so the recorded expected values rest on the
   brute-force oracle as well as on the sieve.

Takes a few minutes; exits 1 if any test fails.
"""

from __future__ import annotations

import argparse
import copy
import subprocess
import sys

import run
from tracer import StaleReference, Tracer, layer_metrics, unit_of
from workloads import WORKLOADS, check_output, load_expected

# One N <= 10^4 per workload polynomial, small enough for the brute-force
# oracle (which factors every f(n)) to finish in seconds.
ORACLE_CASES = (("x^2+1", 10000), ("x^5-x+1", 1000), ("x^2+x+1", 10000), ("x^3+2", 5000))


def counters_repeat(seed, expected):
    samples = {}
    for name in WORKLOADS:
        pair = [run.run_child(name, seed, True, expected, 170) for _ in range(2)]
        for s in pair:
            assert not s["problems"], f"{name}: {s['problems']}"
        a, b = (layer_metrics(s["trace"]) for s in pair)
        differ = [m for m in a if unit_of(m) != "s" and a[m] != b[m]]
        assert not differ, f"{name}: counters differ: {[(m, a[m], b[m]) for m in differ]}"
        samples[name] = pair[0]
    return samples


def tracer_rebinds_or_refuses():
    sys.path.insert(0, str(run.ROOT / "src"))
    import lcmlab.analysis
    import lcmlab.cli

    original = lcmlab.analysis.check_naive_multiplicity
    lcmlab.analysis._registry = {"naive": original}
    lcmlab.cli._aliases = (lcmlab.modular.roots_mod_p,)
    try:
        Tracer().install()
    except StaleReference as exc:
        assert "lcmlab.cli._aliases" in str(exc), exc
        assert "_registry" not in str(exc), exc
    else:
        raise AssertionError("a tuple holding roots_mod_p went unnoticed")
    wrapped = lcmlab.analysis._registry["naive"]
    assert wrapped is not original and wrapped.__wrapped__ is original
    assert wrapped is lcmlab.analysis.check_naive_multiplicity


def tampering_fails(samples, seed, expected):
    for name, sample in samples.items():
        result = {"exit": 0, "output": sample["output"]}
        assert check_output(name, result, expected) == [], name
        bad = copy.deepcopy(expected)
        want = bad[name]
        if "digest" in want:
            want["digest"] = "0" + want["digest"][1:]
        elif "csv" in want:
            want["csv"] = want["csv"].replace("1000,", "1001,", 1)
        else:
            want["checks"] = want["checks"][1:]
        assert check_output(name, result, bad), f"{name}: tampered value accepted"
    bad = copy.deepcopy(expected)
    bad["ledger_quad"]["digest"] = "0" * 64
    result, _ = run.run_workload("ledger_quad", seed, 0, False, bad)
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] >= 1, result


def oracle_agrees(seed):
    for poly, n in ORACLE_CASES:
        cmd = [
            sys.executable, "-m", "lcmlab.cli", "oracle-check", "--poly", poly,
            "--n", str(n), "--seed", str(seed), "--workers", "1",
        ]
        env = run.child_env()
        env["PYTHONPATH"] = str(run.ROOT / "src")
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=run.ROOT, timeout=600)
        assert out.returncode == 0, f"{poly} N={n}: {out.stdout}{out.stderr}"


def main():
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    expected = load_expected()
    failures = 0

    def report(name, fn, *fn_args):
        nonlocal failures
        try:
            value = fn(*fn_args)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
            return None
        print(f"ok   {name}")
        return value

    samples = report("counters repeat between traced runs", counters_repeat, args.seed, expected)
    if samples:
        report("tampered expected value fails", tampering_fails, samples, args.seed, expected)
    report("oracle agrees with the sieve", oracle_agrees, args.seed)
    # Last: it patches lcmlab inside this process.
    report("tracer rebinds or refuses stale references", tracer_rebinds_or_refuses)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
