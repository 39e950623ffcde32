#!/usr/bin/env python3
"""lcmlab benchmark: cold-process workloads with per-module layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, default settings

Each operation is a fresh interpreter (perfbench/child.py): lcmlab keeps an
unbounded roots cache in ``modular``, so an operation in a warm process
would measure the cache, not the code. Operations run one after another
(a closed loop with one client) until the next would end after
``--seconds``, and at least MIN_OPS times. Every output is checked against
expected.json; an exception, a nonzero exit or a wrong output counts as a
failed operation, and failed_frac = failed / attempted is printed.

With ``--trace 0`` the last stdout line reports the medians over the
operations of wall_ref (wall time in units of the speed probe, see
reference.py), setup_s (interpreter start to lcmlab imported and arguments
parsed) and peak_rss_mb (wait4 of that child alone). Raw wall_s, cpu_s and
the probe time are printed and kept in the run record. With ``--trace 1``
traced and untraced operations alternate: the per-layer metrics are
medians over the traced ones (counters must repeat exactly between them),
and trace.overhead_s is traced minus untraced wall time. Each run writes a
run record to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import MARKER
from tracer import layer_metrics, unit_of
from workloads import WORKLOADS, check_output, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# The result line's metrics. wall_ref is wall_s over the mean time of the
# speed probe that ran alongside it (reference.py): the host's speed moves
# wall_s by tens of percent, but cancels in wall_ref.
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and kept in the run record only.
RAW = {"wall_s": "s", "cpu_s": "s", "ref_s": "s"}
MIN_OPS = 3
# A run must end within 180 s; no child may outlive this share of it.
RUN_LIMIT_S = 170.0


def child_env():
    env = dict(os.environ)
    # LCMLAB_WORKERS silently overrides --workers.
    env.pop("LCMLAB_WORKERS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload, seed, trace, expected, timeout):
    """One cold operation. Returns its sample: timings, the problems found
    with its output, and its spans when traced."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(trace))]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        raw = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4, not wait: the rusage of this one child, not the maximum
        # over every child so far as RUSAGE_CHILDREN would give.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
    text = raw.decode("utf-8", "replace")
    lines = text.splitlines()
    report = next(
        (json.loads(s[len(MARKER):]) for s in reversed(lines) if s.startswith(MARKER)),
        None,
    )
    sample = {"exit": proc.returncode, "traced": trace, "trace": None}
    if workload == "-":
        sample["problems"] = [] if proc.returncode == 0 else [text[-2000:]]
        return sample
    if report is None or proc.returncode != 0:
        sample["problems"] = [f"child exit {proc.returncode}: {text[-2000:]}"]
        return sample
    sample.update(
        # time.monotonic is CLOCK_MONOTONIC, one clock for every process.
        setup_s=report["ready"] - t_spawn,
        wall_s=report["wall_s"],
        wall_ref=report["wall_s"] / report["ref_s"],
        ref_s=report["ref_s"],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        problems=check_output(workload, report, expected),
        output=report["output"],
        trace=report["trace"],
    )
    return sample


def run_workload(workload, seed, seconds, trace, expected):
    """Operations for ``seconds`` seconds; returns (result, samples)."""
    start = time.monotonic()
    hard_stop = start + RUN_LIMIT_S

    def remaining():
        return max(1.0, hard_stop - time.monotonic())

    # Untimed warm-up: compiles lcmlab to bytecode and fills the file cache.
    warm = run_child("-", seed, False, expected, remaining())
    if warm["problems"]:
        raise SystemExit(f"lcmlab does not import: {warm['problems'][0]}")
    start = time.monotonic()
    deadline = start + seconds
    samples = []
    durations = []
    while True:
        t0 = time.monotonic()
        traced = trace and len(samples) % 2 == 0
        samples.append(run_child(workload, seed, traced, expected, remaining()))
        durations.append(time.monotonic() - t0)
        if samples[-1]["exit"] < 0 or time.monotonic() >= hard_stop:
            break  # killed: no time for more
        if len(samples) >= MIN_OPS and time.monotonic() + statistics.median(durations) > deadline:
            break

    for s in samples:
        for problem in s["problems"]:
            print(f"{workload}: failed operation: {problem}", file=sys.stderr)
    timed = [s for s in samples if "wall_s" in s]
    failed = sum(1 for s in samples if s["problems"])
    correct = failed == 0
    if trace:
        traced = [s for s in timed if s["traced"]]
        plain = [s for s in timed if not s["traced"]]
        if not traced or not plain:
            raise SystemExit("no successful traced and untraced operation to compare")
        per_op = [layer_metrics(s["trace"]) for s in traced]
        metrics = {}
        for name in per_op[0]:
            unit = unit_of(name)
            vals = [m[name] for m in per_op]
            if unit == "s":
                value = statistics.median(vals)
            else:
                value = vals[0]
                if len(set(vals)) != 1:
                    correct = False
                    print(f"{name} differs between traced runs: {vals}", file=sys.stderr)
            metrics[name] = {"value": value, "unit": unit}
        if len(traced) < 2:
            correct = False
            print("fewer than two traced operations: counters unchecked", file=sys.stderr)
        # Compared in probe units, so that host drift between the traced and
        # untraced operations cancels, then converted at the run's median speed.
        overhead_ref = statistics.median(s["wall_ref"] for s in traced) - statistics.median(
            s["wall_ref"] for s in plain
        )
        speed = statistics.median(s["ref_s"] for s in timed)
        metrics["trace.overhead_s"] = {"value": overhead_ref * speed, "unit": "s"}
    else:
        if not timed:
            raise SystemExit("no operation produced a timing")
        metrics = {
            name: {"value": statistics.median(s[name] for s in timed), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    result = {"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}
    return result, samples


def run_record(workload, seed, seconds, trace):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    rev = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            rev = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        with open("/proc/loadavg") as fh:
            load1 = float(fh.read().split()[0])
    except OSError:
        load1 = None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min": load1,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": WORKLOADS,
    }


def print_summary(workload, result, samples):
    n, failed = result["attempted"], result["failed"]
    print(f"{workload}: {n} cold operations, failed_frac {failed / n:.4g} ({failed}/{n})")
    shown = dict(result["metrics"])
    if "wall_ref" in shown:
        for name, unit in RAW.items():
            shown[name] = {"value": statistics.median(s[name] for s in samples if name in s), "unit": unit}
    for name, m in shown.items():
        line = f"  {name:34s} {m['value']:14.6g} {m['unit']}"
        vals = [s[name] for s in samples if name in s]
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f"   (n={len(vals)}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lcmlab" / "__init__.py").is_file():
        print(f"error: no lcmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = load_expected()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_record(name, args.seed, args.seconds, bool(args.trace))
        result, samples = run_workload(name, args.seed, args.seconds, bool(args.trace), expected)
        print_summary(name, result, samples)
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        first_trace = next((s["trace"] for s in samples if s["trace"]), None)
        for s in samples:
            s.pop("trace")
            s.pop("output", None)
        with open(path, "w") as fh:
            json.dump(
                {"record": record, "result": result, "samples": samples, "spans": first_trace},
                fh,
            )
        print(f"  run record: {path.relative_to(ROOT)}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            combined["metrics"][key] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
