"""Workload definitions and the correctness gate shared by the benchmark
runner (run.py) and the cold child process (child.py).

Every workload runs with one worker: one process and no extra threads.
The expected outputs in expected.json were recorded from an unmodified
lcmlab and hold for every ``--seed``; selftest.py ties them to the
brute-force oracle at N <= 10^4.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "ledger_quad": {
        "kind": "ledger",
        "poly": "x^2+1",
        "N": 50000,
        "why": "build_ledger + summarize for x^2+1 at N=5e4: nearly all time is "
        "roots mod p (gfpoly); cofactors stay below B^2, so rho never runs",
    },
    "ledger_quintic": {
        "kind": "ledger",
        "poly": "x^5-x+1",
        "N": 6000,
        "why": "build_ledger + summarize for x^5-x+1 at N=6000: values near N^5 "
        "send almost every n to primality and rho; control for root-finder changes",
    },
    "sweep_quad": {
        "kind": "sweep",
        "argv": [
            "sweep", "--poly", "x^2+x+1", "--n-geom", "1000:64000:2",
            "--format", "csv", "--out", "-", "--workers", "1",
        ],
        "why": "lcmlab sweep of x^2+x+1 over 7 N in one process: repeated "
        "roots_mod_p queries across growing N, served partly by the roots cache",
    },
    "verify_cubic": {
        "kind": "verify",
        "argv": [
            "verify", "--poly", "x^3+2", "--n", "5000", "--checks", "all",
            "--out", "-", "--workers", "1",
        ],
        "why": "lcmlab verify --checks all for x^3+2 at N=5000: the only workload "
        "where analysis (divided-difference harvest) dominates the ledger build",
    },
}

VERIFY_OK = ("pass", "not-applicable")


def load_expected():
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def normalize_sweep_csv(text):
    """The sweep CSV without its ``seconds`` column and with the seed in
    the header masked; what remains is byte-reproducible."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("sweep CSV has no header comment")
    out = [re.sub(r"\bseed=-?\d+\b", "seed=*", lines[0])]
    columns = lines[1].split(",") if len(lines) > 1 else []
    if not columns or columns[-1] != "seconds":
        raise ValueError("sweep CSV does not end with a seconds column")
    for line in lines[1:]:
        out.append(line.rsplit(",", 1)[0])
    return "\n".join(out) + "\n"


def check_output(workload, result, expected):
    """Problems with one child's output; an empty list means correct.

    ``result`` is the child's report: its exit code and the raw output of
    the workload. ``expected`` maps workload name to the recorded values.
    """
    if result["exit"] != 0:
        return [f"exit code {result['exit']}"]
    want = expected[workload]
    out = result["output"]
    kind = WORKLOADS[workload]["kind"]
    if kind == "ledger":
        problems = []
        if out["digest"] != want["digest"]:
            problems.append(f"ledger digest {out['digest']} != {want['digest']}")
        if out["summary"] != want["summary"]:
            problems.append("summarize record differs")
        return problems
    if kind == "sweep":
        try:
            got = normalize_sweep_csv(out)
        except ValueError as exc:
            return [str(exc)]
        return [] if got == want["csv"] else ["sweep CSV differs"]
    try:
        reports = json.loads(out)["reports"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable verify report: {exc}"]
    names = sorted(r["check_name"] for r in reports)
    problems = []
    if names != sorted(want["checks"]):
        problems.append(f"checks run {names} != {sorted(want['checks'])}")
    for r in reports:
        if r["status"] not in VERIFY_OK:
            problems.append(f"check {r['check_name']}: {r['status']}")
    return problems
