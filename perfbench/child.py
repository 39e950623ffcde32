"""One cold benchmark operation, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE

Imports lcmlab from the checkout's ``src``, runs WORKLOAD once with the
given lcmlab seed under a speed probe (reference.py), and prints one line
``MARKER + json`` holding the monotonic time at which set-up ended, the
workload's wall time without the probes, the mean probe time, its exit
code, its output and, when TRACE is 1, the recorded spans. WORKLOAD ``-``
only imports lcmlab (a warm-up). The parent measures CPU time and peak RSS
of this whole process with wait4.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from reference import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS

MARKER = "@@perfbench "
SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, str(SRC))
    import lcmlab
    import lcmlab.cli

    if Path(lcmlab.__file__).resolve().parent != SRC / "lcmlab":
        raise SystemExit(f"imported lcmlab from {lcmlab.__file__}, not {SRC}")
    if workload == "-":
        return
    spec = WORKLOADS[workload]
    if spec["kind"] == "ledger":
        f = lcmlab.polynomial.parse_poly(spec["poly"])
    else:
        argv = spec["argv"] + ["--seed", str(seed)]
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    buf = io.StringIO()
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        if spec["kind"] == "ledger":
            ledger = lcmlab.sieve.build_ledger(f, spec["N"], seed=seed, workers=1)
            record = lcmlab.aggregate.summarize(ledger)
            code = 0
        else:
            with contextlib.redirect_stdout(buf):
                code = lcmlab.cli.main(argv)
        wall = time.perf_counter() - t0
    output = _ledger_output(ledger, record) if spec["kind"] == "ledger" else buf.getvalue()

    report = {
        "ready": ready,
        "wall_s": wall - probe.total_s,
        "ref_s": probe.mean_s,
        "exit": code,
        "output": output,
        "trace": tracer.dump() if tracer else None,
    }
    sys.stdout.write(MARKER + json.dumps(report) + "\n")


def _ledger_output(ledger, record):
    """SHA-256 of the sorted (p, alpha, max_exp, hit_count, layer_counts)
    tuples, and the summarize record without its timing."""
    h = hashlib.sha256()
    for p, d in sorted(ledger.entries.items()):
        layers = ",".join(map(str, d.layer_counts))
        h.update(f"{p} {d.alpha} {d.max_exp} {d.hit_count} {layers}\n".encode())
    summary = dataclasses.asdict(record)
    del summary["seconds"]
    return {"digest": h.hexdigest(), "summary": summary}


if __name__ == "__main__":
    main()
