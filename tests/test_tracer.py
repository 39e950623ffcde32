"""The benchmark's tracer names lcmlab functions by string; a rename or
deletion in the package would only show when a traced benchmark run fails
to install. Check every name here instead."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"lcmlab.{mod}.{name}"
        for mod, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"lcmlab.{mod}"), name, None))
    ]
    assert tracer.TRACED and not missing, missing


def test_tracer_times_the_gfpoly_root_finder():
    # the gfpoly metrics read the batch calls of the deg >= 3 root finder;
    # run in a subprocess, since installing the tracer rebinds lcmlab
    src = TRACER.parent.parent / "src"
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(TRACER.parent)!r})\n"
        "from tracer import Tracer, layer_metrics\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from lcmlab import build_ledger, parse_poly\n"
        "build_ledger(parse_poly('x^3+2'), 2000)\n"
        "print(json.dumps(layer_metrics(tracer.dump())))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)},
    )
    metrics = json.loads(result.stdout)
    for name in ("frobenius_root_poly", "roots_of_split"):
        assert metrics[f"gfpoly.{name}_calls"] > 0, name
        assert metrics[f"gfpoly.{name}_s"] > 0, name
