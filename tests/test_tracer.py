"""The benchmark's tracer names lcmlab functions by string; a rename or
deletion in the package would only show when a traced benchmark run fails
to install. Check every name here instead."""

import importlib
import importlib.util
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
