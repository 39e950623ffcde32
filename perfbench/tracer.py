"""Span tracer for lcmlab's public functions, installed from outside the
package.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds every
lcmlab namespace that holds it (``roots_mod_p`` alone is bound in modular,
sieve, aggregate, analysis and the package itself). Each call becomes a
span ``[name, start, end, parent, value]`` kept in memory; ``value``
carries what a counter needs beyond a call count. ``layer_metrics`` turns
the spans of one process into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

# Public functions whose calls are recorded, by lcmlab module.
TRACED = {
    "polynomial": ("profile",),
    "primes": ("sieve_primes", "factorize", "is_probable_prime"),
    "modular": ("roots_mod_p", "lift_roots"),
    "gfpoly": ("frobenius_root_poly", "roots_of_split"),
    "sieve": ("build_ledger", "factor_cofactor"),
    "aggregate": ("summarize", "sweep"),
    "analysis": (
        "check_naive_multiplicity",
        "check_refined_multiplicity",
        "check_hensel_formula",
        "check_divided_difference",
        "check_amgm_suite",
        "check_squareful_ratios",
        "check_zone_inequalities",
        "harvest_divisibility_tuples",
    ),
    "cli": ("main",),
}

# analysis.CHECK_NAMES entry -> the function that runs that check.
CHECK_FUNCTIONS = {
    "naive_multiplicity": "check_naive_multiplicity",
    "refined_multiplicity": "check_refined_multiplicity",
    "hensel_formula": "check_hensel_formula",
    "divided_difference": "check_divided_difference",
    "amgm_ratio": "check_amgm_suite",
    "squareful_ratios": "check_squareful_ratios",
    "zone_inequalities": "check_zone_inequalities",
}


def _ledger_split(ledger):
    small = sum(1 for p in ledger.entries if p <= ledger.B)
    return [small, len(ledger.entries) - small]


# Span value taken from the return value, for counters beyond call counts.
_VALUES = {
    "modular.roots_mod_p": lambda rs: rs.p,
    "primes.sieve_primes": len,
    "sieve.factor_cofactor": lambda fac: math.prod(q**e for q, e in fac).bit_length(),
    "sieve.build_ledger": _ledger_split,
    "aggregate.sweep": lambda res: len(res[0]),
    "analysis.harvest_divisibility_tuples": len,
}


def _is_original(originals, v):
    return id(v) in originals and originals[id(v)] is v


class StaleReference(RuntimeError):
    """An lcmlab namespace still holds an unwrapped traced function."""


def _lcmlab_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "lcmlab" or name.startswith("lcmlab."))
    ]


def _module_level_refs(module):
    """(place, value) for every module global and every item of a
    module-level dict, list, tuple or set."""
    for attr, v in vars(module).items():
        yield f"{module.__name__}.{attr}", v
        if isinstance(v, dict):
            for k, x in v.items():
                yield f"{module.__name__}.{attr}[{k!r}]", x
        elif isinstance(v, (list, tuple, set, frozenset)):
            for x in v:
                yield f"{module.__name__}.{attr}[...]", x


def _stale_references(originals):
    """Places in lcmlab that still reach a function in ``originals``
    (a dict id -> original function) without its wrapper."""
    found = []
    for module in _lcmlab_modules():
        for place, v in _module_level_refs(module):
            if _is_original(originals, v):
                found.append(place)
    return found


class Tracer:
    """The spans of one process, recorded by the wrappers it installs."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = [-1]

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        value_of = _VALUES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value_of is not None:
                span[4] = value_of(result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function and rebind it wherever lcmlab holds
        it. Raises StaleReference if some reference cannot be rebound."""
        originals = {}
        wrappers = {}
        for mod_name, fn_names in TRACED.items():
            module = importlib.import_module(f"lcmlab.{mod_name}")
            for fn_name in fn_names:
                fn = getattr(module, fn_name)
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        for module in _lcmlab_modules():
            for attr, v in list(vars(module).items()):
                if _is_original(originals, v):
                    setattr(module, attr, wrappers[id(v)])
                elif isinstance(v, dict):
                    for k, x in list(v.items()):
                        if _is_original(originals, x):
                            v[k] = wrappers[id(x)]
        stale = _stale_references(originals)
        if stale:
            raise StaleReference(
                "unwrapped traced functions remain at: " + ", ".join(stale)
            )

    def dump(self):
        return {"names": self.names, "spans": self.spans}


def layer_metrics(dump):
    """Per-layer metrics of one traced process, from its spans.

    ``<f>_s`` is the total time inside f; ``<f>_self_s`` subtracts the time
    of wrapped calls made directly from f. Times include the speed probe
    (reference.py), about 5% of every interval.
    """
    names = dump["names"]
    spans = dump["spans"]
    inner = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            inner[parent] += t1 - t0
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    values = defaultdict(list)
    for i, (n, t0, t1, _, v) in enumerate(spans):
        name = names[n]
        total[name] += t1 - t0
        own[name] += t1 - t0 - inner[i]
        calls[name] += 1
        if v is not None:
            values[name].append(v)
    splits = values["sieve.build_ledger"]
    m = {
        "polynomial.profile_s": total["polynomial.profile"],
        "primes.sieve_primes_s": total["primes.sieve_primes"],
        "primes.sieve_primes_count": sum(values["primes.sieve_primes"]),
        "modular.roots_mod_p_s": total["modular.roots_mod_p"],
        "modular.roots_mod_p_self_s": own["modular.roots_mod_p"],
        "modular.roots_mod_p_calls": calls["modular.roots_mod_p"],
        "modular.roots_distinct_p": len(set(values["modular.roots_mod_p"])),
        "modular.lift_roots_s": total["modular.lift_roots"],
        "modular.lift_roots_calls": calls["modular.lift_roots"],
        "gfpoly.frobenius_root_poly_s": total["gfpoly.frobenius_root_poly"],
        "gfpoly.frobenius_root_poly_calls": calls["gfpoly.frobenius_root_poly"],
        "gfpoly.roots_of_split_s": total["gfpoly.roots_of_split"],
        "gfpoly.roots_of_split_calls": calls["gfpoly.roots_of_split"],
        "primes.factorize_s": total["primes.factorize"],
        "primes.factorize_self_s": own["primes.factorize"],
        "primes.factorize_calls": calls["primes.factorize"],
        "primes.is_probable_prime_s": total["primes.is_probable_prime"],
        "primes.is_probable_prime_calls": calls["primes.is_probable_prime"],
        "sieve.build_ledger_s": total["sieve.build_ledger"],
        "sieve.build_ledger_calls": calls["sieve.build_ledger"],
        "sieve.self_s": own["sieve.build_ledger"],
        "sieve.factor_cofactor_calls": calls["sieve.factor_cofactor"],
        "sieve.max_cofactor_bits": max(values["sieve.factor_cofactor"], default=0),
        "sieve.small_primes_hit": sum(s for s, _ in splits),
        "sieve.large_primes": sum(lg for _, lg in splits),
        "aggregate.summarize_s": total["aggregate.summarize"],
        "aggregate.sweep_points": sum(values["aggregate.sweep"]),
    }
    for check, fn_name in CHECK_FUNCTIONS.items():
        m[f"analysis.{check}_s"] = total[f"analysis.{fn_name}"]
    m["analysis.harvested_tuples"] = sum(values["analysis.harvest_divisibility_tuples"])
    m["cli.self_s"] = own["cli.main"]
    return m


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bits"):
        return "bits"
    return "count"
