"""Command-line surface: sweeps to CSV/JSON/NDJSON, verification reports,
per-prime dumps and oracle diffs.

Outputs are byte-reproducible for a fixed config and seed regardless of
worker count (the wall-clock ``seconds`` column is the one exception).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import aggregate, analysis, oracle, polynomial, primes, sieve

SCHEMA_VERSION = "1"

CSV_COLUMNS = (
    "N",
    "log_Q",
    "log_QS",
    "log_QLI",
    "log_QL",
    "log_L",
    "log_rad",
    "ratio_L",
    "ratio_rad",
    "ratio_QS",
    "n_primes",
    "n_squareful",
    "n_repeated",
    "seconds",
)


class ConfigError(ValueError):
    pass


def _fmt_float(x):
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


def _json_float(x):
    return None if math.isnan(x) else x


def record_row(record):
    return ",".join(
        _fmt_float(v) if isinstance(v, float) else str(v)
        for v in (getattr(record, col) for col in CSV_COLUMNS)
    )


def _record_dict(record):
    out = {}
    for col in CSV_COLUMNS:
        v = getattr(record, col)
        out[col] = _json_float(v) if isinstance(v, float) else v
    return out


def _json_doc(meta, records, gaps):
    doc = {
        **meta,
        "records": [_record_dict(r) for r in records],
        "gaps": [{"N": n, "error": e} for n, e in gaps],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --format -> (head(meta, banner), row(record), tail(meta, records, gaps)),
# each returning the text to write.
SWEEP_FORMATS = {
    "csv": (
        lambda meta, banner: f"{banner}\n{','.join(CSV_COLUMNS)}\n",
        lambda r: record_row(r) + "\n",
        lambda meta, records, gaps: "",
    ),
    "ndjson": (
        lambda meta, banner: json.dumps({"meta": meta}, sort_keys=True) + "\n",
        lambda r: json.dumps(_record_dict(r), sort_keys=True) + "\n",
        lambda meta, records, gaps: "",
    ),
    "json": (lambda meta, banner: "", lambda r: "", _json_doc),
}


def _parse_schedule(args):
    if args.n and args.n_geom:
        raise ConfigError("give --n or --n-geom, not both")
    if args.n_geom:
        try:
            start, end, ratio = args.n_geom.split(":")
            start, end, ratio = int(start), int(end), float(ratio)
        except ValueError:
            raise ConfigError(f"bad geometric schedule {args.n_geom!r}")
        if ratio <= 1 or start < 1:
            raise ConfigError("geometric schedule needs start >= 1, ratio > 1")
        schedule = []
        try:  # a nan or inf ratio, or a value past the float range
            x = float(start)
            while round(x) <= end:
                n = int(round(x))
                if not schedule or n > schedule[-1]:
                    schedule.append(n)
                x *= ratio
        except (ValueError, OverflowError):
            raise ConfigError(f"bad geometric schedule {args.n_geom!r}")
        if not schedule:
            raise ConfigError("empty schedule")
        return schedule
    raw = (args.n or "").strip()
    if not raw:
        raise ConfigError("empty schedule")
    try:
        schedule = [int(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad schedule {raw!r}")
    if not schedule:
        raise ConfigError("empty schedule")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("schedule must be strictly increasing")
    _check_n(schedule[0])
    return schedule


def _check_n(n):
    if n < 1:
        raise ConfigError("--n must be >= 1")


def _resolve_workers(args):
    if args.workers == "auto":
        return os.cpu_count() or 1
    try:
        w = int(args.workers)
    except ValueError:
        raise ConfigError(f"bad worker count {args.workers!r}")
    if w < 1:
        raise ConfigError("workers must be >= 1")
    return w


def _load_poly(args):
    """The parsed --poly and its profile; degree < 2 or a zero
    discriminant is a ConfigError, and a reducible or uncertified f draws a
    warning."""
    try:
        f = polynomial.parse_poly(args.poly)
        prof = polynomial.profile(f)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if prof.rational_roots:
        print(
            "warning: reducible: conjecture ratios not meaningful",
            file=sys.stderr,
        )
    elif prof.irreducible_hint == "assumed":
        print(
            "warning: irreducibility not certified; assuming it",
            file=sys.stderr,
        )
    return f, prof


def _open_sink(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def cmd_sweep(args):
    f, _ = _load_poly(args)
    schedule = _parse_schedule(args)
    workers = _resolve_workers(args)
    banner = (
        f"# lcmlab sweep v{SCHEMA_VERSION} seed={args.seed} "
        f'poly="{f}" bound=DN schedule={",".join(map(str, schedule))}'
    )
    meta = {"version": SCHEMA_VERSION, "seed": args.seed, "poly": str(f)}
    head, row, tail = SWEEP_FORMATS[args.format]
    out, close = _open_sink(args.out)
    try:
        out.write(head(meta, banner))

        def sink(record):
            out.write(row(record))
            out.flush()

        records, gaps = aggregate.sweep(
            f, schedule, sink=sink, seed=args.seed, workers=workers
        )
        out.write(tail(meta, records, gaps))
    finally:
        if close:
            out.close()
    for n, err in gaps:
        print(f"warning: N={n} failed: {err}", file=sys.stderr)
    return 2 if gaps else 0


def cmd_verify(args):
    f, _ = _load_poly(args)
    _check_n(args.n)
    workers = _resolve_workers(args)
    names = (
        list(analysis.CHECK_NAMES)
        if args.checks == "all"
        else [s.strip() for s in args.checks.split(",") if s.strip()]
    )
    if not names:
        raise ConfigError(f"--checks {args.checks!r} names no check")
    try:
        reports = analysis.run_checks(
            f, args.n, names, seed=args.seed, workers=workers
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "version": SCHEMA_VERSION,
        "seed": args.seed,
        "config": {"poly": str(f), "N": args.n, "checks": sorted(set(names))},
        "reports": [r.to_dict() for r in reports],
    }
    out, close = _open_sink(args.out)
    try:
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    finally:
        if close:
            out.close()
    return 0 if all(r.status != "fail" for r in reports) else 1


def cmd_local(args):
    f, prof = _load_poly(args)
    if not primes.is_probable_prime(args.p, seed=args.seed):
        raise ConfigError(f"--p {args.p} is not a prime")
    _check_n(args.n)
    data = sieve.prime_data(
        f, args.p, args.n, prof.integer_roots_in_range(args.n), args.seed
    )
    doc = {
        "version": SCHEMA_VERSION,
        "seed": args.seed,
        "poly": str(f),
        "N": args.n,
        "prime": data.p,
        "alpha": data.alpha,
        "max_exp": data.max_exp,
        "hit_count": data.hit_count,
        "layer_counts": list(data.layer_counts),
        "roots": list(data.roots),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_oracle_check(args):
    f, _ = _load_poly(args)
    _check_n(args.n)
    try:
        ora = oracle.naive_run(f, args.n)
    except oracle.OracleCapped as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    led = sieve.build_ledger(f, args.n, seed=args.seed, workers=_resolve_workers(args))
    diffs = []
    for p in sorted(set(ora.ledger.entries) | set(led.entries)):
        a = ora.ledger.entries.get(p)
        b = led.entries.get(p)
        if a is None or b is None:
            diffs.append(f"p={p}: present only in {'sieve' if a is None else 'oracle'}")
            continue
        # alpha, max_exp and hit_count are derived from layer_counts
        if a.layer_counts != b.layer_counts:
            diffs.append(
                f"p={p}: layer_counts oracle={a.layer_counts} "
                f"sieve={b.layer_counts}"
            )
    if diffs:
        for line in diffs:
            print(line, file=sys.stderr)
        return 1
    print(f"identical: {len(led.entries)} primes, N={args.n}, poly={f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lcmlab",
        description="Exact lcm/radical/prime-exponent statistics of "
        "polynomial values, with verification suites for the underlying bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_workers=True):
        p.add_argument("--poly", required=True, help="polynomial text")
        p.add_argument("--seed", type=int, default=0)
        if with_workers:
            p.add_argument(
                "--workers", default="1", help='worker count or "auto"'
            )

    p = sub.add_parser("sweep", help="multi-N sweep to CSV/JSON/NDJSON")
    common(p)
    p.add_argument("--n", default="", help="comma-separated N schedule")
    p.add_argument("--n-geom", default="", help="geometric schedule start:end:ratio")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json", "ndjson"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run verification checks at a single N")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checks", default="all")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("local", help="dump PrimeLocalData for one prime")
    common(p, with_workers=False)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("oracle-check", help="diff sieve ledger vs brute force")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, sieve.LedgerMismatch) as exc:
        context = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
        print(f"error: {exc}{context}", file=sys.stderr)
        return 1
    except primes.FactorTimeout as exc:
        # exit 2 as for a sweep gap; sweep itself turns a timeout into one
        f = polynomial.parse_poly(args.poly)
        print(f"error: {f} at N={args.n}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
