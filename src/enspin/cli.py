"""Command line driver.

Subcommands: closure, delta, classify, verify, roots, report.  JSON is
the default output format everywhere; verify and report additionally
render Markdown and CSV, the small commands a plain text view.  Exit
codes: 0 success, 1 a check failed, 2 usage or validation error.
``python -m enspin.cli`` runs through the same entry as ``python -m
enspin``, ``enspin.__main__.run``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import classify
from .clifford import Blade
from .closure import blade_closure, check_ambient
from .deltas import MAX_DELTA_N, delta_closed, delta_identities, delta_sum
from .report import (
    algebra_table,
    reports_to_csv,
    reports_to_json,
    reports_to_markdown,
    run_verification,
    table_to_csv,
    table_to_json,
    table_to_markdown,
)
from .roots import positive_roots
from .spinrep import spin_generators


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def cmd_closure(args: argparse.Namespace) -> int:
    check_ambient(args.n)
    basis = blade_closure(args.n, spin_generators(args.n).masks)
    if args.format == "json":
        print(json.dumps(basis.to_json(), indent=2))
    else:
        print(f"n {basis.n}")
        print(f"dim {basis.dim}")
        for m in basis.masks:
            print(f"{m:#x} {Blade(m)}")
    return 0


def cmd_delta(args: argparse.Namespace) -> int:
    if args.n > MAX_DELTA_N:
        return _usage_error(f"delta needs --n <= {MAX_DELTA_N}, got {args.n}")
    values = {f"d{k}": delta_closed(k, args.n) for k in range(4)}
    sums = {f"d{k}": delta_sum(k, args.n) for k in range(4)}
    if values != sums:
        print(f"FAIL closed forms {values} disagree with direct sums {sums}", file=sys.stderr)
        return 1
    identities = delta_identities(args.n)
    out = {"n": args.n, "delta": values, "total": sum(values.values()), "identities": identities}
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        print(f"n {args.n}")
        for k in range(4):
            print(f"d{k} {values[f'd{k}']}")
        print(f"total {out['total']}")
        for name, ok in identities.items():
            print(f"{name} {'pass' if ok else 'FAIL'}")
    return 0 if all(identities.values()) else 1


def cmd_classify(args: argparse.Namespace) -> int:
    result = classify(args.n)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.display)
        print(f"dim {result.dim} rank {result.rank} center {result.center_dim}")
        print(f"verdict {'pass' if result.verdict else 'fail'}")
        for f in result.failures:
            print(f"  {f}")
    return 0 if result.verdict else 1


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = args.from_n, args.to_n
    if lo < 3:
        return _usage_error(f"verify needs --from >= 3, got {lo}")
    if hi < lo:
        return _usage_error(f"--to {hi} is below --from {lo}")
    if args.jobs < 1:
        return _usage_error(f"verify needs --jobs >= 1, got {args.jobs}")
    ns = range(lo, hi + 1)
    check_ambient(hi)
    if args.jobs > 1 and len(ns) > 1:
        # imported only here: concurrent.futures.process pulls in
        # multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(ns))) as pool:
            reports = list(pool.map(run_verification, ns))
    else:
        reports = [run_verification(n) for n in ns]
    if args.no_timings:
        reports = [r._replace(timings_ms=dict.fromkeys(r.timings_ms, 0.0)) for r in reports]
    # built per call, so the benchmark tracer's rebinding of these names is seen
    writers = {"json": reports_to_json, "markdown": reports_to_markdown, "csv": reports_to_csv}
    sys.stdout.write(writers[args.format](reports))
    return 0 if all(r.verdict for r in reports) else 1


def cmd_roots(args: argparse.Namespace) -> int:
    rs = positive_roots(args.n)
    if args.format == "json":
        print(json.dumps(rs.to_json(), indent=2))
    else:
        print(f"n {rs.n}")
        print(f"count {rs.count}")
        for r in rs.roots:
            print(" ".join(str(x) for x in r))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.to_n < 2:
        return _usage_error(f"report needs --to >= 2, got {args.to_n}")
    rows = algebra_table(args.to_n)
    writers = {"json": table_to_json, "markdown": table_to_markdown, "csv": table_to_csv}
    sys.stdout.write(writers[args.format](rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enspin",
        description="exact Clifford-algebra construction and verification of "
        "the compact spin subalgebras attached to the E-series diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_n_command(name: str, help: str, func, n_floor: int) -> None:
        p = sub.add_parser(name, help=help)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(func=func, n_floor=n_floor)

    add_n_command("closure", "basis of the Lie closure of the spin generators", cmd_closure, 3)
    add_n_command("delta", "mod-4 binomial sums and their identities", cmd_delta, 1)
    add_n_command("classify", "match the closure against its compact type", cmd_classify, 3)

    p = sub.add_parser("verify", help="run every check over a range of n")
    p.add_argument("--from", dest="from_n", type=int, default=3)
    p.add_argument("--to", dest="to_n", type=int, default=8)
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for the benchmark, which forwards one; every check is deterministic")
    p.add_argument("--no-timings", action="store_true",
                   help="zero out stage timings for byte-stable output")
    p.set_defaults(func=cmd_verify)

    add_n_command("roots", "positive roots of the rank-n diagram", cmd_roots, 3)

    p = sub.add_parser("report", help="algebra tables side by side with computed dimensions")
    p.add_argument("--to", dest="to_n", type=int, default=12)
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        sys.stdout.reconfigure(encoding="utf-8")
    except (AttributeError, ValueError):
        pass
    args = build_parser().parse_args(argv)
    # every --n command states its lower bound in build_parser
    if "n_floor" in args and args.n < args.n_floor:
        return _usage_error(f"{args.command} needs --n >= {args.n_floor}, got {args.n}")
    # the one error boundary: a ValueError from any layer (the ambient
    # ceiling, an infinite type) is a validation error, exit 2
    try:
        return args.func(args)
    except ValueError as e:
        return _usage_error(str(e))


if __name__ == "__main__":
    from .__main__ import run

    run()
