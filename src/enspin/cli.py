"""Command line driver.

Subcommands: closure, delta, classify, verify, roots, report.  JSON is
the default output format everywhere; verify and report additionally
render Markdown and CSV, the small commands a plain text view.  Exit
codes: 0 success, 1 a check failed, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import classify
from .clifford import Blade
from .closure import blade_closure, check_ambient
from .deltas import delta_closed, delta_identities, delta_sum
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
    if args.n < 3:
        return _usage_error(f"closure needs --n >= 3, got {args.n}")
    try:
        basis = blade_closure(args.n, spin_generators(args.n).masks, allow_large=args.allow_large)
    except ValueError as e:
        return _usage_error(str(e))
    if args.format == "json":
        print(json.dumps(basis.to_json(), indent=2))
    else:
        print(f"n {basis.n}")
        print(f"dim {basis.dim}")
        for m in basis.masks:
            print(f"{m:#x} {Blade(m)}")
    return 0


def cmd_delta(args: argparse.Namespace) -> int:
    if args.n < 1:
        return _usage_error(f"delta needs --n >= 1, got {args.n}")
    values = {f"d{k}": int(delta_closed(k, args.n)) for k in range(4)}
    sums = {f"d{k}": delta_sum(k, args.n) for k in range(4)}
    if values != sums:
        # should be unreachable; the closed forms are checked in the tests
        return _usage_error("closed forms disagree with direct sums")
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
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    if args.n < 3:
        return _usage_error(f"classify needs --n >= 3, got {args.n}")
    try:
        result = classify(args.n, seed=args.seed, allow_large=args.allow_large)
    except ValueError as e:
        return _usage_error(str(e))
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.display)
        print(f"dim {result.dim} rank {result.rank} center {result.center_dim}")
        print(f"verdict {'pass' if result.verdict else 'fail'}")
        for f in result.failures:
            print(f"  {f}")
    return 0 if result.verdict else 1


def _verify_worker(task: tuple[int, bool, bool]) -> "object":
    n, allow_large, with_timings = task
    return run_verification(n, allow_large=allow_large, with_timings=with_timings)


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = args.from_n, args.to_n
    if lo < 3:
        return _usage_error(f"verify needs --from >= 3, got {lo}")
    if hi < lo:
        return _usage_error(f"--to {hi} is below --from {lo}")
    if args.jobs < 1:
        return _usage_error(f"verify needs --jobs >= 1, got {args.jobs}")
    tasks = [(n, args.allow_large, not args.no_timings) for n in range(lo, hi + 1)]
    try:
        check_ambient(hi, args.allow_large)
        if args.jobs > 1 and len(tasks) > 1:
            # imported only here: concurrent.futures.process pulls in
            # multiprocessing, which a serial run never uses
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
                reports = list(pool.map(_verify_worker, tasks))
        else:
            reports = [_verify_worker(t) for t in tasks]
    except ValueError as e:
        return _usage_error(str(e))
    reports.sort(key=lambda r: r.n)
    if args.format == "json":
        sys.stdout.write(reports_to_json(reports))
    elif args.format == "markdown":
        sys.stdout.write(reports_to_markdown(reports))
    else:
        sys.stdout.write(reports_to_csv(reports))
    return 0 if all(r.verdict for r in reports) else 1


def cmd_roots(args: argparse.Namespace) -> int:
    if args.n < 3:
        return _usage_error(f"roots needs --n >= 3, got {args.n}")
    try:
        rs = positive_roots(args.n)
    except ValueError as e:
        return _usage_error(str(e))
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
    try:
        rows = algebra_table(args.to_n, allow_large=args.allow_large)
    except ValueError as e:
        return _usage_error(str(e))
    if args.format == "json":
        sys.stdout.write(table_to_json(rows))
    elif args.format == "markdown":
        sys.stdout.write(table_to_markdown(rows))
    else:
        sys.stdout.write(table_to_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enspin",
        description="exact Clifford-algebra construction and verification of "
        "the compact spin subalgebras attached to the E-series diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_small_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("closure", help="basis of the Lie closure of the spin generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    add_small_format(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("delta", help="mod-4 binomial sums and their identities")
    p.add_argument("--n", type=int, required=True)
    add_small_format(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("classify", help="match the closure against its compact type")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; every check is deterministic")
    p.add_argument("--allow-large", action="store_true")
    add_small_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run every check over a range of n")
    p.add_argument("--from", dest="from_n", type=int, default=3)
    p.add_argument("--to", dest="to_n", type=int, default=8)
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; every check is deterministic")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--no-timings", action="store_true",
                   help="zero out stage timings for byte-stable output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roots", help="positive roots of the rank-n diagram")
    p.add_argument("--n", type=int, required=True)
    add_small_format(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("report", help="algebra tables side by side with computed dimensions")
    p.add_argument("--to", dest="to_n", type=int, default=12)
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        sys.stdout.reconfigure(encoding="utf-8")
    except (AttributeError, ValueError):
        pass
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
