"""Command line driver.

Subcommands: closure, delta, classify, verify, roots, report.  JSON is
the default output format everywhere; verify and report additionally
render Markdown and CSV, the small commands a plain text view.  Exit
codes: 0 success, 1 a check failed, 2 usage or validation error.
Every command's flags are read from one table, ``_COMMANDS``, which
also writes ``--help``; argparse is not imported, since with the gettext
and locale modules it loads it was the largest start-up cost of enspin's
own choosing.

Importing this module imports no enspin layer.  Each handler imports the
layers it runs in its own body, so no command compiles a layer it never
calls: ``report`` loads table, closure, bott, spinrep and clifford, but
not the verify pipeline (report), analysis, roots or deltas; ``verify``
loads roots only when its range reaches n <= 8, and table only for
Markdown or CSV; ``closure`` and ``classify`` load no deltas; ``delta``
loads deltas alone; and ``--help`` and the parser's usage errors load no
layer at all.  The benchmark tracer rebinds four names here:
run_verification, reports_to_json, algebra_table and table_to_json.
_FORWARDED serves them by a PEP 562 ``__getattr__``, and handlers read
them as ``_layers.<name>``, never as bare globals: the hook serves an
attribute read but not a global lookup, and a rebound name is then the
one that runs.  ``closure`` reads the basis through its public methods
(ClosureBasis.tile_masks) and no underscore name of enspin.closure, so
how the bitset is stored stays that module's alone.
``python -m enspin.cli`` runs through the same entry as ``python -m
enspin``, ``enspin.__main__.run``.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import _forwarding_getattr

# name -> defining module, for exactly the names that the benchmark tracer
# binds here; the first read imports the layer and caches the name
_FORWARDED = {**dict.fromkeys(("run_verification", "reports_to_json"), "report"),
              **dict.fromkeys(("algebra_table", "table_to_json"), "table")}
__getattr__ = _forwarding_getattr(globals(), _FORWARDED)
_layers = sys.modules[__name__]


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def cmd_closure(args: SimpleNamespace) -> int:
    """Print n, dim and the closure's masks, ascending, one 2^16-bit tile per write.

    The basis lists its masks tile by tile (ClosureBasis.tile_masks),
    so no tuple of d ints is built.  JSON is the bytes of
    json.dumps(indent=2) on {"n", "dim", "masks"}, the masks as hex
    strings, and a newline.  A text line names its blade by two tables
    of str(Blade(x)), "" at 0: one over the low h = n // 2 bits and one
    over the high bits.  The indices ascend, so the name of mask m is
    low[m & (2^h - 1)] + high[m >> h], and 2^h + 2^(n - h) blades are
    built, not one per mask.
    """
    from . import clifford, closure, spinrep

    closure.check_ambient(args.n)
    basis = closure.blade_closure(args.n, spinrep.spin_generators(args.n).masks)
    chunks, write = basis.tile_masks(), sys.stdout.write
    if args.format == "json":
        write(f'{{\n  "n": {basis.n},\n  "dim": {basis.dim},\n  "masks": [\n    "')
        sep = '",\n    "'
        for k, chunk in enumerate(chunks):
            write((sep if k else "") + sep.join(map(hex, chunk)))
        write('"\n  ]\n}\n')
    else:
        h = args.n // 2
        bottom = (1 << h) - 1
        low = [str(clifford.Blade(x)) if x else "" for x in range(1 << h)]
        high = [str(clifford.Blade(x << h)) if x else "" for x in range(1 << (args.n - h))]
        write(f"n {basis.n}\ndim {basis.dim}\n")
        for chunk in chunks:
            write("".join(f"{m:#x} {low[m & bottom]}{high[m >> h]}\n" for m in chunk))
    return 0


def cmd_delta(args: SimpleNamespace) -> int:
    from . import deltas

    if args.n > deltas.MAX_DELTA_N:
        return _usage_error(f"delta needs --n <= {deltas.MAX_DELTA_N}, got {args.n}")
    values = {f"d{k}": deltas.delta_closed(k, args.n) for k in range(4)}
    sums = {f"d{k}": deltas.delta_sum(k, args.n) for k in range(4)}
    if values != sums:
        print(f"FAIL closed forms {values} disagree with direct sums {sums}", file=sys.stderr)
        return 1
    identities = deltas.delta_identities(args.n)
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


def cmd_classify(args: SimpleNamespace) -> int:
    from . import analysis

    result = analysis.classify(args.n)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.display)
        print(f"dim {result.dim} rank {result.rank} center {result.center_dim}")
        print(f"verdict {'pass' if result.verdict else 'fail'}")
        for f in result.failures:
            print(f"  {f}")
    return 0 if result.verdict else 1


def cmd_verify(args: SimpleNamespace) -> int:
    from . import closure

    lo, hi = args.from_n, args.to_n
    if hi < lo:
        return _usage_error(f"--to {hi} is below --from {lo}")
    ns = range(lo, hi + 1)
    closure.check_ambient(hi)
    from . import report

    if args.jobs > 1 and len(ns) > 1:
        # imported only here: concurrent.futures.process pulls in
        # multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(ns))) as pool:
            reports = list(pool.map(_layers.run_verification, ns))
    else:
        reports = [_layers.run_verification(n) for n in ns]
    if args.no_timings:
        reports = [r._replace(timings_ms=dict.fromkeys(r.timings_ms, 0.0)) for r in reports]
    # the JSON writers are read through _layers, where the benchmark tracer
    # rebinds them; the Markdown and CSV writers come from their layer
    writers = _layers if args.format == "json" else report
    sys.stdout.write(getattr(writers, f"reports_to_{args.format}")(reports))
    return 0 if all(r.verdict for r in reports) else 1


def cmd_roots(args: SimpleNamespace) -> int:
    from . import roots

    rs = roots.positive_roots(args.n)
    if args.format == "json":
        print(json.dumps(rs.to_json(), indent=2))
    else:
        print(f"n {rs.n}\ncount {rs.count}")
        for r in rs.roots:
            print(" ".join(str(x) for x in r))
    return 0


def cmd_report(args: SimpleNamespace) -> int:
    from . import table

    writers = _layers if args.format == "json" else table
    sys.stdout.write(getattr(writers, f"table_to_{args.format}")(_layers.algebra_table(args.to_n)))
    return 0


class _Flag(NamedTuple):
    """One flag of a command: a flag without a default is required."""

    dest: str
    kind: type | tuple[str, ...]  # int, bool for a flag that takes no value, or its choices
    default: object = None
    help: str = ""
    floor: int | None = None  # the least value an int flag accepts


class _Command(NamedTuple):
    help: str
    flags: dict[str, _Flag]


def _n_flags(floor: int) -> dict[str, _Flag]:
    """The flags of a command on one n: --n, at least floor, and --format."""
    return {"--n": _Flag("n", int, floor=floor),
            "--format": _Flag("format", ("json", "text"), "json")}


_TABLES = ("json", "markdown", "csv")

# Each command runs cmd_<name>, looked up when it runs, so that a rebinding
# of that name is seen.
_COMMANDS = {
    "closure": _Command("basis of the Lie closure of the spin generators", _n_flags(3)),
    "delta": _Command("mod-4 binomial sums and their identities", _n_flags(1)),
    "classify": _Command("match the closure against its compact type", _n_flags(3)),
    "verify": _Command("run every check over a range of n", {
        "--from": _Flag("from_n", int, 3, floor=3),
        "--to": _Flag("to_n", int, 8),
        "--format": _Flag("format", _TABLES, "json"),
        "--jobs": _Flag("jobs", int, 1, floor=1),
        "--seed": _Flag("seed", int, 0,
                        "accepted for the benchmark, which forwards one; every check is deterministic"),
        "--no-timings": _Flag("no_timings", bool, False,
                              "zero out stage timings for byte-stable output"),
    }),
    "roots": _Command("positive roots of the rank-n diagram", _n_flags(3)),
    "report": _Command("algebra tables side by side with computed dimensions", {
        "--to": _Flag("to_n", int, 12, floor=2),
        "--format": _Flag("format", _TABLES, "json"),
    }),
}


def _usage(name: str | None) -> str:
    """The --help text of one command, or of enspin for None, read from _COMMANDS."""
    if name is None:
        width = max(map(len, _COMMANDS))
        return "\n".join([
            "usage: enspin <command> [flags]", "",
            "exact Clifford-algebra construction and verification of the compact spin",
            "subalgebras attached to the E-series diagrams", "",
            *(f"  {c:<{width}}  {command.help}" for c, command in _COMMANDS.items()), "",
            "enspin <command> --help names the flags of one command", ""])
    command = _COMMANDS[name]
    usage, rows = ["usage: enspin", name], []
    for f, flag in command.flags.items():
        if flag.kind is bool:
            shape = f
        elif flag.kind is int:
            shape = f"{f} INT"
        else:
            shape = f"{f} {{{','.join(flag.kind)}}}"
        if flag.default is None:
            usage.append(shape)
            note = "required"
        else:
            usage.append(f"[{shape}]")
            note = flag.help or f"default {flag.default}"
        if flag.floor is not None:
            note += f", at least {flag.floor}"
        rows.append((shape, note))
    width = max(len(shape) for shape, _ in rows)
    return "\n".join([" ".join(usage), "", command.help, "",
                      *(f"  {shape:<{width}}  {note}" for shape, note in rows), ""])


def _parse(argv: list[str]) -> tuple[str, SimpleNamespace] | str:
    """The command and its flag values read from argv, or the usage text for -h or --help.

    Flags are read as argparse reads them: ``--flag value``, ``--flag=value``
    or a unique prefix of the flag; a value may be a negative number, and
    the last repeat of a flag wins.  Every usage error raises ValueError in
    argparse's words, and then each int flag's floor is checked, before
    any command runs.
    """
    if not argv:
        raise ValueError("the following arguments are required: command")
    name, *rest = argv
    if name in ("-h", "--help"):
        return _usage(None)
    if name not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise ValueError(f"argument command: invalid choice: {name!r} (choose from {choices})")
    command = _COMMANDS[name]
    values = {flag.dest: flag.default for flag in command.flags.values()}
    unknown = []
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return _usage(name)
        option, eq, value = token.partition("=")
        matches = [option] if option in command.flags else [
            f for f in command.flags if option.startswith("--") and f.startswith(option)]
        if not matches:
            unknown.append(token)
            continue
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {option} could match {', '.join(matches)}")
        flag = command.flags[matches[0]]
        where = f"argument {matches[0]}"
        if flag.kind is bool:
            if eq:
                raise ValueError(f"{where}: ignored explicit argument {value!r}")
            values[flag.dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            # a token that looks like a flag is no value, but a negative number is
            if value is None or (value.startswith("-") and not value[1:].isdigit()):
                raise ValueError(f"{where}: expected one argument")
        if flag.kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{where}: invalid int value: {value!r}") from None
        elif value not in flag.kind:
            choices = ", ".join(map(repr, flag.kind))
            raise ValueError(f"{where}: invalid choice: {value!r} (choose from {choices})")
        values[flag.dest] = value
    missing = [f for f, flag in command.flags.items() if values[flag.dest] is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    for f, flag in command.flags.items():
        if flag.floor is not None and values[flag.dest] < flag.floor:
            raise ValueError(f"{name} needs {f} >= {flag.floor}, got {values[flag.dest]}")
    return name, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        sys.stdout.reconfigure(encoding="utf-8")
    except (AttributeError, ValueError):
        pass
    # the one error boundary: a ValueError from the parser or from any layer
    # (the ambient ceiling, an infinite type) is a usage or validation
    # error, exit 2
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(parsed, str):
            sys.stdout.write(parsed)
            return 0
        name, args = parsed
        return globals()[f"cmd_{name}"](args)
    except ValueError as e:
        return _usage_error(str(e))


if __name__ == "__main__":
    from .__main__ import run

    run()
