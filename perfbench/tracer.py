"""Traced pass of the enspin CLI, and the per-layer metrics read off its spans.

Run as a child process by run.py:

    python3 perfbench/tracer.py SPANS_OUT PASS_ID -- <enspin argv>

It imports enspin, rebinds the public functions of each layer where their
callers look them up (a module attribute) to wrappers that record a span,
calls ``enspin.cli.main(argv)`` in this process, restores the originals,
and writes the spans to SPANS_OUT as JSON.  The CLI's stdout and exit code
pass through unchanged, so the traced pass goes through the same
correctness gate as the untraced ones.

Importing this module imports nothing from enspin; run.py uses
``layer_metrics`` to turn a spans file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  A binding is rebound in the module whose
# code makes the call: the CLI calls run_verification, algebra_table and the
# JSON serializers through its own ``from .report import ...`` names, and the
# analysis and spinrep layers reach clifford through theirs.
BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("enspin.cli", "main", "cli.main"),
    ("enspin.cli", "run_verification", "report.run_verification"),
    ("enspin.cli", "algebra_table", "report.algebra_table"),
    ("enspin.cli", "reports_to_json", "report.serialize"),
    ("enspin.cli", "table_to_json", "report.serialize"),
    ("enspin.report", "analyze", "analysis.analyze"),
    ("enspin.report", "verify_relations", "spinrep.verify_relations"),
    ("enspin.report", "lemma_containment_check", "closure.lemma"),
    ("enspin.report", "positive_roots", "roots.positive_roots"),
    ("enspin.report", "classify_bundle", "analysis.classify"),
    ("enspin.analysis", "blade_closure", "closure.blade_closure"),
    ("enspin.closure", "blade_closure", "closure.blade_closure"),
    ("enspin.analysis", "structure_constants", "analysis.structure_constants"),
    ("enspin.analysis", "center_dim", "analysis.center"),
    ("enspin.analysis", "derived_dim", "analysis.center"),
    ("enspin.analysis", "killing_negative_definite_check", "analysis.killing"),
    ("enspin.analysis", "is_negative_definite", "linalg.negdef"),
    ("enspin.analysis", "rank_trials", "analysis.rank"),
    ("enspin.analysis", "kernel_dimension_mod_p", "linalg.kernel_mod_p"),
    ("enspin.analysis", "split_check", "analysis.split"),
    ("enspin.analysis", "bracket", "clifford.bracket"),
    ("enspin.analysis", "mv_product", "clifford.mv_product"),
    ("enspin.spinrep", "bracket", "clifford.bracket"),
    ("enspin.spinrep", "mv_product", "clifford.mv_product"),
)

# start and end are perf_counter_ns() readings of the traced process.
SPAN_FIELDS = ("name", "start", "end", "parent", "pass", "attrs")


def _kernel_attrs(args, kwargs, result) -> dict:
    rows, cols = args[0].shape
    return {"rows": rows, "cols": cols}


def _rank_attrs(args, kwargs, result) -> dict:
    final = min(t.minimum for t in result) if result else None
    return {"trials": len(result), "useful": sum(t.minimum == final for t in result)}


def _table_attrs(args, kwargs, result) -> dict:
    return {"table_bytes": int(result.targets.nbytes + result.coeffs.nbytes)}


def _closure_attrs(args, kwargs, result) -> dict:
    return {"dim": result.dim}


# Counts read from a call's arguments or result, at the boundary where the
# work happens.
ATTRS = {
    "linalg.kernel_mod_p": _kernel_attrs,
    "analysis.rank": _rank_attrs,
    "analysis.structure_constants": _table_attrs,
    "closure.blade_closure": _closure_attrs,
}


class Tracer:
    """Span recorder: spans stay in memory as lists until ``dump``."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, pass_id = self.spans, self._stack, self.pass_id
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, pass_id, None]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": SPAN_FIELDS, "spans": self.spans}))


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return [dict(zip(data["fields"], row)) for row in data["spans"]]


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``ms`` is inclusive, ``self_ms`` excludes the time of child spans, and
    counts are exact.  ``linalg.kernel_mod_p.bytes`` and ``.ops`` are
    computed from matrix shapes, not measured: bytes is the int64 working
    copy each call makes (8 * rows * cols), ops the multiply and add count
    of a full-rank elimination, 2 * (m*n*k - (m+n)*k^2/2 + k^3/3) with
    k = min(m, n).
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    incl: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        incl[s["name"]] += dur
        own[s["name"]] += dur - child_ns[i]
        calls[s["name"]] += 1

    def attr_sum(name: str, key: str) -> int:
        return sum(s["attrs"][key] for s in spans if s["name"] == name and s["attrs"])

    kernel_bytes = kernel_ops = 0
    for s in spans:
        if s["name"] == "linalg.kernel_mod_p":
            m, n = s["attrs"]["rows"], s["attrs"]["cols"]
            k = min(m, n)
            kernel_bytes += 8 * m * n
            kernel_ops += round(2 * (m * n * k - (m + n) * k * k / 2 + k ** 3 / 3))
    trials = attr_sum("analysis.rank", "trials")
    useful = attr_sum("analysis.rank", "useful")
    split_ids = {i for i, s in enumerate(spans) if s["name"] == "analysis.split"}
    split_pairs = sum(1 for s in spans if s["name"] == "clifford.bracket" and s["parent"] in split_ids)
    table_bytes = max(
        (s["attrs"]["table_bytes"] for s in spans
         if s["name"] == "analysis.structure_constants" and s["attrs"]),
        default=0,
    )

    def ms(d: dict, name: str) -> tuple[float, str]:
        return d[name] / 1e6, "ms"

    def count(value) -> tuple[float, str]:
        return value, "count"

    return {
        "linalg.kernel_mod_p.ms": ms(incl, "linalg.kernel_mod_p"),
        "linalg.kernel_mod_p.calls": count(calls["linalg.kernel_mod_p"]),
        "linalg.kernel_mod_p.bytes": (kernel_bytes, "B"),
        "linalg.kernel_mod_p.ops": (kernel_ops, "ops"),
        "linalg.negdef.ms": ms(incl, "linalg.negdef"),
        "linalg.negdef.calls": count(calls["linalg.negdef"]),
        "analysis.structure_constants.ms": ms(incl, "analysis.structure_constants"),
        "analysis.table_bytes": (table_bytes, "B"),
        "analysis.center.ms": ms(incl, "analysis.center"),
        "analysis.killing.self_ms": ms(own, "analysis.killing"),
        "analysis.rank.self_ms": ms(own, "analysis.rank"),
        "analysis.rank.trials": count(trials),
        "analysis.rank.useful_ratio": (useful / trials if trials else 0.0, "ratio"),
        "analysis.split.self_ms": ms(own, "analysis.split"),
        "analysis.split.pairs": count(split_pairs),
        "analysis.classify.ms": ms(incl, "analysis.classify"),
        "analysis.analyze.self_ms": ms(own, "analysis.analyze"),
        "clifford.bracket.calls": count(calls["clifford.bracket"]),
        "clifford.bracket.ms": ms(incl, "clifford.bracket"),
        "clifford.mv_product.calls": count(calls["clifford.mv_product"]),
        "clifford.mv_product.ms": ms(incl, "clifford.mv_product"),
        "closure.blade_closure.ms": ms(incl, "closure.blade_closure"),
        "closure.blade_closure.calls": count(calls["closure.blade_closure"]),
        "closure.basis_dim": count(attr_sum("closure.blade_closure", "dim")),
        "closure.lemma.ms": ms(incl, "closure.lemma"),
        "spinrep.verify_relations.self_ms": ms(own, "spinrep.verify_relations"),
        "roots.positive_roots.ms": ms(incl, "roots.positive_roots"),
        "report.run_verification.self_ms": ms(own, "report.run_verification"),
        "report.algebra_table.self_ms": ms(own, "report.algebra_table"),
        "report.serialize.ms": ms(incl, "report.serialize"),
        "cli.main.self_ms": ms(own, "cli.main"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT PASS_ID -- <enspin argv>", file=sys.stderr)
        return 2
    spans_out, pass_id, cli_argv = argv[0], int(argv[1]), argv[3:]
    import enspin.cli

    tracer = Tracer(pass_id)
    tracer.install()
    try:
        code = enspin.cli.main(cli_argv)
        sys.stdout.flush()
    finally:
        tracer.restore()
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
