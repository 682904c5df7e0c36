"""Per-n verification pipeline and tabular report assembly.

run_verification drives every check for one ambient dimension and
returns a flat record: computed closure dimension, the expected count,
delta values, algebra descriptors, and one pass/fail/skipped outcome
per named check.  The serialization helpers render lists of records as
JSON, Markdown, or CSV with a stable column set.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .analysis import AnalysisBundle, analyze, classify_bundle, stage
from .bott import bott_algebra, max_compact
from .closure import lemma_containment_check
from .deltas import delta_closed, delta_identities, lower_bound_dim
from .roots import positive_roots
from .spinrep import verify_relations

CHECK_ORDER = ("relations", "lemma", "identities", "killing", "rank", "split", "roots", "classify")


@dataclass(frozen=True)
class CheckOutcome:
    status: str  # "pass" | "fail" | "skipped"
    detail: str

    def to_json(self) -> dict:
        return {"status": self.status, "detail": self.detail}


def _outcome(ok: bool, detail: str) -> CheckOutcome:
    return CheckOutcome(status="pass" if ok else "fail", detail=detail)


def _skipped(reason: str) -> CheckOutcome:
    return CheckOutcome(status="skipped", detail=reason)


@dataclass
class VerificationReport:
    n: int
    closure_dim: int
    expected_dim: int
    delta: tuple[int, int, int, int]
    bott_algebra: str
    max_compact: str
    checks: dict[str, CheckOutcome]
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(c.status != "fail" for c in self.checks.values())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "closure_dim": self.closure_dim,
            "expected_dim": self.expected_dim,
            "delta": {f"d{k}": self.delta[k] for k in range(4)},
            "bott_algebra": self.bott_algebra,
            "max_compact": self.max_compact,
            "checks": {name: self.checks[name].to_json() for name in CHECK_ORDER},
            "verdict": self.verdict,
            "timings_ms": {k: self.timings_ms[k] for k in sorted(self.timings_ms)},
        }


def _killing_outcome(bundle: AnalysisBundle) -> CheckOutcome:
    if bundle.n >= 4:
        return _outcome(bundle.killing_ok, bundle.killing_detail)
    # n = 3: the form is degenerate by design; the check is that its
    # radical is exactly the top-blade line and the rest is negative.
    diag = bundle.killing_diag
    full = (1 << bundle.n) - 1
    top = bundle.basis.masks.index(full)
    zeros = {i for i, v in enumerate(diag) if v == 0}
    ok = zeros == {top} and all(int(diag[i]) < 0 for i in range(len(diag)) if i != top)
    return _outcome(ok, "degenerate with radical spanned by the top blade")


def run_verification(
    n: int,
    *,
    allow_large: bool = False,
    with_timings: bool = True,
) -> VerificationReport:
    """All checks for one n, assembled into a single report record."""
    if n < 3:
        raise ValueError(f"verification needs n >= 3, got {n}")
    timings: dict[str, float] = {}
    checks: dict[str, CheckOutcome] = {}

    with stage(timings, "relations"):
        rel = verify_relations(n)
    detail = f"{len(rel.pairs)} ordered pairs, squares and half-scaled variant included"
    if rel.failures:
        detail = "; ".join(rel.failures)
    checks["relations"] = _outcome(rel.all_pass, detail)

    bundle = analyze(n, allow_large=allow_large)
    timings.update(bundle.timings_ms)

    with stage(timings, "lemma"):
        lemma = lemma_containment_check(n, bundle.basis)
    detail = (
        f"all expected masks present={lemma.all_expected_present}, "
        f"full mask present={lemma.full_mask_present} (expected {lemma.full_mask_expected}), "
        f"missing={lemma.missing_masks}, extra={lemma.extra_masks}"
    )
    if n == 3:
        detail += (
            "; the scalar unit is not bracket-generated, so the computed basis is "
            "v1v2, v1v3, v2v3, v1v2v3"
        )
    checks["lemma"] = _outcome(lemma.passed, detail)

    with stage(timings, "deltas"):
        ident = delta_identities(n)
    dvals = tuple(int(delta_closed(k, n)) for k in range(4))
    checks["identities"] = _outcome(
        all(ident.values()),
        "d0=%d d1=%d d2=%d d3=%d; %s" % (*dvals, ", ".join(f"{k}={v}" for k, v in ident.items())),
    )

    checks["killing"] = _killing_outcome(bundle)

    expected_rank = 2 if n == 3 else max_compact(n).rank()
    r = bundle.rank
    certified = "is self-centralizing" if bundle.rank_certified else "is not a certified Cartan subalgebra"
    checks["rank"] = _outcome(
        bundle.rank_certified and r == expected_rank,
        f"torus of {r} commuting blades {certified}; rank {r} vs expected {expected_rank}",
    )

    if bundle.split.applicable:
        dims = bundle.split.dims
        checks["split"] = _outcome(
            bundle.split.passed,
            f"eigenspace dims {dims}, cross brackets vanish={bundle.split.cross_vanishes}, "
            f"exhaustive={bundle.split.exhaustive}",
        )
    else:
        checks["split"] = _skipped(bundle.split.reason)

    with stage(timings, "roots"):
        if n <= 8:
            rs = positive_roots(n)
            checks["roots"] = _outcome(
                rs.count == bundle.basis.dim,
                f"{rs.count} positive roots vs closure dim {bundle.basis.dim}",
            )
        else:
            checks["roots"] = _skipped("infinite type beyond rank 8")

    cls = classify_bundle(bundle)
    detail = cls.display
    if cls.failures:
        detail += ": " + "; ".join(cls.failures)
    checks["classify"] = _outcome(cls.verdict, detail)

    if not with_timings:
        timings = {k: 0.0 for k in timings}
    else:
        timings = {k: round(v, 3) for k, v in timings.items()}

    return VerificationReport(
        n=n,
        closure_dim=bundle.basis.dim,
        expected_dim=lower_bound_dim(n),
        delta=dvals,
        bott_algebra=str(bott_algebra(n)),
        max_compact=str(max_compact(n)),
        checks={name: checks[name] for name in CHECK_ORDER},
        timings_ms=timings,
    )


def reports_to_json(reports: list[VerificationReport]) -> str:
    ordered = sorted(reports, key=lambda r: r.n)
    return json.dumps([r.to_json() for r in ordered], indent=2) + "\n"


def reports_to_markdown(reports: list[VerificationReport]) -> str:
    cols = ["n", "dim", "expected", "type"] + list(CHECK_ORDER) + ["verdict"]
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in sorted(reports, key=lambda r: r.n):
        row = [str(r.n), str(r.closure_dim), str(r.expected_dim), r.max_compact]
        row += [r.checks[name].status for name in CHECK_ORDER]
        row.append("pass" if r.verdict else "fail")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "closure_dim", "expected_dim", "max_compact"]
               + [f"check_{name}" for name in CHECK_ORDER] + ["verdict"])
    for r in sorted(reports, key=lambda r: r.n):
        w.writerow(
            [r.n, r.closure_dim, r.expected_dim, r.max_compact]
            + [r.checks[name].status for name in CHECK_ORDER]
            + ["pass" if r.verdict else "fail"]
        )
    return buf.getvalue()


@dataclass(frozen=True)
class TableRow:
    """One line of the side-by-side algebra table."""

    n: int
    clifford: str
    clifford_dim: int
    compact_type: str
    type_dim: int
    closure_dim: int | None
    match: bool | None
    note: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "clifford": self.clifford,
            "clifford_dim": self.clifford_dim,
            "max_compact": self.compact_type,
            "type_dim": self.type_dim,
            "closure_dim": self.closure_dim,
            "match": self.match,
            "note": self.note,
        }


def algebra_table(to_n: int, *, allow_large: bool = False) -> list[TableRow]:
    """Clifford and compact-type descriptors next to computed closure dims."""
    from .closure import blade_closure, check_ambient
    from .spinrep import spin_generators

    if to_n < 2:
        raise ValueError(f"table needs to_n >= 2, got {to_n}")
    check_ambient(to_n, allow_large)
    rows: list[TableRow] = []
    for n in range(2, to_n + 1):
        alg = bott_algebra(n)
        typ = max_compact(n)
        closure_dim: int | None = None
        match: bool | None = None
        note = ""
        if n >= 3:
            closure_dim = blade_closure(n, spin_generators(n).masks, allow_large=allow_large).dim
        if n == 3:
            note = "image is u(2), one dimension above the listed type"
        elif n >= 4:
            match = closure_dim == typ.dimension()
        rows.append(
            TableRow(
                n=n,
                clifford=str(alg),
                clifford_dim=alg.real_dimension(),
                compact_type=str(typ),
                type_dim=typ.dimension(),
                closure_dim=closure_dim,
                match=match,
                note=note,
            )
        )
    return rows


def table_to_json(rows: list[TableRow]) -> str:
    return json.dumps([r.to_json() for r in rows], indent=2) + "\n"


def table_to_markdown(rows: list[TableRow]) -> str:
    cols = ["n", "clifford", "dim C", "max compact", "type dim", "closure dim", "match", "note"]
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        lines.append("| " + " | ".join([
            str(r.n), r.clifford, str(r.clifford_dim), r.compact_type, str(r.type_dim),
            "--" if r.closure_dim is None else str(r.closure_dim),
            "--" if r.match is None else ("yes" if r.match else "no"),
            r.note,
        ]) + " |")
    return "\n".join(lines) + "\n"


def table_to_csv(rows: list[TableRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "clifford", "clifford_dim", "max_compact", "type_dim",
                "closure_dim", "match", "note"])
    for r in rows:
        w.writerow([r.n, r.clifford, r.clifford_dim, r.compact_type, r.type_dim,
                    "" if r.closure_dim is None else r.closure_dim,
                    "" if r.match is None else ("yes" if r.match else "no"), r.note])
    return buf.getvalue()
