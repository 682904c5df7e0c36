"""Per-n verification pipeline and its records.

run_verification drives every check for one ambient dimension and
returns a flat record: computed closure dimension, the expected count,
delta values, algebra descriptors, and one pass/fail/skipped outcome
per named check.  The serialization helpers render lists of records as
JSON, Markdown, or CSV with a stable column set; the Markdown and CSV
writers are enspin.table's, imported when called.  The algebra table of
``enspin report`` lives in enspin.table, which loads no part of this
pipeline.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

from . import _forwarding_getattr
from .analysis import AnalysisBundle, analyze, classify_bundle, stage
from .bott import bott_algebra, closure_type, max_compact
from .closure import check_ambient, lemma_containment_check
from .deltas import delta_closed, delta_identities, lower_bound_dim
from .spinrep import verify_relations

# name -> defining module, for exactly the name that the benchmark tracer
# binds here without this module defining it; it is read as
# _layers.positive_roots, for n <= 8 alone
_FORWARDED = {"positive_roots": "roots"}
__getattr__ = _forwarding_getattr(globals(), _FORWARDED)
_layers = sys.modules[__name__]

CHECK_ORDER = ("relations", "lemma", "identities", "killing", "rank", "split", "roots", "classify")


class CheckOutcome(NamedTuple):
    status: str  # "pass" | "fail" | "skipped"
    detail: str

    def to_json(self) -> dict:
        return self._asdict()


def _outcome(ok: bool, detail: str) -> CheckOutcome:
    return CheckOutcome(status="pass" if ok else "fail", detail=detail)


def _skipped(reason: str) -> CheckOutcome:
    return CheckOutcome(status="skipped", detail=reason)


class VerificationReport(NamedTuple):
    n: int
    closure_dim: int
    expected_dim: int
    delta: tuple[int, int, int, int]
    bott_algebra: str
    max_compact: str
    checks: dict[str, CheckOutcome]
    timings_ms: dict[str, float]

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
    """One rule for every n, from K_ii = 4 b_i^2 partners_i (central_blades).

    The radical of the form is spanned by the central blades, and the
    form is negative on the rest exactly when every blade squares to -1
    (bundle.compact).  The check passes when the algebra is compact and
    its central blades are the expected radical: the top blade where the
    image type has a center (closure_type), and none elsewhere.
    """
    d = bundle.basis.dim
    full = (1 << bundle.n) - 1
    radical = 1 << full if full in bundle.basis and closure_type(bundle.n).center_dim() > 0 else 0
    if not bundle.compact:
        return _outcome(False, "a blade squares to +1, so the algebra is not compact")
    if bundle.central != radical:
        want = "the top blade" if radical else "none"
        detail = f"diagonal, K_ii >= 0 for {bundle.central.bit_count()} of d={d} blades"
        return _outcome(False, f"{detail}; expected radical: {want}")
    if radical:
        return _outcome(True, "degenerate with radical spanned by the top blade")
    return _outcome(True, f"diagonal, K_ii = -4 x anticommuting partners < 0 for all d={d}")


def run_verification(n: int) -> VerificationReport:
    """All checks for one n, assembled into a single report record.

    The ambient ceiling is checked before any work, the O(n^2)
    generator relations included.  timings_ms holds each stage's wall
    time in milliseconds, rounded to 3 places; `verify --no-timings`
    zeroes them in the CLI for byte-stable output."""
    if n < 3:
        raise ValueError(f"verification needs n >= 3, got {n}")
    check_ambient(n)
    timings: dict[str, float] = {}
    checks: dict[str, CheckOutcome] = {}

    with stage(timings, "relations"):
        rel = verify_relations(n)
    detail = f"{len(rel.pairs)} ordered pairs, squares and half-scaled variant included"
    if rel.failures:
        detail = "; ".join(rel.failures)
    checks["relations"] = _outcome(rel.all_pass, detail)

    bundle = analyze(n)
    timings.update(bundle.timings_ms)

    with stage(timings, "lemma"):
        lemma = lemma_containment_check(n, bundle.basis)
    detail = (
        f"all expected masks present={lemma.all_expected_present}, "
        f"full mask present={lemma.full_mask_present} (expected {lemma.full_mask_expected}), "
        f"missing={lemma.missing_masks}, extra={lemma.extra_masks}"
    )
    # a failing lemma names its least hole on each side; a passing one has none
    holes = {"missing": lemma.least_missing, "extra": lemma.least_extra}
    detail += "".join(f"; least {side} {m:#x}" for side, m in holes.items() if m is not None)
    if n == 3:
        detail += (
            "; the scalar unit is not bracket-generated, so the computed basis is "
            "v1v2, v1v3, v2v3, v1v2v3"
        )
    checks["lemma"] = _outcome(lemma.passed, detail)

    with stage(timings, "deltas"):
        ident = delta_identities(n)
    dvals = tuple(delta_closed(k, n) for k in range(4))
    checks["identities"] = _outcome(
        all(ident.values()),
        "d0=%d d1=%d d2=%d d3=%d; %s" % (*dvals, ", ".join(f"{k}={v}" for k, v in ident.items())),
    )

    checks["killing"] = _killing_outcome(bundle)

    cls = classify_bundle(bundle)
    r, expected_rank = bundle.rank, cls.matched_type.rank()
    certified = "is self-centralizing" if bundle.compact else "is not a certified Cartan subalgebra"
    checks["rank"] = _outcome(
        bundle.compact and r == expected_rank,
        f"torus of {r} commuting blades {certified}; rank {r} vs expected {expected_rank}",
    )

    split = bundle.split
    if split.applicable:
        # a failing split names its hole in reason; a passing one has none
        checks["split"] = _outcome(
            split.passed,
            split.reason or f"eigenspace dims {split.dims}, cross brackets "
            f"vanish={split.cross_vanishes}, exhaustive={split.exhaustive}",
        )
    else:
        checks["split"] = _skipped(split.reason)

    with stage(timings, "roots"):
        if n <= 8:
            rs = _layers.positive_roots(n)
            checks["roots"] = _outcome(
                rs.count == bundle.basis.dim,
                f"{rs.count} positive roots vs closure dim {bundle.basis.dim}",
            )
        else:
            checks["roots"] = _skipped("infinite type beyond rank 8")

    detail = cls.display
    if cls.failures:
        detail += ": " + "; ".join(cls.failures)
    checks["classify"] = _outcome(cls.verdict, detail)

    return VerificationReport(
        n=n,
        closure_dim=bundle.basis.dim,
        expected_dim=lower_bound_dim(n),
        delta=dvals,
        bott_algebra=str(bott_algebra(n)),
        max_compact=str(max_compact(n)),
        checks={name: checks[name] for name in CHECK_ORDER},
        timings_ms={k: round(v, 3) for k, v in timings.items()},
    )


def reports_to_json(reports: list[VerificationReport]) -> str:
    ordered = sorted(reports, key=lambda r: r.n)
    return json.dumps([r.to_json() for r in ordered], indent=2) + "\n"


def _status_rows(reports: list[VerificationReport]) -> list[list]:
    return [
        [r.n, r.closure_dim, r.expected_dim, r.max_compact]
        + [r.checks[name].status for name in CHECK_ORDER]
        + ["pass" if r.verdict else "fail"]
        for r in sorted(reports, key=lambda r: r.n)
    ]


def reports_to_markdown(reports: list[VerificationReport]) -> str:
    # imported here, so a JSON run never loads enspin.table
    from .table import _markdown

    cols = ["n", "dim", "expected", "type", *CHECK_ORDER, "verdict"]
    return _markdown(cols, _status_rows(reports))


def reports_to_csv(reports: list[VerificationReport]) -> str:
    from .table import _csv

    checks = [f"check_{name}" for name in CHECK_ORDER]
    cols = ["n", "closure_dim", "expected_dim", "max_compact", *checks, "verdict"]
    return _csv(cols, _status_rows(reports))
