"""Verification reports and the summary table."""

import csv
import io
import json

import pytest

from enspin import spinrep
from enspin.analysis import analyze, classify_bundle
from enspin.bott import closure_type, max_compact
from enspin.cli import main
from enspin.closure import ClosureBasis, blade_closure
from enspin.deltas import lower_bound_dim
from enspin.report import (
    CHECK_ORDER,
    _killing_outcome,
    reports_to_csv,
    reports_to_json,
    reports_to_markdown,
    run_verification,
)
from enspin.table import algebra_table, table_to_csv, table_to_json, table_to_markdown


def test_report_small_rank_passes_everything():
    rep = run_verification(4)
    assert rep.verdict
    assert rep.closure_dim == 10
    assert rep.expected_dim == 10
    assert all(c.status in ("pass", "skipped") for c in rep.checks.values())
    assert rep.checks["classify"].detail == "sp(2)"


def test_report_at_twenty_one_passes_every_check():
    # near the top of the range, and the last n where the split applies
    rep = run_verification(21)
    assert rep.verdict
    assert rep.closure_dim == rep.expected_dim == lower_bound_dim(21)
    assert rep.checks["split"].status == "pass"
    assert rep.checks["classify"].detail == str(closure_type(21))


def test_report_check_keys_follow_declared_order():
    rep = run_verification(5)
    assert tuple(rep.checks) == CHECK_ORDER


def test_report_rank_three_special_cases():
    rep = run_verification(3)
    assert rep.verdict
    assert rep.checks["classify"].detail == "u(2)"
    assert "radical" in rep.checks["killing"].detail
    assert "scalar unit" in rep.checks["lemma"].detail


def _with_central(bundle, masks):
    central = bundle.basis.bits & sum(1 << m for m in masks)
    return bundle._replace(central=central, center=central.bit_count())


def test_killing_radical_at_three_must_be_exactly_the_top_blade():
    bundle = analyze(3)
    out = _killing_outcome(bundle)
    assert out.status == "pass" and out.detail == "degenerate with radical spanned by the top blade"
    for masks in ([0b011], [], [0b011, 0b111]):
        out = _killing_outcome(_with_central(bundle, masks))
        assert out.status == "fail", masks
        assert out.detail.endswith("expected radical: the top blade"), masks
    assert _killing_outcome(bundle._replace(compact=False)).status == "fail"
    assert "center 0 != 1" in classify_bundle(_with_central(bundle, [])).failures


def test_killing_fails_on_one_central_blade_at_six():
    bundle = analyze(6)
    assert _killing_outcome(bundle).detail == (
        "diagonal, K_ii = -4 x anticommuting partners < 0 for all d=36"
    )
    for mask in (0b11, 0b111111):
        out = _killing_outcome(_with_central(bundle, [mask]))
        assert out.status == "fail"
        assert out.detail == "diagonal, K_ii >= 0 for 1 of d=36 blades; expected radical: none"
        assert "center 1 != 0" in classify_bundle(_with_central(bundle, [mask])).failures


def test_noncompact_closure_fails_killing_and_classify(monkeypatch):
    # v1, v2 and v1v2 span sl(2, R): v1 squares to +1, so the algebra is not compact
    noncompact = blade_closure(3, (0b001, 0b010))
    monkeypatch.setattr("enspin.analysis.blade_closure", lambda n, gens, **kwargs: noncompact)
    bundle = analyze(3)
    assert not bundle.compact and not bundle.killing_ok
    out = _killing_outcome(bundle)
    assert out.status == "fail" and "not compact" in out.detail
    cls = classify_bundle(bundle)
    assert not cls.verdict
    assert "torus is not a certified Cartan subalgebra" in cls.failures


def test_failing_split_names_its_hole(monkeypatch):
    # without v3v4v5 the n = 5 closure has no mirror for v1v2, and the split
    # detail says so rather than printing dims it never measured
    real = blade_closure(5, spinrep.spin_generators(5).masks)
    holed = ClosureBasis(5, real.bits & ~(1 << 0x1c), real.provenance)
    monkeypatch.setattr("enspin.analysis.blade_closure", lambda n, gens, **kwargs: holed)
    split = run_verification(5).checks["split"]
    assert split == ("fail", "complement of 0x3 missing from basis")


def test_failing_lemma_names_its_least_holes(monkeypatch):
    # the n = 5 closure without v3v4v5 misses one predicted mask; with v1 added
    # it also holds one the lemma does not predict, and the detail names both
    real = blade_closure(5, spinrep.spin_generators(5).masks)
    head = ("all expected masks present=False, full mask present=False (expected False), "
            "missing=1, extra=")
    for bits, tail in ((real.bits & ~(1 << 0x1c), "0; least missing 0x1c"),
                       (real.bits & ~(1 << 0x1c) | 1 << 0x1, "1; least missing 0x1c; least extra 0x1")):
        holed = ClosureBasis(5, bits, real.provenance)
        monkeypatch.setattr("enspin.analysis.blade_closure", lambda n, gens, **kwargs: holed)
        assert run_verification(5).checks["lemma"] == ("fail", head + tail)


def test_report_split_skipped_off_the_residues():
    # split testimony only applies when the top blade is central and squares
    # to +1, which needs n == 1 mod 4
    assert run_verification(5).checks["split"].status == "pass"
    assert run_verification(6).checks["split"].status == "skipped"
    assert run_verification(7).checks["split"].status == "skipped"


def test_report_roots_skipped_past_rank_eight():
    rep = run_verification(9)
    assert rep.checks["roots"].status == "skipped"
    assert "rank 8" in rep.checks["roots"].detail
    # everything else still runs and passes
    assert rep.verdict


@pytest.mark.parametrize("n", range(13, 19))
def test_report_verifies_thirteen_through_eighteen(n):
    rep = run_verification(n)
    assert rep.verdict
    assert rep.closure_dim == lower_bound_dim(n)
    assert rep.checks["classify"].detail == str(max_compact(n))


@pytest.mark.parametrize("n", [25, 300])
def test_report_refuses_past_ceiling_before_relations(monkeypatch, n):
    def fail(n):
        raise AssertionError("relations computed before the ceiling check")

    monkeypatch.setattr("enspin.report.verify_relations", fail)
    with pytest.raises(ValueError, match="ceiling"):
        run_verification(n)


def test_report_timings_toggle(capsys):
    # --no-timings is applied by the CLI, to serial and pooled reports alike
    def timings(*flags):
        assert main(["verify", "--from", "4", "--to", "5", *flags]) == 0
        return [r["timings_ms"] for r in json.loads(capsys.readouterr().out)]

    timed = timings()
    assert all(sum(t.values()) > 0 for t in timed)
    for jobs in ("1", "2"):
        bare = timings("--no-timings", "--jobs", jobs)
        assert [t.keys() for t in bare] == [t.keys() for t in timed]
        assert all(v == 0.0 for t in bare for v in t.values())


def test_relations_check_fails_on_a_wrong_generator(monkeypatch):
    # A_1 = v1 squares to +1; the closure and the other checks keep the true generators
    true_generators = spinrep.spin_generators

    def wrong_first(n):
        gens = true_generators(n)
        return gens._replace(masks=(0b1,) + gens.masks[1:])

    monkeypatch.setattr("enspin.spinrep.spin_generators", wrong_first)
    rel = spinrep.verify_relations(5)
    assert "A_1^2 != -1" in rel.failures
    assert "half-scaled presentation failed" in rel.failures
    rep = run_verification(5)
    assert rep.checks["relations"].status == "fail"
    assert not rep.verdict


def test_report_json_shape():
    rep = run_verification(4)
    blob = rep.to_json()
    assert blob["n"] == 4
    assert blob["delta"] == {"d0": 2, "d1": 4, "d2": 6, "d3": 4}
    assert blob["max_compact"] == "sp(2)"
    assert set(blob["checks"]) == set(CHECK_ORDER)
    # round trips through the json module without surprises
    assert json.loads(json.dumps(blob)) == blob


def test_reports_to_json_is_a_list_sorted_by_n():
    reps = [run_verification(n) for n in (5, 4)]
    blob = json.loads(reports_to_json(reps))
    assert [r["n"] for r in blob] == [4, 5]


def test_reports_markdown_has_one_row_per_n():
    reps = [run_verification(n) for n in (4, 5)]
    text = reports_to_markdown(reps)
    lines = text.strip().splitlines()
    assert lines[0].startswith("| n |")
    assert len(lines) == 2 + len(reps)
    assert "| 4 |" in text and "| 5 |" in text


def test_reports_csv_parses_back():
    reps = [run_verification(n) for n in (4, 5)]
    rows = list(csv.DictReader(io.StringIO(reports_to_csv(reps))))
    assert [r["n"] for r in rows] == ["4", "5"]
    assert rows[0]["verdict"] == "pass"
    assert rows[0]["check_classify"] == "pass"


def test_algebra_table_matches_through_twelve():
    rows = algebra_table(12)
    assert [r["n"] for r in rows] == list(range(2, 13))
    assert all(list(r) == ["n", "clifford", "clifford_dim", "max_compact", "type_dim",
                           "closure_dim", "match", "note"] for r in rows)
    by_n = {r["n"]: r for r in rows}
    assert by_n[2]["closure_dim"] is None
    assert by_n[3]["match"] is None and "u(2)" in by_n[3]["note"]
    for n in range(4, 13):
        assert by_n[n]["match"] is True, f"type dimension mismatch at n={n}"
        assert by_n[n]["max_compact"] == str(max_compact(n))
    assert by_n[12]["closure_dim"] == 2080


def test_table_serializers_agree_on_content():
    rows = algebra_table(6)
    md = table_to_markdown(rows)
    parsed = list(csv.DictReader(io.StringIO(table_to_csv(rows))))
    blob = json.loads(table_to_json(rows))
    assert blob == rows
    assert len(parsed) == len(rows)
    for row in rows:
        assert f"| {row['n']} |" in md
    assert blob[-1]["max_compact"] == "sp(4)"
    assert parsed[-1]["closure_dim"] == "36"
    assert parsed[0]["closure_dim"] == parsed[0]["match"] == ""
    assert "| 2 | M(2,R) | 4 | so(2) | 1 | -- | -- |  |" in md
    assert parsed[-1]["closure_dim"] == "36"
