"""Verification reports and the summary table."""

import csv
import io
import json

import pytest

from enspin.bott import max_compact
from enspin.deltas import lower_bound_dim
from enspin.report import (
    CHECK_ORDER,
    algebra_table,
    reports_to_csv,
    reports_to_json,
    reports_to_markdown,
    run_verification,
    table_to_csv,
    table_to_json,
    table_to_markdown,
)


def test_report_small_rank_passes_everything():
    rep = run_verification(4)
    assert rep.verdict
    assert rep.closure_dim == 10
    assert rep.expected_dim == 10
    assert all(c.status in ("pass", "skipped") for c in rep.checks.values())
    assert rep.checks["classify"].detail == "sp(2)"


def test_report_check_keys_follow_declared_order():
    rep = run_verification(5)
    assert tuple(rep.checks) == CHECK_ORDER


def test_report_rank_three_special_cases():
    rep = run_verification(3)
    assert rep.verdict
    assert rep.checks["classify"].detail == "u(2)"
    assert "radical" in rep.checks["killing"].detail
    assert "scalar unit" in rep.checks["lemma"].detail


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
    rep = run_verification(n, with_timings=False)
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


def test_report_timings_toggle():
    timed = run_verification(4, with_timings=True)
    bare = run_verification(4, with_timings=False)
    assert all(v == 0.0 for v in bare.timings_ms.values())
    assert timed.timings_ms.keys() == bare.timings_ms.keys()


def test_report_json_shape():
    rep = run_verification(4, with_timings=False)
    blob = rep.to_json()
    assert blob["n"] == 4
    assert blob["delta"] == {"d0": 2, "d1": 4, "d2": 6, "d3": 4}
    assert blob["max_compact"] == "sp(2)"
    assert set(blob["checks"]) == set(CHECK_ORDER)
    # round trips through the json module without surprises
    assert json.loads(json.dumps(blob)) == blob


def test_reports_to_json_is_a_list_sorted_by_n():
    reps = [run_verification(n, with_timings=False) for n in (5, 4)]
    blob = json.loads(reports_to_json(reps))
    assert [r["n"] for r in blob] == [4, 5]


def test_reports_markdown_has_one_row_per_n():
    reps = [run_verification(n, with_timings=False) for n in (4, 5)]
    text = reports_to_markdown(reps)
    lines = text.strip().splitlines()
    assert lines[0].startswith("| n |")
    assert len(lines) == 2 + len(reps)
    assert "| 4 |" in text and "| 5 |" in text


def test_reports_csv_parses_back():
    reps = [run_verification(n, with_timings=False) for n in (4, 5)]
    rows = list(csv.DictReader(io.StringIO(reports_to_csv(reps))))
    assert [r["n"] for r in rows] == ["4", "5"]
    assert rows[0]["verdict"] == "pass"
    assert rows[0]["check_classify"] == "pass"


def test_algebra_table_matches_through_twelve():
    rows = algebra_table(12)
    assert [r.n for r in rows] == list(range(2, 13))
    by_n = {r.n: r for r in rows}
    assert by_n[2].closure_dim is None
    assert by_n[3].match is None and "u(2)" in by_n[3].note
    for n in range(4, 13):
        assert by_n[n].match, f"type dimension mismatch at n={n}"
        assert by_n[n].compact_type == str(max_compact(n))
    assert by_n[12].closure_dim == 2080


def test_table_serializers_agree_on_content():
    rows = algebra_table(6)
    md = table_to_markdown(rows)
    parsed = list(csv.DictReader(io.StringIO(table_to_csv(rows))))
    blob = json.loads(table_to_json(rows))
    assert len(parsed) == len(blob) == len(rows)
    for row in rows:
        assert f"| {row.n} |" in md
    assert blob[-1]["max_compact"] == "sp(4)"
    assert parsed[-1]["closure_dim"] == "36"
