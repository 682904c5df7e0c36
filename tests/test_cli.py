"""Command line behaviour, exit codes, and output stability."""

import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import enspin
from enspin.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes --------------------------------------------------------------

def test_closure_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "closure", "--n", "2")
    assert code == 2
    assert "error:" in err


def test_closure_rejects_large_n_without_flag(capsys):
    code, _, err = run_cli(capsys, "closure", "--n", "17")
    assert code == 2
    assert "allow_large" in err or "allow-large" in err


def test_verify_rejects_bad_range(capsys):
    assert run_cli(capsys, "verify", "--from", "1", "--to", "2")[0] == 2
    assert run_cli(capsys, "verify", "--from", "5", "--to", "4")[0] == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--from", "3", "--to", "17"),
    ("verify", "--from", "3", "--to", "25", "--allow-large"),
    ("report", "--to", "17"),
    ("report", "--to", "25", "--allow-large"),
])
def test_over_cap_range_fails_before_any_work(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr("enspin.cli.run_verification", lambda *a, **k: calls.append(a))
    monkeypatch.setattr("enspin.closure.blade_closure", lambda *a, **k: calls.append(a))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err and out == ""
    assert calls == []


def test_roots_rejects_affine_and_beyond(capsys):
    code, _, err = run_cli(capsys, "roots", "--n", "9")
    assert code == 2
    assert "infinite type" in err


# -- closure -----------------------------------------------------------------

def test_closure_three_json(capsys):
    code, out, _ = run_cli(capsys, "closure", "--n", "3")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 3
    assert blob["dim"] == 4
    assert blob["masks"] == ["0x3", "0x5", "0x6", "0x7"]


def test_closure_three_text(capsys):
    code, out, _ = run_cli(capsys, "closure", "--n", "3", "--format", "text")
    assert code == 0
    assert "dim 4" in out
    assert "0x7 v1v2v3" in out


def test_closure_eight_dimension(capsys):
    code, out, _ = run_cli(capsys, "closure", "--n", "8")
    assert code == 0
    assert json.loads(out)["dim"] == 120


# -- delta -------------------------------------------------------------------

def test_delta_eleven_json(capsys):
    code, out, _ = run_cli(capsys, "delta", "--n", "11")
    assert code == 0
    blob = json.loads(out)
    assert blob["delta"] == {"d0": 496, "d1": 528, "d2": 528, "d3": 496}
    assert blob["total"] == 2048
    assert all(blob["identities"].values())


def test_delta_text_reports_identities(capsys):
    code, out, _ = run_cli(capsys, "delta", "--n", "8", "--format", "text")
    assert code == 0
    assert "total 256" in out
    assert "FAIL" not in out


# -- classify ----------------------------------------------------------------

def test_classify_five_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "5", "--format", "text")
    assert code == 0
    assert "sp(2) ⊕ sp(2)" in out
    assert "verdict pass" in out


def test_classify_four_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "4")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] is True
    assert blob["display"] == "sp(2)"
    assert blob["dim"] == 10 and blob["rank"] == 2


# -- verify ------------------------------------------------------------------

def test_verify_small_range_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "3", "--to", "5")
    assert code == 0
    blobs = json.loads(out)
    assert [b["n"] for b in blobs] == [3, 4, 5]
    assert all(b["verdict"] for b in blobs)


def test_verify_markdown_row_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "4", "--to", "5",
                           "--format", "markdown")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| n |")
    assert len(lines) == 4


def test_verify_csv_parses(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "4", "--to", "5",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["4", "5"]
    assert {r["verdict"] for r in rows} == {"pass"}


def test_verify_output_is_reproducible(capsys):
    argv = ("verify", "--from", "3", "--to", "4", "--seed", "0", "--no-timings")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_verify_jobs_do_not_change_output(capsys):
    base = ("verify", "--from", "3", "--to", "5", "--no-timings")
    _, serial, _ = run_cli(capsys, *base, "--jobs", "1")
    _, parallel, _ = run_cli(capsys, *base, "--jobs", "2")
    assert serial == parallel


def test_verify_pool_is_capped_at_range_length(capsys, monkeypatch):
    # a stand-in pool that records its size and runs in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    base = ("verify", "--from", "3", "--to", "4", "--no-timings")
    _, serial, _ = run_cli(capsys, *base, "--jobs", "1")
    assert sizes == []
    code, pooled, _ = run_cli(capsys, *base, "--jobs", "64")
    assert code == 0
    assert sizes == [2]
    assert pooled == serial


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "--from", "3", "--to", "4", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "error:" in err and "--jobs" in err


# -- roots -------------------------------------------------------------------

def test_roots_six_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "6")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 36
    assert sum(blob["roots"][0]) == 1
    assert [1, 0, 0, 0, 0, 0] in blob["roots"][:6]


def test_roots_text_lists_every_root(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "4", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "count 10"
    assert len(lines) == 12


# -- report ------------------------------------------------------------------

def test_report_markdown_covers_range(capsys):
    code, out, _ = run_cli(capsys, "report", "--to", "8", "--format", "markdown")
    assert code == 0
    assert "| 8 | R ⊗ M(16,R) | 256 | so(16) | 120 | 120 | yes |" in out


def test_report_csv_dimensions(capsys):
    code, out, _ = run_cli(capsys, "report", "--to", "12", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_n = {r["n"]: r for r in rows}
    assert by_n["12"]["closure_dim"] == "2080"
    assert by_n["2"]["closure_dim"] == ""


# -- golden outputs ----------------------------------------------------------

@pytest.mark.parametrize("n", [3, 8])
def test_verify_matches_golden(capsys, n):
    golden = (DATA / f"verify_n{n}.json").read_text(encoding="utf-8")
    _, out, _ = run_cli(capsys, "verify", "--from", str(n), "--to", str(n),
                        "--seed", "0", "--no-timings")
    assert out == golden


# -- module entry point ------------------------------------------------------

def child_env() -> dict[str, str]:
    """The environment of a fresh child that imports enspin from this checkout's src."""
    src = str(Path(enspin.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_cli_import_leaves_process_pool_unloaded():
    code = "import sys, enspin.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_leaves_numpy_ma_unloaded():
    # numpy.ma costs about 1.7 MiB of RSS on first import (np.unique pulls it in)
    code = ("import io, sys, contextlib, enspin.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = enspin.cli.main(['verify', '--from', '3', '--to', '9', '--no-timings'])\n"
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_module_invocation_round_trips():
    proc = subprocess.run(
        [sys.executable, "-m", "enspin", "closure", "--n", "3", "--format", "text"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "dim 4" in proc.stdout


# -- demos -------------------------------------------------------------------

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
