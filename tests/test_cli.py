"""Command line behaviour, exit codes, and output stability."""

import ast
import concurrent.futures
import csv
import fractions
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import enspin
import enspin.analysis
import enspin.cli
import enspin.report
import enspin.roots
import enspin.table
from enspin import deltas
from enspin.cli import main
from enspin.clifford import Blade
from enspin.deltas import MAX_DELTA_N

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


def test_verify_rejects_bad_range(capsys):
    assert run_cli(capsys, "verify", "--from", "1", "--to", "2")[0] == 2
    assert run_cli(capsys, "verify", "--from", "5", "--to", "4")[0] == 2


def record_work(monkeypatch) -> list:
    """Replace every entry into the pipeline by a recorder and return its calls."""
    calls = []
    # each name is patched where the handler or layer that calls it reads it.
    # The layers that bind a patched name at import are imported at the top of
    # this file: one first imported under a patch would keep the fake for good
    monkeypatch.setattr("enspin.analysis.spin_generators", lambda *a, **k: calls.append(a))
    monkeypatch.setattr("enspin.cli.run_verification", lambda *a, **k: calls.append(a))
    monkeypatch.setattr("enspin.closure.blade_closure", lambda *a, **k: calls.append(a))
    # the spin generators alone are O(n^2) bits, so the refusal must come first
    monkeypatch.setattr("enspin.spinrep.spin_generators", lambda *a, **k: calls.append(a))
    monkeypatch.setattr("enspin.roots.positive_roots", lambda *a, **k: calls.append(a))
    for name in ("delta_closed", "delta_sum", "delta_identities"):
        monkeypatch.setattr(f"enspin.deltas.{name}", lambda *a, **k: calls.append(a))
    return calls


# each int flag's floor, from the command table: a command alone names --n
@pytest.mark.parametrize("command, floor, n", [
    ("closure", 3, 2), ("classify", 3, 2), ("roots", 3, 2), ("delta", 1, 0), ("closure", 3, -1),
    ("verify --from", 3, 2), ("verify --jobs", 1, 0), ("report --to", 2, 1),
])
def test_n_below_its_floor_fails_before_any_work(capsys, monkeypatch, command, floor, n):
    calls = record_work(monkeypatch)
    name, _, flag = command.partition(" ")
    flag = flag or "--n"
    code, out, err = run_cli(capsys, name, flag, str(n))
    assert (code, out) == (2, "")
    assert err == f"error: {name} needs {flag} >= {floor}, got {n}\n"
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("verify", "--from", "3", "--to", "25"),
    ("report", "--to", "25"),
    ("closure", "--n", "25"),
    ("classify", "--n", "25"),
])
def test_over_cap_range_fails_before_any_work(capsys, monkeypatch, argv):
    calls = record_work(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err and out == ""
    assert calls == []


# each usage error with argparse's words for it: the removed flags first,
# then a bad choice, a missing --n, an unknown command, none at all, an
# ambiguous prefix, a flag without its value and a value for --no-timings
USAGE_ERRORS = {
    ("closure", "--n", "3", "--allow-large"): "unrecognized arguments: --allow-large",
    ("classify", "--n", "3", "--allow-large"): "unrecognized arguments: --allow-large",
    ("verify", "--from", "3", "--to", "3", "--allow-large"): "unrecognized arguments: --allow-large",
    ("report", "--to", "3", "--allow-large"): "unrecognized arguments: --allow-large",
    ("classify", "--n", "3", "--seed", "0"): "unrecognized arguments: --seed 0",
    ("verify", "--format", "xml"): "argument --format: invalid choice: 'xml'",
    ("closure",): "the following arguments are required: --n",
    ("bogus", "--n", "3"): "argument command: invalid choice: 'bogus'",
    (): "the following arguments are required: command",
    ("verify", "--f", "csv"): "ambiguous option: --f could match --from, --format",
    ("closure", "--n", "--format", "text"): "argument --n: expected one argument",
    ("verify", "--no-timings=1"): "argument --no-timings: ignored explicit argument '1'",
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS))
def test_removed_flags_exit_two_before_any_work(capsys, monkeypatch, argv):
    calls = record_work(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and USAGE_ERRORS[argv] in err
    assert calls == []


@pytest.mark.parametrize("short, full", [
    (("closure", "--n=8"), ("closure", "--n", "8")),
    (("closure", "--n", "3", "--n=8"), ("closure", "--n", "8")),
    (("verify", "--from", "3", "--to", "3", "--no-t"),
     ("verify", "--from", "3", "--to", "3", "--no-timings")),
])
def test_flag_spellings_print_the_same_bytes(capsys, short, full):
    # --flag=value and a unique prefix of a flag read as the full spelling,
    # and the last repeat of a flag wins
    assert run_cli(capsys, *short) == run_cli(capsys, *full)


def test_help_names_every_command_and_flag(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    for command in ("closure", "delta", "classify", "verify", "roots", "report"):
        assert command in out, command
    code, out, err = run_cli(capsys, "verify", "--help")
    assert (code, err) == (0, "")
    for word in ("--from", "--to", "--format {json,markdown,csv}", "--jobs", "--seed",
                 "--no-timings"):
        assert word in out, word


@pytest.mark.parametrize("command", list(enspin.cli._COMMANDS))
def test_each_command_help_names_its_flags(capsys, command):
    code, out, err = run_cli(capsys, command, "--help")
    assert (code, err) == (0, "")
    flags = enspin.cli._COMMANDS[command].flags
    assert out.startswith(f"usage: enspin {command} ")
    for flag in flags:
        assert f"  {flag}" in out, flag
    if "--n" in flags:  # the one required flag: bare in the usage line, "required" in its row
        assert " --n INT [" in out.splitlines()[0]
        assert re.search(rf"^  --n INT +required, at least {flags['--n'].floor}$", out, re.M)


@pytest.mark.parametrize("argv", [
    ("closure", "--n", "17"),
    ("classify", "--n", "17"),
    ("report", "--to", "17"),
    ("verify", "--from", "17", "--to", "17", "--no-timings"),
])
def test_past_sixteen_needs_no_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out and err == ""


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


# Runs argv under os.wait4 and prints its exit code, the "dim" its stdout
# names (JSON or text) and its peak RSS in MiB.  Linux carries the spawning
# process's peak RSS into the child's ru_maxrss across exec, so the child is
# started from this small python -S process, not from the test process, whose
# own peak would show.
PEAK_RSS = """
import json, os, re, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
out = child.stdout.read()
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
dim = int(re.search(rb'dim"?:? (\\d+)', out)[1])
print(json.dumps([child.returncode, dim, usage.ru_maxrss / 1024]))
"""


def closure_at_twenty(fmt: str) -> float:
    """The peak RSS in MiB of closure --n 20 in fmt, checked for exit 0 and its dim."""
    argv = [sys.executable, "-S", "-m", "enspin", "closure", "--n", "20", "--format", fmt]
    proc = subprocess.run([sys.executable, "-S", "-c", PEAK_RSS, *argv], env=site_free_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, dim, peak_mib = json.loads(proc.stdout)
    assert (code, dim) == (0, deltas.lower_bound_dim(20))
    return peak_mib


# The masks are listed one 2^16-bit tile of the bitset at a time, with no
# tuple of d ints, no list of d hex strings and no json.dumps over either.
# The child read 113 MiB in JSON with all three, 39 MiB with the tuple alone,
# and about 17 MiB in JSON and 19 MiB as text with none.
def test_closure_json_at_twenty_stays_small():
    assert closure_at_twenty("json") <= 32


def test_closure_text_at_twenty_stays_small():
    assert closure_at_twenty("text") <= 32


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


def test_delta_prints_at_its_ceiling(capsys):
    code, out, err = run_cli(capsys, "delta", "--n", str(MAX_DELTA_N))
    assert (code, err) == (0, "")
    blob = json.loads(out)
    assert blob["total"] == 2 ** MAX_DELTA_N
    assert all(blob["identities"].values())


def test_delta_past_its_ceiling_exits_two_before_any_sum(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("summed past the ceiling")

    for name in ("delta_closed", "delta_sum", "delta_identities"):
        monkeypatch.setattr(f"enspin.deltas.{name}", fail)
    code, out, err = run_cli(capsys, "delta", "--n", str(MAX_DELTA_N + 1))
    assert (code, out) == (2, "")
    assert err == f"error: delta needs --n <= {MAX_DELTA_N}, got {MAX_DELTA_N + 1}\n"


def test_delta_failed_identity_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("enspin.deltas.delta_identities", lambda n: {"sum": True, "broken": False})
    code, out, _ = run_cli(capsys, "delta", "--n", "8", "--format", "text")
    assert code == 1
    assert "broken FAIL" in out
    code, out, _ = run_cli(capsys, "delta", "--n", "8")
    assert code == 1
    assert json.loads(out)["identities"]["broken"] is False


def test_delta_sums_each_binomial_once(capsys, monkeypatch):
    # the closed-form check and the identities share the four direct sums
    calls = []

    def counting_comb(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr("enspin.deltas.comb", counting_comb)
    deltas.delta_sum.cache_clear()
    code, _, _ = run_cli(capsys, "delta", "--n", "9")
    deltas.delta_sum.cache_clear()
    assert code == 0
    assert sorted(calls) == [(9, k) for k in range(10)]


def test_delta_closed_form_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("enspin.deltas.delta_sum", lambda k, n: -1)
    code, _, err = run_cli(capsys, "delta", "--n", "8")
    assert code == 1
    assert "disagree" in err


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


CLASSIFY_JSON = {
    3: {
        "n": 3, "dim": 4, "center_dim": 1, "derived_dim": 3, "rank": 2,
        "killing_negative_definite": False, "killing_mode": "exact", "split_dims": None,
        "matched_type": {"family": "u", "param": 2, "summands": 1, "dimension": 4, "rank": 2,
                         "display": "u(2)"},
        "display": "u(2)", "verdict": True, "failures": [],
    },
    5: {
        "n": 5, "dim": 20, "center_dim": 0, "derived_dim": 20, "rank": 4,
        "killing_negative_definite": True, "killing_mode": "exact", "split_dims": [10, 10],
        "matched_type": {"family": "sp", "param": 2, "summands": 2, "dimension": 20, "rank": 4,
                         "display": "sp(2) ⊕ sp(2)"},
        "display": "sp(2) ⊕ sp(2)", "verdict": True, "failures": [],
    },
}


@pytest.mark.parametrize("n", sorted(CLASSIFY_JSON))
def test_classify_json_in_full(capsys, n):
    code, out, err = run_cli(capsys, "classify", "--n", str(n))
    assert (code, err) == (0, "")
    assert out == json.dumps(CLASSIFY_JSON[n], indent=2) + "\n"


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


VERIFY_3_9 = ("verify", "--from", "3", "--to", "9", "--no-timings")
GOLDEN_TABLES = {
    "verify_3_9.md": (*VERIFY_3_9, "--format", "markdown"),
    "verify_3_9.csv": (*VERIFY_3_9, "--format", "csv"),
    "report_9.json": ("report", "--to", "9", "--format", "json"),
    "report_9.md": ("report", "--to", "9", "--format", "markdown"),
    "report_9.csv": ("report", "--to", "9", "--format", "csv"),
}


@pytest.mark.parametrize("golden", list(GOLDEN_TABLES))
def test_tables_match_golden_bytes(capsys, golden):
    code, out, err = run_cli(capsys, *GOLDEN_TABLES[golden])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (DATA / golden).read_bytes()


# the sha256 of each command's stdout, keyed by its argv; "ci" holds the
# runs that the CI facts step makes and hashes: verify 3..24 and closure at
# 22 and at 24, each in both formats
DIGESTS = json.loads((DATA / "digests.json").read_text("utf-8"))


def test_outputs_match_their_digests(capsys):
    changed = []
    for argv, digest in DIGESTS["tier1"].items():
        code, out, err = run_cli(capsys, *argv.split())
        if (code, err) != (0, "") or hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            changed.append(argv)
    assert not changed


# -- module entry point ------------------------------------------------------

SRC = str(Path(enspin.__file__).resolve().parent.parent)


def child_env() -> dict[str, str]:
    """The environment of a fresh child that imports enspin from this checkout's src."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


def run_python(code: str, env: dict[str, str]) -> str:
    """Run code in a fresh interpreter and return its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def entry(argv, env, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m enspin`` on argv in a fresh child."""
    return subprocess.run([sys.executable, "-m", "enspin", *argv], env=env, timeout=120, **kwargs)


def buffered_env() -> dict[str, str]:
    """child_env without PYTHONUNBUFFERED: stdout into a pipe is then block
    buffered, so output the entry fails to flush before os._exit is lost."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_module_invocation_round_trips(capsys):
    # the entry's bytes through a pipe are exactly what main prints
    argv = ["closure", "--n", "14", "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    proc = entry(argv, buffered_env(), capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


def test_entry_keeps_each_exit_code():
    env = buffered_env()
    usage = entry(["closure", "--n", "2"], env, capture_output=True, text=True)
    assert usage.returncode == 2 and "error:" in usage.stderr
    parse = entry(["closure", "--n", "x"], env, capture_output=True, text=True)
    assert parse.returncode == 2 and "invalid int value" in parse.stderr
    failing = ("import sys, enspin.cli, enspin.__main__\n"
               "enspin.cli.cmd_roots = lambda args: 1\n"
               "sys.argv = ['enspin', 'roots', '--n', '8']\n"
               "enspin.__main__.run()\n")
    proc = subprocess.run([sys.executable, "-c", failing], env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize(
    ("module", "unbuffered"),
    [("enspin", False), ("enspin", True), ("enspin.cli", False), ("enspin.cli", True)],
    ids=["buffered", "unbuffered", "cli-buffered", "cli-unbuffered"])
def test_closed_pipe_ends_quietly(module, unbuffered):
    # as `enspin closure --n 14 --format text | head -1`: the output, about
    # 300 KB, is more than a pipe holds, so a write fails once the reader is gone.
    # `python -m enspin.cli` must end through the same entry
    env = buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", module, "closure", "--n", "14", "--format", "text"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"n 14\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


def test_closed_pipe_at_the_last_flush_ends_quietly():
    # the reader is gone before the child starts, and the output fits in
    # stdout's buffer: the write fails only at the entry's own flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = entry(["closure", "--n", "3", "--format", "text"], buffered_env(),
                     stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_jobs_leave_no_process_behind():
    # in a session of its own, the child's process group must empty once the
    # child is reaped: a worker left running outlives the entry's os._exit.
    # Under forkserver (the Linux default from Python 3.14) the server and the
    # resource tracker leave only on reading end of file from the reaped
    # child's pipes, so the group gets a few seconds to empty
    argv = [sys.executable, "-m", "enspin", "verify", "--from", "3", "--to", "9", "--jobs", "2",
            "--no-timings"]
    with subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL,
                          start_new_session=True) as proc:
        assert proc.wait(timeout=120) == 0
    deadline = time.monotonic() + 5
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a process of the run outlived it by 5 s"
        time.sleep(0.05)


# -- start-up ----------------------------------------------------------------

def test_lazy_names_resolve_to_their_submodules():
    code = ("import importlib, enspin\n"
            "for name in enspin.__all__:\n"
            "    module = importlib.import_module('enspin.' + enspin._MODULE_OF[name])\n"
            "    assert getattr(enspin, name) is getattr(module, name), name\n"
            "assert set(enspin.__all__) <= set(dir(enspin))\n"
            "try:\n"
            "    enspin.no_such_name\n"
            "except AttributeError:\n"
            "    print('ok')\n")
    assert run_python(code, child_env()) == "ok"


def test_exports_are_defined_where_listed():
    # a re-export alias would name a callable defined in another module
    strays = []
    for module, names in enspin._EXPORTS.items():
        mod = importlib.import_module(f"enspin.{module}")
        strays += [(module, name) for name in names
                   if callable(obj := getattr(mod, name)) and obj.__module__ != mod.__name__]
    assert not strays


ORACLES = {
    "oracles": ("StructureConstants", "structure_constants", "center_dim", "derived_dim",
                "killing_form", "rank_estimate"),
    "linalg": ("DEFAULT_PRIMES", "EchelonBasis", "is_negative_definite",
               "kernel_dimension", "kernel_dimension_mod_p"),
}


def test_oracles_import_from_their_modules_only():
    for module, names in ORACLES.items():
        mod = importlib.import_module(f"enspin.{module}")
        for name in names:
            assert name not in enspin.__all__, name
            assert hasattr(mod, name), (module, name)


def test_importing_main_does_not_run_the_cli():
    assert run_python("import enspin.__main__; print('imported')", child_env()) == "imported"


START_AS_MODULE = """
import contextlib, io, json, os, runpy, sys
environ = dict(os.environ)
argv = json.loads(sys.argv[1])
code = None
fast_exits = []
real_exit, pid = os._exit, os.getpid()


def fast_exit(status):
    # the entry ends through os._exit; here it raises instead, so the
    # probe outlives it.  A forked --jobs worker leaves for real.
    if os.getpid() != pid:
        real_exit(status)
    fast_exits.append(status)
    raise SystemExit(status)


os._exit = fast_exit
if argv is None:
    import enspin.cli
else:
    sys.argv = ["enspin", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("enspin", run_name="__main__", alter_sys=True)
        except SystemExit as e:
            code = e.code
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([code, sorted(sys.modules), dict(os.environ) == environ, threads,
                  fast_exits == [code]]))
"""


def start_as_module(argv, env, *flags):
    """Run the enspin entry on argv (or only import enspin.cli for None) in a fresh child.

    flags go to the interpreter.  Returns the exit code, the names in
    sys.modules at the end, whether the environment came out unchanged,
    the thread count (None without /proc/self/task), and whether the
    entry ended through os._exit with that code.
    """
    proc = subprocess.run([sys.executable, *flags, "-c", START_AS_MODULE, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# the test oracles, the multivector engine and the Fraction arithmetic they
# need: no command uses them, so no command start may load them
ORACLE_MODULES = {"enspin.linalg", "enspin.oracles", "enspin.multivector", "fractions", "decimal"}

NUMPY_FREE = {
    "closure": ["closure", "--n", "6"],
    "delta": ["delta", "--n", "7"],
    "classify": ["classify", "--n", "5"],
    "verify": ["verify", "--from", "3", "--to", "9", "--no-timings"],
    "roots": ["roots", "--n", "8"],
    "report": ["report", "--to", "9"],
    "verify-jobs-2": ["verify", "--from", "3", "--to", "9", "--jobs", "2"],
    "verify-10-12": ["verify", "--from", "10", "--to", "12", "--no-timings"],
    "help": ["--help"],
    "import-cli": None,
}
# the layers a command never calls, so its start must not load them
LAYERS_NOT_RUN = {
    # the closure alone needs clifford and the generators; the lemma alone reads deltas
    "closure": {"enspin.deltas", "enspin.bott", "enspin.analysis", "enspin.report",
                "enspin.roots", "enspin.table"},
    "classify": {"enspin.deltas", "enspin.report", "enspin.roots", "enspin.table"},
    # the algebra table is enspin.table's, and the lemma alone reads deltas
    "report": {"enspin.report", "enspin.analysis", "enspin.roots", "enspin.deltas"},
    "verify": {"enspin.table"},  # the Markdown and CSV writers alone are table's
    # q lives in clifford, so the pairings need no closure
    "roots": {"enspin.closure", "enspin.analysis", "enspin.report"},
    "verify-10-12": {"enspin.roots"},  # the roots check runs for n <= 8 alone
}
# the starts whose enspin modules are exactly these: help and a bare import
# load no layer, and delta loads deltas alone (the entry itself runs as __main__)
ENSPIN_LOADED = {
    "help": {"enspin", "enspin.cli"},
    "import-cli": {"enspin", "enspin.cli"},
    "delta": {"enspin", "enspin.cli", "enspin.deltas"},
}


def enspin_modules(loaded: list[str]) -> set[str]:
    return {m for m in loaded if m.partition(".")[0] == "enspin"}


@pytest.mark.parametrize("name", list(NUMPY_FREE))
def test_cli_never_imports_numpy(name):
    # One child per case.  numpy is needed by the test oracles only: the CLI
    # runs on Python ints, so no OpenBLAS thread spin-waits beside the main
    # one.  The records are named tuples: dataclasses would import inspect,
    # ast, dis and tokenize at each start.  The entry sets no environment
    # variable of its own, so a user's OPENBLAS_NUM_THREADS reaches --jobs
    # workers as given, and only --jobs loads the process pool.  The command
    # table is read without argparse, whose gettext lookups import locale.
    argv = NUMPY_FREE[name]
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if name == "closure":  # the one child that starts with a thread count of its own
        env["OPENBLAS_NUM_THREADS"] = "2"
    code, loaded, environ_unchanged, threads, fast_exit = start_as_module(argv, env)
    assert (code, environ_unchanged, fast_exit) == (0 if argv else None, True, bool(argv))
    unwanted = {"numpy", "dataclasses", "inspect", "argparse", "gettext", *ORACLE_MODULES}
    if "--jobs" not in (argv or ()):
        # the pool's multiprocessing imports subprocess, and subprocess locale
        unwanted |= {"concurrent.futures.process", "locale"}
        assert threads in (None, 1)  # None: no /proc/self/task to count threads
    if name == "verify":
        unwanted.add("csv")  # a JSON run writes no CSV
    assert unwanted.isdisjoint(loaded)
    assert LAYERS_NOT_RUN.get(name, set()).isdisjoint(loaded)
    if name in ENSPIN_LOADED:
        assert enspin_modules(loaded) == ENSPIN_LOADED[name]


def test_usage_error_loads_no_layer():
    # the parser rejects the flag value before any handler reads a layer
    code, loaded, _, _, fast_exit = start_as_module(["closure", "--n", "x"], child_env())
    assert (code, fast_exit) == (2, True)
    assert enspin_modules(loaded) == {"enspin", "enspin.cli"}


def test_a_rebound_name_is_what_runs():
    # each name the benchmark tracer binds on enspin.cli, and report's
    # positive_roots, rebound before the layer it comes from is loaded: the
    # CLI and run_verification read these names through their own module, so
    # each rebound function is what runs, and a handler reads every one
    code = ("import sys, types, enspin.cli as cli\n"
            "assert 'enspin.table' not in sys.modules\n"
            "cli.algebra_table = lambda to_n: [to_n]\n"
            "cli.table_to_json = lambda rows: f'table {rows}\\n'\n"
            "assert cli.main(['report', '--to', '3']) == 0\n"
            "assert 'enspin.report' not in sys.modules\n"
            "cli.run_verification = lambda n: types.SimpleNamespace(n=-n, verdict=True)\n"
            "cli.reports_to_json = lambda reports: f'verify {[r.n for r in reports]}\\n'\n"
            "assert cli.main(['verify', '--from', '3', '--to', '4']) == 0\n"
            "import enspin.report\n"
            "assert 'enspin.roots' not in sys.modules\n"
            "enspin.report.positive_roots = lambda n: types.SimpleNamespace(count=0)\n"
            "print(enspin.report.run_verification(5).checks['roots'].status)\n")
    assert run_python(code, child_env()).splitlines() == ["table [3]", "verify [-3, -4]", "fail"]


def site_free_env() -> dict[str, str]:
    """The environment of a python -S child: it sees the standard library and src alone."""
    return {**os.environ, "PYTHONPATH": SRC}


def test_cli_needs_only_the_standard_library():
    # every command and the parser run without site-packages, and the
    # worker pool prints the golden bytes that one process prints
    env = site_free_env()

    def start(argv):
        return subprocess.run([sys.executable, "-S", "-m", "enspin", *argv],
                              env=env, capture_output=True, timeout=120)

    def run(argv):
        proc = start(argv)
        assert (proc.returncode, proc.stderr) == (0, b""), argv
        return proc.stdout

    parse = start(["closure", "--n", "x"])
    assert parse.returncode == 2 and b"invalid int value" in parse.stderr
    # the lazy layer imports among them: verify past 8 loads no roots, and
    # report neither the verify pipeline nor analysis nor deltas
    for argv in (["--help"], ["closure", "--n", "9", "--format", "text"], ["classify", "--n", "9"],
                 ["roots", "--n", "8"], ["delta", "--n", "11"], ["verify", "--from", "10", "--to", "10"],
                 ["report", "--to", "9", "--format", "markdown"]):
        assert run(argv), argv
    for golden, extra in (("verify_3_9.md", ()), ("verify_3_9.md", ("--jobs", "2")),
                          ("report_9.json", ())):
        assert run([*GOLDEN_TABLES[golden], *extra]) == (DATA / golden).read_bytes(), (golden, extra)


@pytest.mark.parametrize(
    "module", ["closure", "clifford", "spinrep", "analysis", "report", "table", "cli"])
def test_closure_imports_no_oracle_module(module):
    # the verifier's modules hold no oracle: the mask kernels need neither
    # linalg nor Fraction, and blades need no multivector
    code = f"import sys, enspin.{module}; print(sorted(set(sys.modules) & {ORACLE_MODULES!r}))"
    assert run_python(code, child_env()) == "[]"


def test_verify_and_delta_make_no_fraction(capsys, monkeypatch):
    # Fraction arithmetic is left to the test oracles: every count here is an int.
    # Nor is a Blade made: the checks read the generator masks by the rules of
    # enspin.clifford, and only closure --format text prints blades
    def refuse(kind):
        def new(*args, **kwargs):
            raise RuntimeError(f"a {kind} was made")
        return new

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse("Fraction"))
    monkeypatch.setattr(Blade, "__new__", refuse("Blade"))
    assert run_cli(capsys, "verify", "--from", "3", "--to", "12", "--no-timings")[0] == 0
    assert run_cli(capsys, "classify", "--n", "9")[0] == 0
    assert run_cli(capsys, "report", "--to", "12")[0] == 0
    assert run_cli(capsys, "delta", "--n", "2048")[0] == 0


def test_verify_without_site_packages_leaves_random_unloaded():
    # only the rank oracle draws random numbers, and it imports random when
    # called; under -S no .pth start-up file has imported random, fractions
    # or decimal already
    code, loaded, _, _, fast_exit = start_as_module(NUMPY_FREE["verify"], site_free_env(), "-S")
    assert (code, fast_exit) == (0, True)
    assert {"random", *ORACLE_MODULES}.isdisjoint(loaded)


# -- benchmark tracer --------------------------------------------------------

ROOT = Path(__file__).parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_bindings_resolve():
    """Every function the benchmark tracer rebinds still exists where it looks."""
    missing = [(module, attr) for module, attr, _ in load_tracer().BINDINGS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def top_level_names(path: Path) -> set[str]:
    """The names a module binds itself: its defs, classes, imports and assignments."""
    names = set()
    for node in ast.parse(path.read_text("utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", ["analysis", "spinrep", "report", "cli"])
def test_forwarded_names_are_exactly_what_frozen_files_reach(module):
    # the gate and the tracer are frozen, so each forwarding table holds the
    # names they reach through the module and nothing more: it is no second API
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text("utf-8"))
    reached = {alias.name for node in ast.walk(gate)
               if isinstance(node, ast.ImportFrom) and node.module == f"enspin.{module}"
               for alias in node.names}
    reached |= {attr for name, attr, _ in load_tracer().BINDINGS if name == f"enspin.{module}"}
    mod = importlib.import_module(f"enspin.{module}")
    assert set(mod._FORWARDED) == reached - top_level_names(Path(mod.__file__))
    for name, source in mod._FORWARDED.items():
        assert getattr(mod, name) is getattr(importlib.import_module(f"enspin.{source}"), name)


# -- demos -------------------------------------------------------------------

DEMO_DIR = ROOT / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def demo_stdout(demo: Path) -> str:
    # without site-packages: a demo needs only the standard library and src
    proc = subprocess.run([sys.executable, "-S", str(demo)], env=site_free_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    assert demo_stdout(demo).strip()


def test_blade_arithmetic_prints_its_products_and_brackets():
    lines = demo_stdout(DEMO_DIR / "blade_arithmetic.py").splitlines()
    for line in ("(v1v2) (v2v3) = v1v3",
                 "(v1v2) (v1v2) = -1",
                 "(v1v3) (v1v2v3) = v2",
                 "xy = v1v3",
                 "yx = -v1v3   (shared index, both grade 2: they anticommute)",
                 "[v1v2, v2v3] = 2v1v3",
                 "[v1v2, v3v4] = 0   (disjoint even blades commute)"):
        assert line in lines, line


def test_classification_tour_rows_end_in_a_verdict():
    table = demo_stdout(DEMO_DIR / "classification_tour.py").split("\n\n")[0].splitlines()
    assert len(table) == 7
    for row in table[1:]:
        assert row.split()[-1] == "pass", row


def test_subset_counts_header_lines_up_with_rows():
    lines = demo_stdout(DEMO_DIR / "subset_counts.py").splitlines()
    row = next(line for line in lines if line.startswith("16 "))

    def starts(line):
        return [i for i, ch in enumerate(line) if ch != " " and (i == 0 or line[i - 1] == " ")]

    assert starts(lines[0]) == starts(row)
