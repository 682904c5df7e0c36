"""Outside-in benchmark of ``enspin verify`` and ``enspin report``.

    python3 perfbench/run.py --workload verify-3-9 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from any directory; it benchmarks the checkout it sits in, importing
enspin from that checkout's ``src/``.  Every pass is the real CLI in a
fresh child process, started only after the previous one has exited
(closed loop, one client, ``--jobs 1``), while the next pass is expected
to end within ``--seconds`` seconds.  Wall time is taken from spawn to
exit, CPU time and peak RSS from ``os.wait4`` on that child alone.
Every pass goes through the correctness gate (gate.py) and must print the
same bytes as the run's first pass.

``--trace 1`` adds one traced pass (tracer.py): the same argv in one child
that calls ``enspin.cli.main`` with spans around each layer, and reports
the per-layer metrics instead of the end-to-end ones.

The last line of stdout is the JSON result; the lines before it name every
metric with its unit.  Run records and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import gate
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# Every child is killed this long after the run starts, so that a hung
# pass cannot keep the benchmark past its time limit.
RUN_DEADLINE_S = 170.0

BLAS_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

META_CODE = r"""
import json, os, platform
import numpy
import enspin.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
try:
    threads = len(os.listdir("/proc/self/task"))
except OSError:
    threads = None
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "threads_after_numpy_import": threads,
    "enspin_file": enspin.cli.__file__,
}))
"""


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    seeded: bool  # whether the CLI takes --seed
    check: Callable[[bytes, int, dict], list[str]]


def _verify(lo: int, hi: int) -> Workload:
    argv = ("verify", "--from", str(lo), "--to", str(hi), "--no-timings", "--jobs", "1")
    return Workload(argv, True, lambda out, code, goldens: gate.check_verify(out, code, lo, hi, goldens))


def _report(to_n: int) -> Workload:
    return Workload(("report", "--to", str(to_n)), False,
                    lambda out, code, goldens: gate.check_report(out, code, to_n))


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "verify-3-9": _verify(3, 9),
    "verify-10-12": _verify(10, 12),
    "report-15": _report(15),
}
# Tiny ranges for --self-check only.
SELF_CHECK_WORKLOADS: dict[str, Workload] = {
    "verify-3-5": _verify(3, 5),
    "report-6": _report(6),
}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    sha256: str
    traced: bool
    problems: list[str] = field(default_factory=list)


def run_child(cmd: list[str], env: dict, deadline: float) -> Child:
    """Run one child to exit; its CPU time and peak RSS come from wait4 on it alone."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        err: list[bytes] = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, out, err[0])


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_metadata(env: dict, seed: int, deadline: float) -> dict:
    """Machine and library facts; the child also warms the bytecode cache."""
    child = run_child([sys.executable, "-c", META_CODE], env, deadline)
    try:
        probe = json.loads(child.stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        probe = {"error": child.stderr.decode("utf-8", "replace")[-2000:]}
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "seed": seed,
        **probe,
    }


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as (percent, value)."""
    n = len(samples)
    if n < 21:  # below that it is the median or lower
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_workload(name: str, wl: Workload, *, seed: int, seconds: int, trace: bool,
                 goldens: dict) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    env = child_env()
    meta = run_metadata(env, seed, deadline)

    setup = [run_child([sys.executable, "-c", "import enspin.cli"], env, deadline).wall_s
             for _ in range(SETUP_REPEATS)]

    cli_argv = list(wl.argv) + (["--seed", str(seed)] if wl.seeded else [])
    passes: list[Pass] = []
    reference: str | None = None

    def record(child: Child, traced: bool) -> None:
        nonlocal reference
        sha = hashlib.sha256(child.stdout).hexdigest()
        reference = reference or sha
        try:
            problems = wl.check(child.stdout, child.exit_code, goldens)
        except (KeyError, TypeError, AttributeError) as e:
            problems = [f"output is not shaped as the gate expects: {e!r}"]
        if sha != reference:
            problems.append(f"stdout sha256 {sha} differs from the first pass's {reference}")
        if problems and child.stderr:
            problems.append("stderr: " + child.stderr.decode("utf-8", "replace")[-1000:])
        passes.append(Pass(child.wall_s, child.cpu_s, child.peak_rss_mb, child.exit_code,
                           sha, traced, problems))

    # A pass starts only if, at the median pass time so far, it ends within
    # --seconds; the first pass always runs.
    measure_start = time.perf_counter()
    while not passes or (time.perf_counter() - measure_start
                         + statistics.median(p.wall_s for p in passes) <= seconds):
        record(run_child([sys.executable, "-m", "enspin", *cli_argv], env, deadline), False)
    untraced = list(passes)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    e2e = {
        "wall_s": (statistics.median(p.wall_s for p in untraced), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in untraced), "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in untraced), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    span_names: set[str] = set()
    if trace:
        spans_path = OUT_DIR / f"{name}-seed{seed}.spans.json"
        spans_path.unlink(missing_ok=True)
        cmd =[sys.executable, str(Path(tracer.__file__)), str(spans_path), str(len(passes)), "--",
               *cli_argv]
        child = run_child(cmd, env, deadline)
        record(child, True)
        if spans_path.exists() and child.exit_code == 0:
            spans = tracer.load_spans(spans_path)
            span_names = {s["name"] for s in spans}
            metrics = tracer.layer_metrics(spans)
        else:
            metrics = {}
        metrics["trace.overhead_s"] = (child.wall_s - e2e["wall_s"][0], "s")
    else:
        metrics = e2e

    failed = sum(1 for p in passes if p.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    run = {
        "workload": name,
        "cli_argv": cli_argv,
        "seconds": seconds,
        "trace": trace,
        "meta": meta,
        "setup_s_samples": setup,
        "passes": [asdict(p) for p in passes],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "fail_ratio": failed / len(passes),
        "result": result,
        "elapsed_s": time.perf_counter() - start,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(run, indent=2), "utf-8")
    run["span_names"] = span_names
    return run


def describe(run: dict) -> list[str]:
    """Human-readable lines: metadata, each pass, then every metric with its unit."""
    lines = [
        f"# workload {run['workload']}: enspin {' '.join(run['cli_argv'])}",
        f"# meta {json.dumps(run['meta'], sort_keys=True)}",
    ]
    for i, p in enumerate(run["passes"], 1):
        status = "ok" if not p["problems"] else "FAIL " + "; ".join(p["problems"])
        kind = " traced" if p["traced"] else ""
        lines.append(f"# pass {i}{kind}: wall {p['wall_s']:.4f} s  cpu {p['cpu_s']:.4f} s  "
                     f"rss {p['peak_rss_mb']:.2f} MiB  exit {p['exit_code']}  "
                     f"sha256 {p['sha256'][:16]}  {status}")
    walls = [p["wall_s"] for p in run["passes"] if not p["traced"]]
    tail = tail_percentile(walls)
    tail_note = (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail
                 else "too few passes for a tail percentile with ten samples beyond it")
    e2e = run["end_to_end"]
    notes = {
        "wall_s": f"median of {len(walls)} passes; {tail_note}",
        "cpu_s": "median user+sys of the child",
        "peak_rss_mb": "largest peak RSS among the children",
        "setup_s": f"median of {SETUP_REPEATS} fresh 'import enspin.cli'",
    }
    for k, m in e2e.items():
        lines.append(f"{k:<34} {m['value']:>14.4f} {m['unit']:<6} {notes[k]}")
    res = run["result"]
    lines.append(f"{'fail_ratio':<34} {run['fail_ratio']:>14.4f} {'ratio':<6} "
                 f"{res['failed']} failed / {res['attempted']} attempted")
    if run["trace"]:
        for k, m in res["metrics"].items():
            lines.append(f"{k:<34} {m['value']:>14.4f} {m['unit']}")
    return lines


def layout_problem() -> str | None:
    for rel in ("src/enspin/cli.py", "src/enspin/__main__.py",
                *(f"tests/data/verify_n{n}.json" for n in gate.GOLDEN_N)):
        if not (ROOT / rel).is_file():
            return f"{rel} is missing under {ROOT}; the benchmark measures the enspin sources there"
    return None


def self_check(goldens: dict) -> list[str]:
    """Run the tiny workloads both ways; every named metric must appear with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    problems: list[str] = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    seen_spans: set[str] = set()
    for name, wl in SELF_CHECK_WORKLOADS.items():
        for trace in (False, True):
            run = run_workload(name, wl, seed=0, seconds=1, trace=trace, goldens=goldens)
            res = run["result"]
            seen_spans |= run["span_names"]
            where = f"{name} trace={int(trace)}"
            if not res["correct"]:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} passes failed")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {got} != BENCHMARK.json {wanted[trace]}")
            if not trace and not all(m["value"] > 0 for m in res["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
            if name == "verify-3-5" and trace and not res["metrics"]["analysis.split.pairs"]["value"]:
                problems.append(f"{where}: no split pairs traced at n=5")
    missing = {span for _, _, span in tracer.BINDINGS} - seen_spans
    if missing:
        problems.append(f"spans never recorded: {sorted(missing)}")
    good = json.dumps([goldens[3]]).encode("utf-8")
    if gate.check_verify(good, 0, 3, 3, goldens):
        problems.append("gate rejects the n=3 golden")
    if not gate.check_verify(good.replace(b'"closure_dim": 4', b'"closure_dim": 5'), 0, 3, 3, goldens):
        problems.append("gate accepts a wrong closure_dim")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run tiny ranges and check every named metric is emitted")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    problem = layout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    goldens = gate.load_goldens(ROOT)

    if args.self_check:
        problems = self_check(goldens)
        for p in problems:
            print(f"self-check: {p}")
        print("self-check " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = run_workload(name, WORKLOADS[name], seed=args.seed, seconds=args.seconds,
                           trace=bool(args.trace), goldens=goldens)
        print("\n".join(describe(run)), flush=True)
        results[name] = run["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
