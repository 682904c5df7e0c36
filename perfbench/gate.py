"""Correctness gate for one pass of a benchmark workload.

Each check returns a list of problems; an empty list means the pass is
correct.  The expected facts come from outside the program: the README
"Computed facts" table for n <= 12, the ROADMAP's extension of it to
n = 13..15 (types from ``bott.max_compact``), and the committed goldens
``tests/data/verify_n{3,8}.json``, which are only read.
"""

from __future__ import annotations

import json
from pathlib import Path

# n -> (closure dimension, type of the closure).
FACTS: dict[int, tuple[int, str]] = {
    3: (4, "u(2)"),
    4: (10, "sp(2)"),
    5: (20, "sp(2) ⊕ sp(2)"),
    6: (36, "sp(4)"),
    7: (63, "su(8)"),
    8: (120, "so(16)"),
    9: (240, "so(16) ⊕ so(16)"),
    10: (496, "so(32)"),
    11: (1023, "su(32)"),
    12: (2080, "sp(32)"),
    13: (4160, "sp(32) ⊕ sp(32)"),
    14: (8256, "sp(64)"),
    15: (16383, "su(128)"),
}

# At n = 3 the closure is u(2), one dimension above the compact type that
# the period-8 table lists for M(2,C); the `max_compact` field of verify and
# report carries the listed type, as the n = 3 golden pins it.
LISTED_TYPE_N3 = "su(2)"

ALWAYS_PASS = ("relations", "lemma", "identities", "killing", "rank", "classify")

GOLDEN_N = (3, 8)


def listed_type(n: int) -> str:
    return LISTED_TYPE_N3 if n == 3 else FACTS[n][1]


def load_goldens(root: Path) -> dict[int, dict]:
    """The golden verify entries, keyed by n."""
    out = {}
    for n in GOLDEN_N:
        (entry,) = json.loads((root / "tests" / "data" / f"verify_n{n}.json").read_text("utf-8"))
        out[n] = entry
    return out


def _parse(stdout: bytes, problems: list[str]):
    try:
        return json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        problems.append(f"stdout is not JSON: {e}")
        return None


def _covers(rows, ns: range, problems: list[str]) -> bool:
    got = [r.get("n") for r in rows] if isinstance(rows, list) else None
    if got != list(ns):
        problems.append(f"rows for n={got}, expected n={list(ns)}")
        return False
    return True


def check_verify(stdout: bytes, exit_code: int, lo: int, hi: int, goldens: dict[int, dict]) -> list[str]:
    """Gate for ``enspin verify --from lo --to hi --no-timings``."""
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    rows = _parse(stdout, problems)
    if rows is None or not _covers(rows, range(lo, hi + 1), problems):
        return problems
    for r in rows:
        n = r["n"]
        dim, closure_type = FACTS[n]
        if r["closure_dim"] != dim:
            problems.append(f"n={n}: closure_dim {r['closure_dim']} != {dim}")
        if r["max_compact"] != listed_type(n):
            problems.append(f"n={n}: max_compact {r['max_compact']!r} != {listed_type(n)!r}")
        status = {name: c["status"] for name, c in r["checks"].items()}
        want = {name: "pass" for name in ALWAYS_PASS}
        want["split"] = "pass" if n % 4 == 1 else "skipped"
        want["roots"] = "pass" if n <= 8 else "skipped"
        if status != want:
            problems.append(f"n={n}: check statuses {status} != {want}")
        if r["checks"]["classify"]["detail"] != closure_type:
            problems.append(f"n={n}: classified as {r['checks']['classify']['detail']!r}, not {closure_type!r}")
        if r["verdict"] is not True:
            problems.append(f"n={n}: verdict {r['verdict']!r}")
        if n in goldens and r != goldens[n]:
            problems.append(f"n={n}: entry differs from tests/data/verify_n{n}.json")
    return problems


def check_report(stdout: bytes, exit_code: int, to_n: int) -> list[str]:
    """Gate for ``enspin report --to to_n`` (JSON rows for n = 2..to_n)."""
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    rows = _parse(stdout, problems)
    if rows is None or not _covers(rows, range(2, to_n + 1), problems):
        return problems
    for r in rows:
        n = r["n"]
        if n < 3:
            continue
        dim = FACTS[n][0]
        if r["closure_dim"] != dim:
            problems.append(f"n={n}: closure_dim {r['closure_dim']} != {dim}")
        if r["max_compact"] != listed_type(n):
            problems.append(f"n={n}: max_compact {r['max_compact']!r} != {listed_type(n)!r}")
        want_match = None if n == 3 else True
        if r["match"] is not want_match:
            problems.append(f"n={n}: match {r['match']!r} != {want_match!r}")
    return problems
