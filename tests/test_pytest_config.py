"""The pytest configuration in pyproject.toml keeps a session running past a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # reporting a falsifying example imports modules that may warn on import;
    # filterwarnings = ["error"] must not turn that into an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(ROOT), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
