"""The project's pytest settings report a failing property test as one
failure and let the rest of the run go on."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

_PAIR = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # with every warning an error, hypothesis writing the failing example's
    # patch used to stop pytest with INTERNALERROR before the next test ran
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(TESTS / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_pair.py").write_text(_PAIR, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
