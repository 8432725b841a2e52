"""The narrative scripts in demos/ run against the public API and exit 0."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_collected():
    assert [demo.name for demo in DEMOS] == [
        "collision_monte_carlo.py",
        "key_lifecycle.py",
        "plan_rotation_interval.py",
        "rotation_gain_sweep.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo: Path, tmp_path: Path):
    # a demo's temporary files land in an empty TMPDIR and must be gone when it exits
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert list(tmpdir.iterdir()) == []
    if demo.name == "rotation_gain_sweep.py":
        assert "at k=64: log2 k 6.000000000000 < gain 11.995203854953 < 2 log2 k 12.000000000000" in done.stdout
