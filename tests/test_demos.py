"""Each demo script runs to completion without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    # the demos' temporary files go under tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       env=env, cwd=tmp_path, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout and r.stderr == ""
