"""Each demo script runs to completion without writing to stderr, prints the
same stdout on every run, and leaves no file behind."""

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
    # the demos' temporary files go under tmp_path, and are removed at exit
    env = dict(os.environ, TMPDIR=str(tmp_path))
    runs = [subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                           env=env, cwd=tmp_path, timeout=120) for _ in range(2)]
    for r in runs:
        assert r.returncode == 0, r.stderr
        assert r.stdout and r.stderr == ""
    assert runs[0].stdout == runs[1].stdout
    assert not list(tmp_path.iterdir())
