"""Every numbered demo runs to completion against the current package, so an
API change cannot break one unseen."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tweezersim

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9]*.py"))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(tweezersim.__file__)))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # a demo may write into its working directory (demo 03 writes
    # demo_output/), so each runs in its own empty one; the subprocess does
    # not inherit pytest's filterwarnings, so every warning is made an error
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
