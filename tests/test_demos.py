"""Every narrative demo runs to completion against the package under test."""

import os
import pathlib
import subprocess
import sys

import pytest

import whitneyext

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = str(pathlib.Path(whitneyext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS, "no demos/*.py next to tests/"
