"""Each demo under ``demos/`` runs to the end: exit code 0 and nothing on
stderr.  The demos import the package's public names, so a name that moves
without its export breaks one here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cartanlab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cartanlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
