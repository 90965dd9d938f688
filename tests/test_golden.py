"""Every command of the golden ladder prints what it printed when the files
under ``tests/golden`` were captured (``tests/golden/capture.py``): the
same exit code, the same stderr, and the same stdout apart from the lines
that hold a ``max_deviation``, whose last digits follow the host's BLAS."""

import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from cartanlab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
RUNS = json.loads((GOLDEN / "commands.json").read_text())


def _kept(text: str) -> list:
    return [line for line in text.splitlines() if "max_deviation" not in line]


@pytest.mark.parametrize("run", RUNS, ids=[r["name"] for r in RUNS])
def test_golden_stdout(run):
    docs = GOLDEN / "docs"
    argv = [str(docs / f"{a}.json") if (docs / f"{a}.json").exists() else a for a in run["argv"]]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == run["exit"]
    assert err.getvalue().replace(str(docs), "docs") == run["stderr"]
    assert _kept(out.getvalue()) == _kept((GOLDEN / f"{run['name']}.out").read_text())
