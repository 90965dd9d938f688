"""Checks on the package source itself."""

import ast
from pathlib import Path

import cartanlab

SRC = Path(cartanlab.__file__).parent


def test_no_assert_statements_in_package():
    """Invariant checks must raise named exceptions: an ``assert`` would
    vanish under ``python -O``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SRC.name == "cartanlab" and len(list(SRC.rglob("*.py"))) >= 10
    assert found == []
