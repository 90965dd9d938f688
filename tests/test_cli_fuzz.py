"""Parser fuzz: a document with one or two JSON nodes replaced, deleted or
duplicated ends ``validate`` and ``section`` in a verdict or an input
error, never in a traceback."""

import contextlib
import copy
import io
import json
import random
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab.cli import ExtensionDocument, build_extension, main
from cartanlab.extension import point_coboundary_table
from cartanlab.generators import emit, generate

# Replacement values: every JSON type, with the integers a field would reject.
POOL = (
    None, True, False, 0.5, -2.5, 1e308, 0, 1, -1, -(2**63), 2**63, 10**30,
    "", "0", "s000", "one", [], [0], [[]], {}, {"0": 0}, {"name": "x", "map": {}},
)


def _twisted_eqrel_text():
    """eqrel(0,1|2,3) with k = 2, twisted by a point coboundary."""
    doc = generate("eqrel", "0,1|2,3")
    S, _, names = build_extension(doc)
    inv = {v: n for n, v in names.items()}
    rng = random.Random(3)
    table = point_coboundary_table(S, 2, {p: rng.randrange(2) for p in S.points if p[0] != p[1]})
    cocycle = [(inv[s], inv[t], list(arr)) for (s, t), arr in table.entries.items()]
    return emit(ExtensionDocument(doc.atoms, 2, doc.elements, cocycle, doc.metadata))


SEEDS = {
    "rook2": (resources.files("cartanlab") / "data" / "rook2.json").read_text(),
    "eqrel_01_23_k2_twisted": _twisted_eqrel_text(),
}


def _paths(node, path=()):
    """The path of every node below node, parents before their children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(raw, path, op, value):
    """Replace the node at path by value, delete it, or duplicate it: a list
    item is inserted again beside itself, an object member is copied to the
    key with "0" appended (so map key "1" gains a twin "10")."""
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = copy.deepcopy(value)
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key + "0"] = copy.deepcopy(parent[key])


@settings(max_examples=60, deadline=None)
@given(seed=st.sampled_from(sorted(SEEDS)), data=st.data())
def test_mutated_documents_end_in_a_verdict_or_an_input_error(tmp_path_factory, seed, data):
    raw = json.loads(SEEDS[seed])
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        path = data.draw(st.sampled_from(list(_paths(raw))), label="path")
        op = data.draw(st.sampled_from(("replace", "delete", "duplicate")), label="op")
        value = data.draw(st.sampled_from(POOL), label="value") if op == "replace" else None
        _mutate(raw, path, op, value)
    target = tmp_path_factory.mktemp("fuzz") / "doc.json"
    target.write_text(json.dumps(raw))
    for command in ("validate", "section"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(target)])
        assert code in (0, 1, 2), (command, code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("input error"), err.getvalue()


def test_atom_count_is_bounded(tmp_path, capsys):
    """A map's graph has atoms² bits and the cocycle check a table of
    atoms³ phases, so a huge count is refused before either is built."""
    for atoms in (65, 2**64, 10**30):
        raw = json.loads(SEEDS["rook2"])
        raw["atoms"] = atoms
        target = tmp_path / "doc.json"
        target.write_text(json.dumps(raw))
        assert main(["validate", str(target)]) == 2
        assert f"input error: 'atoms' must be at most 64, got {atoms}" in capsys.readouterr().err


def test_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "doc.json"
    target.write_text(SEEDS["rook2"].replace('"k": 1', '"k": ' + "7" * 5000))
    assert main(["section", str(target)]) == 2
    assert capsys.readouterr().err.startswith("input error: invalid JSON: Exceeds the limit")
