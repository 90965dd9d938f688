"""Write the golden ladder: input documents under ``docs/`` and the stdout
of every command on them, with its exit code, under this directory.

Run it as ``PYTHONPATH=src python tests/golden/capture.py`` at the commit
whose output is to be pinned; ``tests/test_golden.py`` compares the current
stdout with these files, leaving out the ``max_deviation`` lines, whose
last digits follow the floating-point rounding of the host's BLAS.

The twisted documents are point coboundaries of a seeded phase function on
the relation's off-diagonal points (``point_coboundary_table``); the twin
of a twisted document is its conjugate by an atom permutation, twisted by
another seeded function; the tampered copy has one entry at a pair of
non-idempotents with two or more phases bumped by 1.

The blocks documents are rook2 acting on the blocks {0, 1} and {2, 3}
(atom a becomes the block 2a, 2a + 1), a closed monoid without its
one-point maps, once untwisted and once twisted by a point coboundary mod
2: the coboundary, the section and equivalence need no one-point map, and
the lambda matrices and spectral sets of the numeric commands do.

The failure paths: a document that holds all nine one-point maps on three
atoms and the map 0 -> 1, 1 -> 2 but not its inverse, so it is not closed;
one that holds only the maps 0 -> 1 and 1 -> 2, which miss both an inverse
and a product; a malformed document, whose "atoms" is true; and two size
guards.  Three closed monoids each fail an axiom: the transposition (0 1)
on three atoms misses the meet of itself and 1, so it fails (b), is not
fundamental and has no section check; rook2 without its transposition
misses the join of 0 -> 1 and 1 -> 0, so it fails (c) and (d) and has no
spectral sets; and the three one-point idempotents on three atoms fail (a).
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from cartanlab.cli import ExtensionDocument, build_extension, main
from cartanlab.extension import point_coboundary_table
from cartanlab.generators import emit, generate
from cartanlab.semigroup_core import conjugate

HERE = pathlib.Path(__file__).resolve().parent
DOCS = HERE / "docs"
COMMANDS = ("validate", "section", "represent", "oracle", "spectral", "msd", "mtr")


def _maps(doc: ExtensionDocument, perm=None):
    S, _, names = build_extension(doc)
    inv = {v: n for n, v in names.items()}
    out = []
    for s in S:
        t = s if perm is None else conjugate(s, perm)
        out.append((inv[s], {y: x for x, y in t.pairs()}))
    return out


def _twisted(doc: ExtensionDocument, k: int, seed: int) -> ExtensionDocument:
    S, _, names = build_extension(doc)
    inv = {v: n for n, v in names.items()}
    rng = random.Random(seed)
    b = {p: rng.randrange(k) for p in S.points if p[0] != p[1]}
    table = point_coboundary_table(S, k, b)
    cocycle = [(inv[s], inv[t], list(arr)) for (s, t), arr in table.entries.items()]
    meta = dict(doc.metadata, twisted=f"point coboundary mod {k}, seed {seed}")
    return ExtensionDocument(doc.atoms, k, _maps(doc), cocycle, meta)


def _relabeled(doc: ExtensionDocument, perm) -> ExtensionDocument:
    elements = [(f"r{i:03d}", m) for i, (_, m) in enumerate(_maps(doc, perm))]
    return ExtensionDocument(doc.atoms, doc.k, elements, None, dict(doc.metadata, relabeled=list(perm)))


def _tampered(doc: ExtensionDocument, seed: int) -> ExtensionDocument:
    by_name = dict(doc.elements)
    moving = lambda name: any(a != b for a, b in by_name[name].items())
    cands = [i for i, (s, t, p) in enumerate(doc.cocycle) if len(p) >= 2 and moving(s) and moving(t)]
    rng = random.Random(seed)
    i = rng.choice(cands)
    s, t, phase = doc.cocycle[i]
    phase = list(phase)
    at = rng.randrange(len(phase))
    phase[at] = (phase[at] + 1) % doc.k
    cocycle = list(doc.cocycle)
    cocycle[i] = (s, t, phase)
    return ExtensionDocument(doc.atoms, doc.k, doc.elements, cocycle, dict(doc.metadata, tampered=[s, t, at]))


def _blocks(doc: ExtensionDocument, m: int) -> ExtensionDocument:
    elements = [
        (name, {y * m + i: x * m + i for y, x in mapping.items() for i in range(m)}) for name, mapping in doc.elements
    ]
    return ExtensionDocument(doc.atoms * m, doc.k, elements, None, dict(doc.metadata, blocks=m))


def _not_closed() -> ExtensionDocument:
    points = [(f"p{y}{x}", {y: x}) for y in range(3) for x in range(3)]
    return ExtensionDocument(3, 2, points + [("shift", {0: 1, 1: 2})])


def _not_closed_twice() -> ExtensionDocument:
    return ExtensionDocument(3, 2, [("a", {0: 1}), ("b", {1: 2})])


def documents() -> dict:
    rook2, rook3 = generate("rook", "2"), generate("rook", "3")
    eq22 = generate("eqrel", "0,1|2,3")
    twisted = _twisted(rook3, 3, 1)
    eq22_twisted = _twisted(ExtensionDocument(4, 2, eq22.elements, None, eq22.metadata), 2, 3)
    blocks = _blocks(rook2, 2)
    return {
        "rook2": rook2,
        "rook3": rook3,
        "eqrel_01_23": eq22,
        "eqrel_012_3_4": generate("eqrel", "0,1,2|3|4"),
        "product_rook2_rook2": generate("product", (rook2, rook2)),
        "rook3_k3_twisted": twisted,
        "rook3_k3_twin": _twisted(_relabeled(rook3, (2, 0, 1)), 3, 2),
        "rook3_k3_tampered": _tampered(twisted, 1),
        "eqrel_01_23_k2_twisted": eq22_twisted,
        "eqrel_01_23_k2_twin": _twisted(_relabeled(ExtensionDocument(4, 2, eq22.elements), (2, 0, 3, 1)), 2, 4),
        "blocks": blocks,
        "blocks_k2_twisted": _twisted(blocks, 2, 5),
        "not_closed": _not_closed(),
        "not_closed_twice": _not_closed_twice(),
        "swap_on_three": ExtensionDocument(3, 2, [("swap", {0: 1, 1: 0, 2: 2})]),
        "rook2_without_swap": ExtensionDocument(2, 2, [(n, m) for n, m in rook2.elements if m != {0: 1, 1: 0}]),
        "three_atoms": ExtensionDocument(3, 2, [(f"e{a}", {a: a}) for a in range(3)]),
        "atoms_true": ExtensionDocument(True, 2, rook2.elements),
    }


def _k_suffix(extra: list) -> str:
    return f"-k{extra[extra.index('--k') + 1]}" if "--k" in extra else ""


def commands() -> list:
    """(name, argv) for every pinned run; document names stand for their
    files under ``docs/``."""
    runs = []
    for doc, extra in [
        ("rook2", []),
        ("rook3", []),
        ("rook3", ["--k", "3"]),
        ("eqrel_01_23", []),
        ("eqrel_012_3_4", []),
        ("product_rook2_rook2", []),
        ("rook3_k3_twisted", []),
        ("rook3_k3_twin", []),
        ("rook3_k3_tampered", []),
    ]:
        for cmd in COMMANDS:
            runs.append((f"{cmd}-{doc}{_k_suffix(extra)}", [cmd, doc, *extra]))
    for a, b, extra in [
        ("rook2", "rook2", []),
        ("rook3", "rook3", []),
        ("rook2", "rook3", []),
        ("eqrel_01_23", "product_rook2_rook2", ["--guard", "49"]),
        ("product_rook2_rook2", "eqrel_01_23", ["--guard", "49"]),
        ("eqrel_01_23", "eqrel_012_3_4", []),
        ("rook3_k3_twisted", "rook3_k3_twin", []),
        ("rook3_k3_twin", "rook3_k3_twisted", []),
        ("rook3_k3_twisted", "rook3_k3_twisted", []),
        ("rook3", "rook3_k3_twisted", ["--k", "3"]),
        ("rook3_k3_twisted", "rook3", ["--k", "3"]),
        ("rook3", "rook3_k3_twisted", []),
        ("rook3_k3_twisted", "rook3_k3_tampered", []),
        ("rook3_k3_tampered", "rook3_k3_twin", []),
        ("eqrel_01_23_k2_twisted", "eqrel_01_23_k2_twin", ["--guard", "49"]),
        ("eqrel_01_23_k2_twin", "eqrel_01_23_k2_twisted", ["--guard", "49"]),
        ("blocks", "blocks", []),
        ("blocks_k2_twisted", "blocks_k2_twisted", []),
        ("blocks", "blocks_k2_twisted", ["--k", "2"]),
    ]:
        runs.append((f"equiv-{a}-{b}{_k_suffix(extra)}", ["equiv", a, b, *extra]))
    for doc in ("blocks", "blocks_k2_twisted", "not_closed", "not_closed_twice"):
        for cmd in COMMANDS:
            runs.append((f"{cmd}-{doc}", [cmd, doc]))
    runs += [
        ("equiv-not_closed_twice-not_closed_twice", ["equiv", "not_closed_twice", "not_closed_twice"]),
        ("validate-swap_on_three", ["validate", "swap_on_three"]),
        ("section-swap_on_three", ["section", "swap_on_three"]),
        ("validate-rook2_without_swap", ["validate", "rook2_without_swap"]),
        ("spectral-rook2_without_swap", ["spectral", "rook2_without_swap"]),
        ("validate-three_atoms", ["validate", "three_atoms"]),
        ("equiv-not_closed-not_closed", ["equiv", "not_closed", "not_closed"]),
        ("equiv-not_closed-not_closed-k2", ["equiv", "not_closed", "not_closed", "--k", "2"]),
        ("validate-atoms_true", ["validate", "atoms_true"]),
        ("spectral-rook3-guard8", ["spectral", "rook3", "--guard", "8"]),
        ("equiv-rook3-rook3-guard10", ["equiv", "rook3", "rook3", "--guard", "10"]),
    ]
    return runs


def run(argv: list, docs_dir: pathlib.Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process command."""
    argv = [str(docs_dir / f"{a}.json") if (docs_dir / f"{a}.json").exists() else a for a in argv]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().replace(str(docs_dir), "docs")


if __name__ == "__main__":
    DOCS.mkdir(exist_ok=True)
    for name, doc in documents().items():
        compact = json.dumps(json.loads(emit(doc)), separators=(",", ":"), sort_keys=True)
        (DOCS / f"{name}.json").write_text(compact + "\n")
    manifest = []
    for name, argv in commands():
        code, out, err = run(argv, DOCS)
        (HERE / f"{name}.out").write_text(out)
        manifest.append({"name": name, "argv": argv, "exit": code, "stderr": err})
        print(f"{code} {name}", file=sys.stderr)
    (HERE / "commands.json").write_text(json.dumps(manifest, indent=1) + "\n")
