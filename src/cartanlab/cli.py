"""Command-line interface: document parsing, command dispatch, and
report output.  The document writer ``emit``, which only ``gen`` runs, is
in ``generators``.

Documents are JSON with keys "atoms", "k", "elements" (named partial maps)
and an optional sparse "cocycle" entry list (absent means trivial).  Output
is canonical and byte-stable: identical inputs produce identical bytes.

Exit codes: 0 all checks passed, 1 a check failed, 2 malformed input, 3 a
module the command needs (numpy, for the numeric commands) is not installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from ._lazy import _lazy_import
from ._twist import CocycleTable, Extension
from .errors import CartanLabError, ClosureError, FormatError
from .semigroup_core import FiniteInverseMonoid, PartialBijection, bits, classify, mask_of

# Executed on the first attribute access, each by the commands that use it:
# validate executes boolean_monoid and the cocycle check, section the
# section layer, equiv equivalence, gen generators, and the numeric
# commands their handlers, which bind the numeric half the same way.
boolean_monoid = _lazy_import("cartanlab.boolean_monoid")
generators = _lazy_import("cartanlab.generators")
_cocycle = _lazy_import("cartanlab._cocycle")
_section = _lazy_import("cartanlab._section")
_equiv = _lazy_import("cartanlab._equiv")
_numeric_cli = _lazy_import("cartanlab._numeric_cli")
# Registered only, for code that wraps the package from outside and reads
# every submodule from sys.modules: no command executes the public
# extension module or the two library modules, and the numeric modules are
# the handlers' to execute.
for _name in ("extension", "exact_library", "numeric_library", "kernel_rep", "vn_oracle", "spectral_bimodule"):
    _lazy_import(f"cartanlab.{_name}")

__all__ = ["ExtensionDocument", "parse", "main", "build_extension"]


# A map's graph is a bitmask of atoms² bits.  Each product row of the
# Cayley table (FiniteInverseMonoid.product_row) spreads only the points of
# R, so the exact commands' memory follows |S|² and |R|, not atoms⁴: rook2
# padded to 300 atoms peaked at 2.6 MB (tracemalloc) through classify, the
# axioms, the cocycle check and the section with its check, and at 0.07 MB
# padded to 64.  No measurement bounds the numeric commands by the atom
# count, so 64 is kept and is not a verified limit.
MAX_ATOMS = 64


class ExtensionDocument:
    """In-memory form of a serialized extension: S, k, and a cocycle.

    ``elements`` lists (name, {src: dst}) in canonical order; ``cocycle``
    lists (s_name, t_name, [exponents]), or is None.
    """

    def __init__(self, atoms: int, k: int, elements: list, cocycle: list | None = None, metadata=None):
        self.atoms = atoms
        self.k = k
        self.elements = elements
        self.cocycle = cocycle
        self.metadata = {} if metadata is None else metadata

    def __eq__(self, other):
        return isinstance(other, ExtensionDocument) and vars(self) == vars(other)


def _line_of(text: str, token: str, start: int = 0) -> str | None:
    """The line of the first occurrence of token at or after offset start."""
    pos = text.find(token, start)
    if pos < 0:
        return None
    return f"line {text.count(chr(10), 0, pos) + 1}"


def _bijection_of(atoms: int, mapping: dict, where: str) -> PartialBijection:
    for src, dst in mapping.items():
        if not (0 <= src < atoms and 0 <= dst < atoms):
            raise FormatError(f"atom out of range in map {mapping}", where)
    if len(set(mapping.values())) != len(mapping):
        raise FormatError(f"map is not injective: {mapping}", where)
    dom = mask_of(mapping.keys())
    image = tuple(mapping[y] for y in bits(dom))
    return PartialBijection(atoms, dom, image)


def parse(text: str) -> ExtensionDocument:
    """Parse and structurally validate a document; errors carry locations."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise FormatError(f"invalid JSON: {str(exc).partition(';')[0]}") from None
    if not isinstance(raw, dict):
        raise FormatError("document must be a JSON object", "line 1")

    for key in ("atoms", "k", "elements"):
        if key not in raw:
            raise FormatError(f"missing required key '{key}'", "line 1")
    atoms = raw["atoms"]
    k = raw["k"]
    if type(atoms) is not int or atoms < 1:  # a JSON true is a bool, an int subclass
        raise FormatError("'atoms' must be a positive integer", _line_of(text, '"atoms"'))
    if atoms > MAX_ATOMS:
        raise FormatError(f"'atoms' must be at most {MAX_ATOMS}, got {atoms}", _line_of(text, '"atoms"'))
    if type(k) is not int or k < 1:
        raise FormatError("'k' must be a positive integer", _line_of(text, '"k"'))
    if not isinstance(raw["elements"], list) or not raw["elements"]:
        raise FormatError("'elements' must be a nonempty list", _line_of(text, '"elements"'))

    names = {}
    elements = []
    for i, entry in enumerate(raw["elements"]):
        where = f"elements[{i}]"
        if not isinstance(entry, dict) or "name" not in entry or "map" not in entry:
            raise FormatError("element entries need 'name' and 'map'", where)
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise FormatError("element name must be a nonempty string", where)
        if name in names:
            # the first use of the name from the "elements" key on is its first element
            token = f'"{name}"'
            loc = _line_of(text, token, text.find(token, max(text.find('"elements"'), 0)) + 1)
            raise FormatError(f"duplicate element name '{name}'", loc or where)
        if not isinstance(entry["map"], dict):
            raise FormatError("'map' must be an object", where)
        mapping = {}
        for src_s, dst in entry["map"].items():
            try:
                src = int(src_s)
            except ValueError:
                src = None
            # int() also reads " 0", "+1", "01", "1_0" and non-ASCII digits; the
            # canonical keys of one JSON object name distinct atoms
            if src is None or str(src) != src_s:
                raise FormatError(f"map key '{src_s}' is not an atom index", where)
            if type(dst) is not int:
                raise FormatError(f"map value '{dst}' is not an atom index", where)
            mapping[src] = dst
        bij = _bijection_of(atoms, mapping, where)
        names[name] = bij
        elements.append((name, mapping))

    cocycle = None
    if raw.get("cocycle") is not None:
        if not isinstance(raw["cocycle"], list):
            raise FormatError("'cocycle' must be a list", _line_of(text, '"cocycle"'))
        cocycle = []
        seen = set()
        for i, entry in enumerate(raw["cocycle"]):
            where = f"cocycle[{i}]"
            if not isinstance(entry, dict) or not {"s", "t", "phase"} <= set(entry):
                raise FormatError("cocycle entries need 's', 't', 'phase'", where)
            for ref in (entry["s"], entry["t"]):
                if not isinstance(ref, str):
                    raise FormatError(f"cocycle reference {json.dumps(ref)} is not an element name", where)
                if ref not in names:
                    raise FormatError(f"cocycle references unknown element '{ref}'", where)
            if not isinstance(entry["phase"], list) or not all(
                type(p) is int for p in entry["phase"]
            ):
                raise FormatError("'phase' must be a list of integer exponents", where)
            key = (entry["s"], entry["t"])
            if key in seen:
                raise FormatError(f"duplicate cocycle entry for {key}", where)
            seen.add(key)
            cocycle.append((entry["s"], entry["t"], entry["phase"]))  # the parsed list: nothing else holds it

    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError("'metadata' must be an object", _line_of(text, '"metadata"'))

    doc = ExtensionDocument(atoms, k, elements, cocycle, metadata)
    return _canonicalize(doc)


def _canonicalize(doc: ExtensionDocument) -> ExtensionDocument:
    def elem_key(item):
        _, mapping = item
        dom = mask_of(mapping.keys())
        return (dom, tuple(mapping[y] for y in bits(dom)))

    elements = sorted(doc.elements, key=elem_key)
    order = {name: i for i, (name, _) in enumerate(elements)}
    cocycle = None
    if doc.cocycle is not None:
        cocycle = sorted(doc.cocycle, key=lambda e: (order[e[0]], order[e[1]]))
    return ExtensionDocument(doc.atoms, doc.k, elements, cocycle, doc.metadata)


def build_extension(doc: ExtensionDocument, k_override: int | None = None):
    """Materialize (S, Extension, name map) from a document.

    Missing 0/1 are added to the monoid with fresh names; an explicit
    cocycle list must cover every pair with a nonempty product.  A document
    without one gives the trivial twist, an Extension without a table.
    """
    atoms = doc.atoms
    by_name = {}
    for name, mapping in doc.elements:
        by_name[name] = _bijection_of(atoms, mapping, name)
    if len(set(by_name.values())) != len(by_name):
        raise FormatError("two element names describe the same map")
    S = FiniteInverseMonoid(atoms, by_name.values())
    names = dict(by_name)
    for extra in S.added:
        auto = "zero" if extra.is_zero() else "one"
        while auto in names:
            auto += "_"
        names[auto] = extra

    k = k_override if k_override is not None else doc.k
    if k_override is not None and k_override != doc.k and doc.cocycle is not None:
        raise FormatError("cannot override k for a document with an explicit cocycle")
    if doc.cocycle is None:
        return S, Extension(S, k), names
    # |dom(st)| = |dom(s) & range(t)|: no product is formed, so a document
    # that is not closed still reaches the closure check.
    range_of = {t: t.range_mask for t in S}
    entries = {}
    for s_name, t_name, phase in doc.cocycle:
        s, t = by_name[s_name], by_name[t_name]
        width = (s.domain & range_of[t]).bit_count()
        if len(phase) != width:
            raise FormatError(
                f"cocycle entry ({s_name},{t_name}) has {len(phase)} phases, "
                f"expected {width}"
            )
        if any(not 0 <= p < k for p in phase):
            raise FormatError(f"cocycle entry ({s_name},{t_name}) has exponents outside 0..k-1")
        entries[(s, t)] = tuple(phase)
    for s in S:
        for t, rng in range_of.items():
            if s.domain & rng and (s, t) not in entries:
                inv = {v: n for n, v in names.items()}
                raise FormatError(
                    f"missing cocycle entry for ({inv.get(s, s)}, {inv.get(t, t)})"
                )
    return S, Extension(S, k, CocycleTable(k, entries)), names


# ---------------------------------------------------------------------------
# command implementations (each returns (exit_code, text_lines, payload));
# the numeric ones are in _numeric_cli


def _cmd_validate(S, ext, names, args):
    lines = []
    try:
        rep = classify(S)
    except ClosureError as exc:
        return 1, [f"closure: FAIL ({exc})"], {"closure": "fail", "closure_error": str(exc)}
    if S.added:
        lines.append(f"materialized_constants: {len(S.added)} (0/1 added to the element list)")
    lines += rep.to_lines()
    ax = boolean_monoid.check_axioms(S)
    lines += ax.to_lines()
    crep = _cocycle.validate_cocycle(S, ext.k, ext.cocycle)
    lines += crep.to_lines()
    ok = rep.inverse_monoid and ax.passed and ax.cartan and crep.passed
    payload = {
        "inverse_monoid": rep.inverse_monoid,
        "fundamental": rep.fundamental,
        "clifford": rep.clifford,
        "axioms_passed": ax.passed,
        "axiom_failures": ax.failures(),
        "cartan": ax.cartan,
        "cocycle_passed": crep.passed,
        "cocycle_violation_count": len(crep.violations),
        "cocycle_violations": crep.shown(),
        "materialized": len(S.added),
    }
    lines.append(f"validate: {'pass' if ok else 'FAIL'}")
    return (0 if ok else 1), lines, payload


def _cmd_section(S, ext, names, args):
    j = _section.order_preserving_section(ext)
    rep = _section.validate_section(ext, j)
    inv = {v: n for n, v in names.items()}
    lines = rep.to_lines()
    witnesses = {key: str(w) for key, w in rep.witnesses.items()}
    payload = {"passed": rep.passed, "section": {}, "witnesses": witnesses}
    for s in S:
        v = j[s]
        label = inv.get(s, repr(s))
        lines.append(f"j[{label}]: phases={list(v.phases)}")
        payload["section"][label] = list(v.phases)
    return (0 if rep.passed else 1), lines, payload


def _cmd_equiv(doc_a, doc_b, args):
    _, ext_a, _ = build_extension(doc_a, args.k)
    _, ext_b, _ = build_extension(doc_b, args.k)
    guard = _equiv.EQUIV_GUARD if args.guard is None else args.guard
    witness = _equiv.extensions_equivalent(ext_a, ext_b, guard=guard)
    if witness is None:
        return 1, ["equivalent: NO (NotEquivalent)"], {"equivalent": False}
    perm, theta_map, alpha = witness
    lines = [
        "equivalent: YES",
        f"atom_permutation: {list(perm)}",
        f"element_pairs: {len(alpha)}",
    ]
    return 0, lines, {"equivalent": True, "atom_permutation": list(perm), "element_pairs": len(alpha)}


def _load(path: str) -> ExtensionDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read '{path}': {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FormatError(f"cannot read '{path}': not UTF-8 text") from None


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write '{path}': {exc.strerror}") from None


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k", type=int, default=None, help="override the document's phase order")
    common.add_argument("--guard", type=int, default=None, help="override brute-force size guards")
    common.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
    common.add_argument("--out", type=str, default=None, help="write the machine report here")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="cartanlab",
        description="Validate, represent, and verify finite inverse-monoid extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "section", "represent", "oracle", "spectral", "msd", "mtr"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("document")
    p = sub.add_parser("equiv", parents=[common])
    p.add_argument("document")
    p.add_argument("other")
    p = sub.add_parser("gen", parents=[common])
    p.add_argument("kind", choices=("rook", "eqrel", "product"))
    p.add_argument("params", nargs="+")

    args = parser.parse_args(argv)
    try:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise FormatError(f"--tol must be a finite positive number, got {args.tol}")
        if args.guard is not None and args.guard <= 0:
            raise FormatError(f"--guard must be a positive integer, got {args.guard}")

        if args.command == "gen":
            code, lines, payload = generators._cmd_gen(args)
        elif args.command == "equiv":
            code, lines, payload = _cmd_equiv(_load(args.document), _load(args.other), args)
        else:
            S, ext, names = build_extension(_load(args.document), args.k)
            handler = {"validate": _cmd_validate, "section": _cmd_section}.get(args.command)
            if handler is None:
                handler = getattr(_numeric_cli, f"_cmd_{args.command}")
            code, lines, payload = handler(S, ext, names, args)

        # the report file first, so a reader that closes stdout early cannot lose it
        if args.out and args.command != "gen":  # gen already wrote the document there
            if args.format == "json":
                _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
            else:
                _write(args.out, "\n".join(lines) + "\n")
        for line in lines:
            print(line)
    except CartanLabError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        print(f"missing module: '{args.command}' needs {exc.name}, which is not installed", file=sys.stderr)
        return 3
    return code


def run():
    """Command-line entry (``python -m cartanlab`` and the ``cartanlab``
    script): one BLAS thread unless the caller chose otherwise.  The numeric
    matrices are small, and a second OpenBLAS thread made the first span
    solve of a process about a second slower.

    A reader that closes stdout early (``| head -1``) ends the command
    quietly with exit code 1: stdout is flushed while a broken pipe can
    still be caught, then pointed at devnull so the flush at exit finds
    nothing to write.

    The process ends with every object frozen (``gc.freeze``), so the
    interpreter's shutdown neither runs its final collection nor frees the
    objects in reference cycles, numpy's types, ufuncs and functions among
    them: about 20 ms of a numeric command that print and check nothing.
    atexit handlers, the stdio flush and the closing of files still run.
    ``main`` freezes nothing, so an in-process caller's heap is untouched."""
    import gc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
