"""Command-line interface: document parsing, built-in generators, command
dispatch, and report/matrix emission.

Documents are JSON with keys "atoms", "k", "elements" (named partial maps)
and an optional sparse "cocycle" entry list (absent means trivial).  Output
is canonical and byte-stable: identical inputs produce identical bytes.

Exit codes: 0 all checks passed, 1 a check failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import generators
from .boolean_monoid import check_axioms
from .errors import CartanLabError, ClosureError, FormatError
from .extension import (
    EQUIV_GUARD,
    CocycleTable,
    Extension,
    extensions_equivalent,
    order_preserving_section,
    trivial_cocycle,
    validate_cocycle,
    validate_section,
)
from .kernel_rep import RepSpace, dump_matrix
from .semigroup_core import FiniteInverseMonoid, PartialBijection, bits, classify, mask_of
from .spectral_bimodule import (
    SPECTRAL_GUARD,
    enumerate_spectral_sets,
    msd,
    mtr,
    psi,
    theta,
    verify_members,
)
from .vn_oracle import cartan_report

__all__ = ["ExtensionDocument", "parse", "emit", "generate", "main", "build_extension"]


@dataclass
class ExtensionDocument:
    """In-memory form of a serialized extension: S, k, and a cocycle."""

    atoms: int
    k: int
    elements: list  # list of (name, {src: dst}) in canonical order
    cocycle: list | None = None  # list of (s_name, t_name, [exponents]) or None
    metadata: dict = field(default_factory=dict)

    def element_map(self):
        return dict(self.elements)


def _int_param(text, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"{what} '{text}' is not an integer") from None


def _line_of(text: str, token: str) -> str | None:
    pos = text.find(token)
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
    if not isinstance(raw, dict):
        raise FormatError("document must be a JSON object", "line 1")

    for key in ("atoms", "k", "elements"):
        if key not in raw:
            raise FormatError(f"missing required key '{key}'", "line 1")
    atoms = raw["atoms"]
    k = raw["k"]
    if type(atoms) is not int or atoms < 1:  # a JSON true is a bool, an int subclass
        raise FormatError("'atoms' must be a positive integer", _line_of(text, '"atoms"'))
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
            loc = _line_of(text[text.find(f'"{name}"') + 1 :], f'"{name}"')
            raise FormatError(f"duplicate element name '{name}'", loc or where)
        if not isinstance(entry["map"], dict):
            raise FormatError("'map' must be an object", where)
        mapping = {}
        for src_s, dst in entry["map"].items():
            try:
                src = int(src_s)
            except (TypeError, ValueError):
                raise FormatError(f"map key '{src_s}' is not an atom index", where) from None
            if type(dst) is not int:
                raise FormatError(f"map value '{dst}' is not an atom index", where)
            if src in mapping:
                raise FormatError(f"duplicate map key {src}", where)
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
            cocycle.append((entry["s"], entry["t"], list(entry["phase"])))

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


def emit(doc: ExtensionDocument) -> str:
    """Canonical byte-stable serialization."""
    doc = _canonicalize(doc)
    payload = {
        "atoms": doc.atoms,
        "k": doc.k,
        "elements": [
            {"name": name, "map": {str(src): dst for src, dst in sorted(mapping.items())}}
            for name, mapping in doc.elements
        ],
    }
    if doc.cocycle is not None:
        payload["cocycle"] = [
            {"s": s, "t": t, "phase": list(phase)} for s, t, phase in doc.cocycle
        ]
    if doc.metadata:
        payload["metadata"] = doc.metadata
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def build_extension(doc: ExtensionDocument, k_override: int | None = None):
    """Materialize (S, Extension, name map) from a document.

    Missing 0/1 are added to the monoid with fresh names; an explicit
    cocycle list must cover every pair with a nonempty product.
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
        table = trivial_cocycle(S, k)
    else:
        # |dom(st)| = |dom(s) & range(t)|: no product is formed, so a
        # document that is not closed still reaches the closure check.
        entries = {}
        for s_name, t_name, phase in doc.cocycle:
            s, t = by_name[s_name], by_name[t_name]
            width = (s.domain & t.range_mask).bit_count()
            if len(phase) != width:
                raise FormatError(
                    f"cocycle entry ({s_name},{t_name}) has {len(phase)} phases, "
                    f"expected {width}"
                )
            if any(not 0 <= p < k for p in phase):
                raise FormatError(f"cocycle entry ({s_name},{t_name}) has exponents outside 0..k-1")
            entries[(s, t)] = tuple(phase)
        ranges = [t.range_mask for t in S]
        for s in S:
            for t, rng in zip(S, ranges):
                if s.domain & rng and (s, t) not in entries:
                    inv = {v: n for n, v in names.items()}
                    raise FormatError(
                        f"missing cocycle entry for ({inv.get(s, s)}, {inv.get(t, t)})"
                    )
        table = CocycleTable(k, entries)
    return S, Extension(S, k, table), names


def generate(kind: str, params, guard: int = generators.ROOK_GUARD) -> ExtensionDocument:
    """Built-in documents: rook(n), eqrel(blocks), product(doc, doc)."""
    if kind == "rook":
        n = _int_param(params, "rook size")
        S = generators.rook_monoid(n, guard)
        meta = {"kind": f"rook({n})"}
    elif kind == "eqrel":
        blocks = [tuple(_int_param(a, "block atom") for a in blk.split(",")) for blk in str(params).split("|")]
        S = generators.eqrel_monoid(blocks)
        meta = {"kind": f"eqrel({params})"}
    elif kind == "product":
        doc_a, doc_b = params
        if doc_a.k != doc_b.k:
            raise FormatError("product factors must share the same k")
        if doc_a.cocycle is not None or doc_b.cocycle is not None:
            raise FormatError("product factors must carry trivial cocycles")
        A, _, _ = build_extension(doc_a)
        B, _, _ = build_extension(doc_b)
        S = generators.product_monoid(A, B)
        meta = {"kind": "product"}
        doc = _document_of(S, doc_a.k, meta)
        return doc
    else:
        raise FormatError(f"unknown generator kind '{kind}'")
    return _document_of(S, 1, meta)


def _document_of(S: FiniteInverseMonoid, k: int, metadata: dict) -> ExtensionDocument:
    elements = []
    for i, s in enumerate(S.elements):
        mapping = {y: x for x, y in s.pairs()}
        elements.append((f"s{i:03d}", mapping))
    return _canonicalize(ExtensionDocument(S.atom_count, k, elements, None, metadata))


# ---------------------------------------------------------------------------
# command implementations (each returns (exit_code, text_lines, payload))


def _cmd_validate(doc, args):
    lines = []
    payload = {}
    S, ext, names = build_extension(doc, args.k)
    try:
        rep = classify(S)
    except ClosureError as exc:
        return 1, [f"closure: FAIL ({exc})"], {"closure": "fail"}
    if S.added:
        lines.append(f"materialized_constants: {len(S.added)} (0/1 added to the element list)")
    lines += rep.to_lines()
    ax = check_axioms(S)
    lines += ax.to_lines()
    crep = validate_cocycle(S, ext.k, ext.cocycle)
    lines += crep.to_lines()
    ok = rep.inverse_monoid and ax.passed and ax.cartan and crep.passed
    payload = {
        "inverse_monoid": rep.inverse_monoid,
        "fundamental": rep.fundamental,
        "clifford": rep.clifford,
        "axioms_passed": ax.passed,
        "cartan": ax.cartan,
        "cocycle_passed": crep.passed,
        "materialized": len(S.added),
    }
    lines.append(f"validate: {'pass' if ok else 'FAIL'}")
    return (0 if ok else 1), lines, payload


def _cmd_section(doc, args):
    S, ext, names = build_extension(doc, args.k)
    j = order_preserving_section(ext)
    rep = validate_section(ext, j)
    inv = {v: n for n, v in names.items()}
    lines = rep.to_lines()
    payload = {"passed": rep.passed, "section": {}}
    for s in S:
        v = j[s]
        label = inv.get(s, repr(s))
        lines.append(f"j[{label}]: phases={list(v.phases)}")
        payload["section"][label] = list(v.phases)
    return (0 if rep.passed else 1), lines, payload


def _cmd_represent(doc, args):
    S, ext, names = build_extension(doc, args.k)
    rs = RepSpace(ext, tol=args.tol)
    inv = {v: n for n, v in names.items()}
    chunks = []
    for s in S:
        label = inv.get(s, repr(s))
        chunks.append(f"# section {label}")
        chunks.append(dump_matrix(rs.rbasis, ext.k, rs.lam_of(s)).rstrip("\n"))
    text = "\n".join(chunks) + "\n"
    payload = {"dim": len(rs.rbasis), "k": ext.k, "dump": text}
    return 0, [text.rstrip("\n")], payload


def _cmd_oracle(doc, args):
    S, ext, names = build_extension(doc, args.k)
    rep = cartan_report(ext, tol=args.tol)
    lines = rep.to_lines()
    payload = {
        "passed": rep.passed,
        "dim_M": rep.dim_M,
        "dim_D": rep.dim_D,
        "dim_R": rep.dim_R,
        "masa": rep.masa.is_masa,
        "center_dimension": rep.masa.center_dimension,
        "recovered_size": rep.recovered_size,
        "recovery_isomorphism": list(rep.recovery_iso) if rep.recovery_iso else None,
    }
    return (0 if rep.passed else 1), lines, payload


def _cmd_spectral(doc, args):
    S, ext, names = build_extension(doc, args.k)
    sets = enumerate_spectral_sets(S, guard=args.guard)
    rs = RepSpace(ext, tol=args.tol)
    sample = sets if len(sets) <= 64 else sets[:: max(1, len(sets) // 64)]
    ok = all(theta(rs, psi(rs, A, args.tol), args.tol) == A for A in sample)
    lines = [
        f"spectral_sets: {len(sets)}",
        f"round_trip_checked: {len(sample)}",
        f"round_trip: {'pass' if ok else 'FAIL'}",
    ]
    payload = {"count": len(sets), "round_trip": ok, "checked": len(sample)}
    return (0 if ok else 1), lines, payload


def _cmd_msd(doc, args, triangular=False):
    S, ext, names = build_extension(doc, args.k)
    rs = RepSpace(ext, tol=args.tol)
    members = mtr(S, guard=args.guard) if triangular else msd(S, guard=args.guard)
    inv = {v: n for n, v in names.items()}
    lines = [f"{'mtr' if triangular else 'msd'}_count: {len(members)}"]
    all_ok = True
    payload_members = []
    for A, rep in zip(members, verify_members(rs, members, guard=args.guard, tol=args.tol)):
        all_ok &= rep.passed
        labels = sorted(inv.get(s, repr(s)) for s in A)
        lines.append(f"member ({len(A)} elements): {'pass' if rep.passed else 'FAIL'}")
        lines += ["  " + ln for ln in rep.to_lines()]
        payload_members.append({"elements": labels, "passed": rep.passed})
    payload = {"count": len(members), "members": payload_members, "passed": all_ok}
    return (0 if all_ok else 1), lines, payload


def _cmd_equiv(doc_a, doc_b, args):
    _, ext_a, _ = build_extension(doc_a, args.k)
    _, ext_b, _ = build_extension(doc_b, args.k)
    guard = args.guard if args.guard_explicit else EQUIV_GUARD
    witness = extensions_equivalent(ext_a, ext_b, guard=guard)
    if witness is None:
        return 1, ["equivalent: NO (NotEquivalent)"], {"equivalent": False}
    perm, theta_map, alpha = witness
    lines = [
        "equivalent: YES",
        f"atom_permutation: {list(perm)}",
        f"element_pairs: {len(alpha)}",
    ]
    return 0, lines, {"equivalent": True, "atom_permutation": list(perm)}


def _cmd_gen(args):
    if args.kind == "product":
        if len(args.params) != 2:
            raise FormatError("gen product needs two documents")
        doc = generate("product", (_load(args.params[0]), _load(args.params[1])))
    else:
        if len(args.params) != 1:
            raise FormatError(f"gen {args.kind} needs exactly one parameter, got {len(args.params)}")
        guard = args.guard if args.guard_explicit else generators.ROOK_GUARD
        doc = generate(args.kind, args.params[0], guard=guard)
    text = emit(doc)
    if args.out:
        _write(args.out, text)
        return 0, [f"wrote {args.out}"], {"written": args.out}
    return 0, [text.rstrip("\n")], {"document": json.loads(text)}


def _load(path: str) -> ExtensionDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read '{path}': {exc.strerror}") from None


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
        args.guard_explicit = args.guard is not None
        if args.guard is None:
            env = os.environ.get("CARTANLAB_GUARD")
            if env:
                args.guard = _int_param(env, "CARTANLAB_GUARD")
                args.guard_explicit = True
                if args.guard <= 0:
                    raise FormatError(f"CARTANLAB_GUARD must be a positive integer, got {args.guard}")
            else:
                args.guard = SPECTRAL_GUARD
        elif args.guard <= 0:
            raise FormatError(f"--guard must be a positive integer, got {args.guard}")

        if args.command == "gen":
            code, lines, payload = _cmd_gen(args)
        elif args.command == "equiv":
            code, lines, payload = _cmd_equiv(_load(args.document), _load(args.other), args)
        else:
            doc = _load(args.document)
            handler = {
                "validate": _cmd_validate,
                "section": _cmd_section,
                "represent": _cmd_represent,
                "oracle": _cmd_oracle,
                "spectral": _cmd_spectral,
            }.get(args.command)
            if handler is not None:
                code, lines, payload = handler(doc, args)
            elif args.command == "msd":
                code, lines, payload = _cmd_msd(doc, args, triangular=False)
            else:
                code, lines, payload = _cmd_msd(doc, args, triangular=True)

        for line in lines:
            print(line)
        if args.out and args.command != "gen":  # gen already wrote the document there
            if args.format == "json":
                _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
            else:
                _write(args.out, "\n".join(lines) + "\n")
    except CartanLabError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
