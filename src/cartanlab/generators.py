"""Built-in monoid constructors: rook monoids, block monoids, products,
and the documents ``cartanlab gen`` writes of them, with their canonical
serialization ``emit``."""

from __future__ import annotations

import itertools
import json

from .errors import DomainError, FormatError, SizeGuardError
from .semigroup_core import FiniteInverseMonoid, PartialBijection, mask_of

__all__ = ["rook_monoid", "eqrel_monoid", "product_monoid", "generate", "emit", "ROOK_GUARD"]

ROOK_GUARD = 5


def _partial_injections(n: int, allowed=None):
    """All partial injective maps on n atoms, optionally graph-restricted.

    ``allowed`` maps each source atom to its permitted targets.
    """
    atoms = range(n)
    for d in range(n + 1):
        for dom in itertools.combinations(atoms, d):
            pools = [allowed[y] if allowed else atoms for y in dom]
            for image in itertools.product(*pools):
                if len(set(image)) != d:
                    continue
                yield PartialBijection(n, mask_of(dom), tuple(image))


def rook_monoid(n: int, guard: int = ROOK_GUARD) -> FiniteInverseMonoid:
    """The symmetric inverse monoid I_n: all partial injections on n atoms."""
    if n < 1:
        raise DomainError("rook monoid needs n >= 1")
    if n > guard:
        raise SizeGuardError(n, guard, "rook monoid size parameter (--guard)")
    return FiniteInverseMonoid(n, _partial_injections(n))


def eqrel_monoid(blocks) -> FiniteInverseMonoid:
    """All partial injections preserving the given partition of the atoms.

    ``blocks`` is a list of disjoint atom tuples covering {0..n-1}; an
    element may only map an atom within its own block.
    """
    flat = [a for b in blocks for a in b]
    n = len(flat)
    if sorted(flat) != list(range(n)):
        raise DomainError("blocks must partition {0..n-1}")
    allowed = {}
    for b in blocks:
        for a in b:
            allowed[a] = tuple(b)
    return FiniteInverseMonoid(n, _partial_injections(n, allowed))


def product_monoid(A: FiniteInverseMonoid, B: FiniteInverseMonoid) -> FiniteInverseMonoid:
    """Disjoint-union monoid: pairs (a, b) acting on the disjoint atom union."""
    n = A.atom_count + B.atom_count
    shift = A.atom_count
    elements = set()
    for a in A:
        for b in B:
            dom = a.domain | (b.domain << shift)
            image = a.image + tuple(x + shift for x in b.image)
            elements.add(PartialBijection(n, dom, image))
    return FiniteInverseMonoid(n, elements)


# The documents of ``cartanlab gen``.  They take cli's document type and I/O
# at call time: the numeric half imports the constructors above without the
# command line.


def _int_param(text, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"{what} '{text}' is not an integer") from None


def generate(kind: str, params, guard: int | None = None):
    """Built-in documents: rook(n), eqrel(blocks), product(doc, doc), each a
    ``cli.ExtensionDocument``.  The guard defaults to ``ROOK_GUARD``."""
    from .cli import build_extension

    if guard is None:
        guard = ROOK_GUARD
    if kind == "rook":
        n = _int_param(params, "rook size")
        S = rook_monoid(n, guard)
        meta = {"kind": f"rook({n})"}
    elif kind == "eqrel":
        blocks = [tuple(_int_param(a, "block atom") for a in blk.split(",")) for blk in str(params).split("|")]
        largest = max(len(b) for b in blocks)
        if largest > guard:
            raise SizeGuardError(largest, guard, "eqrel largest block")
        S = eqrel_monoid(blocks)
        meta = {"kind": f"eqrel({params})"}
    elif kind == "product":
        doc_a, doc_b = params
        if doc_a.k != doc_b.k:
            raise FormatError("product factors must share the same k")
        if doc_a.cocycle is not None or doc_b.cocycle is not None:
            raise FormatError("product factors must carry trivial cocycles")
        A, _, _ = build_extension(doc_a)
        B, _, _ = build_extension(doc_b)
        S = product_monoid(A, B)
        return _document_of(S, doc_a.k, {"kind": "product"})
    else:
        raise FormatError(f"unknown generator kind '{kind}'")
    return _document_of(S, 1, meta)


def _document_of(S: FiniteInverseMonoid, k: int, metadata: dict):
    from .cli import ExtensionDocument, _canonicalize

    elements = []
    for i, s in enumerate(S.elements):
        mapping = {y: x for x, y in s.pairs()}
        elements.append((f"s{i:03d}", mapping))
    return _canonicalize(ExtensionDocument(S.atom_count, k, elements, None, metadata))


def emit(doc) -> str:
    """Canonical byte-stable serialization of a ``cli.ExtensionDocument``."""
    from .cli import _canonicalize

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


def _cmd_gen(args):
    """``cartanlab gen``: (exit code, text lines, JSON payload)."""
    from .cli import _load, _write

    if args.kind == "product":
        if len(args.params) != 2:
            raise FormatError("gen product needs two documents")
        doc = generate("product", (_load(args.params[0]), _load(args.params[1])))
    else:
        if len(args.params) != 1:
            raise FormatError(f"gen {args.kind} needs exactly one parameter, got {len(args.params)}")
        doc = generate(args.kind, args.params[0], guard=args.guard)
    text = emit(doc)
    if args.out:
        _write(args.out, text)
        return 0, [f"wrote {args.out}"], {"written": args.out}
    return 0, [text.rstrip("\n")], {"document": json.loads(text)}
