"""Built-in monoid constructors: rook monoids, block monoids, products."""

from __future__ import annotations

import itertools

from .errors import DomainError, SizeGuardError
from .semigroup_core import FiniteInverseMonoid, PartialBijection, mask_of

__all__ = ["rook_monoid", "eqrel_monoid", "product_monoid", "ROOK_GUARD"]

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
