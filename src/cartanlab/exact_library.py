"""The exact half's library: the functions of the package that no command
runs, kept public for callers that import the package.

- The element-level meet and join vocabulary of a Boolean inverse monoid
  (Lawson, *Inverse Semigroups*, 1998): ``meet``, ``meet_complement``,
  ``are_orthogonal`` and ``orthogonal_join`` on partial bijections, and the
  ``chop`` refinement into a meet-orthogonal family.  The commands decide
  order, meets and joins on graph bitmasks instead (``semigroup_core``).
- ``rebase_to_idempotent_atoms``, Stone duality at finite scale: S
  re-labeled onto the lattice atoms of E(S).
- The tables of point cocycles and point coboundaries.
- The element-level sigma and alpha of a section, whose id-level form
  ``_section._sigma`` builds the columns of every lambda.
- ``cohomologous``, the cohomology of two tables, from their coboundary
  witnesses.

The public paths are the package (``from cartanlab import chop``) and, for
the extension API, ``cartanlab.extension``.  ``cli`` registers this module
in ``sys.modules`` unexecuted; no command executes it.
"""

from __future__ import annotations

import itertools

from ._section import Section, _sigma
from ._twist import CocycleTable, Extension
from .boolean_monoid import idempotent_atoms
from .errors import DomainError, OrthogonalityError
from .semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    _check_same_atoms,
    bits,
    mask_of,
    natural_leq,
)

__all__ = [
    "are_orthogonal",
    "chop",
    "cohomologous",
    "lausch_alpha",
    "meet",
    "meet_complement",
    "orthogonal_join",
    "point_coboundary_table",
    "point_cocycle_table",
    "rebase_to_idempotent_atoms",
    "sigma",
]


def _agreement_mask(s: PartialBijection, t: PartialBijection) -> int:
    mask = 0
    for x, y in s.pairs():
        if (t.domain >> y) & 1 and t.apply(y) == x:
            mask |= 1 << y
    return mask


def meet(s: PartialBijection, t: PartialBijection) -> PartialBijection:
    """Greatest lower bound: restriction to the agreement set of s and t.

    With f the partial identity on the agreement set (the fixed-point
    idempotent s^dag t ^ 1) this is s.f = t.f, and (s^t)^dag (s^t) = f.
    """
    _check_same_atoms(s, t)
    return s.restrict(_agreement_mask(s, t))


def are_orthogonal(s: PartialBijection, t: PartialBijection) -> bool:
    """Disjoint domains and disjoint ranges; equivalent to s^dag t = t s^dag = 0."""
    _check_same_atoms(s, t)
    return not (s.domain & t.domain) and not (s.range_mask & t.range_mask)


def orthogonal_join(family) -> PartialBijection:
    """Union map of a pairwise orthogonal family; least upper bound."""
    members = list(family)
    if not members:
        raise DomainError("orthogonal_join needs a nonempty family")
    for a, b in itertools.combinations(members, 2):
        if not are_orthogonal(a, b):
            raise OrthogonalityError(a, b)
    n = members[0].n
    pairs = sorted((y, x) for m in members for x, y in m.pairs())
    dom = mask_of(y for y, _ in pairs)
    return PartialBijection(n, dom, tuple(x for _, x in pairs))


def meet_complement(s: PartialBijection, t: PartialBijection) -> PartialBijection:
    """s with the agreement set of s and t removed.

    This always satisfies (s minus t) v (s ^ t) = s with the two parts
    orthogonal; removing all of dom(t) instead would drop the points where
    s and t disagree.
    """
    _check_same_atoms(s, t)
    return s.restrict(s.domain & ~_agreement_mask(s, t))


def chop(inputs) -> list[PartialBijection]:
    """Refine nonzero elements into a pairwise meet-orthogonal family.

    Induction on the list: each existing piece b is split into b ^ s_N and
    b minus (b ^ s_N), then whatever part of s_N is not already covered is
    appended.  The complement is taken against the *meet* (agreement set),
    not the domain of s_N; removing the whole domain would drop the points
    where b and s_N disagree and break the covering property (d).

    The output A satisfies: 0 not in A; pairwise meet-orthogonal; every
    a in A has a ^ s_n in {a, 0} with a below some s_n; and every
    s_n is the orthogonal join of its pieces.
    """
    todo = list(inputs)
    if not todo:
        raise DomainError("chop needs a nonempty input list")
    if any(s.is_zero() for s in todo):
        raise DomainError("chop inputs must be nonzero")

    family = [todo[0]]
    for s_n in todo[1:]:
        pieces = []
        for b in family:
            for candidate in (meet(b, s_n), meet_complement(b, s_n)):
                if not candidate.is_zero() and candidate not in pieces:
                    pieces.append(candidate)
        covered = [x for x in pieces if natural_leq(x, s_n)]
        t = orthogonal_join(covered) if covered else None
        r = meet_complement(s_n, t) if t is not None else s_n
        if not r.is_zero() and r not in pieces:
            pieces.append(r)
        family = pieces
    return family


def rebase_to_idempotent_atoms(S: FiniteInverseMonoid):
    """Re-label S onto the lattice atoms of E(S).

    When E(S) is a proper Boolean subalgebra of the power set of the raw
    atoms, the canonical fundamental realization lives on the blocks: each
    minimal idempotent becomes one new atom and every element acts on blocks
    by conjugation.  Returns (S', block_supports) where block_supports[i] is
    the raw-atom bitmask of new atom i.  Requires E(S) to be Boolean.
    """
    blocks = idempotent_atoms(S)
    supports = [e.domain for e in blocks]
    union = 0
    for m in supports:
        if union & m:
            raise DomainError("idempotent atoms do not partition the unit")
        union |= m
    if union != (1 << S.atom_count) - 1:
        raise DomainError("idempotent atoms do not cover the unit")
    m = len(blocks)
    block_of = {}
    for i, sup in enumerate(supports):
        for a in bits(sup):
            block_of[a] = i

    def relabel(s: PartialBijection) -> PartialBijection:
        dom = 0
        image_by_src = {}
        for i, e in enumerate(blocks):
            r = s.restrict(e.domain)
            if r.is_zero():
                continue
            if r.domain != e.domain:
                raise DomainError("element domain is not a union of blocks")
            tgt = {block_of[x] for x in r.image}
            if len(tgt) != 1:
                raise DomainError("element does not map blocks to blocks")
            j = tgt.pop()
            if supports[j] != mask_of(r.image):
                raise DomainError("element maps a block onto a partial block")
            dom |= 1 << i
            image_by_src[i] = j
        return PartialBijection(m, dom, tuple(image_by_src[i] for i in sorted(image_by_src)))

    return FiniteInverseMonoid(m, {relabel(s) for s in S}), supports


def point_coboundary_table(S: FiniteInverseMonoid, k: int, b_points: dict) -> CocycleTable:
    """Coboundary cocycle from a function on atom pairs.

    ``b_points[(x, y)]`` is a phase exponent for each off-diagonal related
    pair; diagonal values are zero.  This induces the restriction-compatible
    b(s)(y) = b_points[(s(y), y)], and the table is its coboundary: the
    point cocycle c(x, z, y) = b(x, z) + b(z, y) - b(x, y).
    """
    b = lambda x, y: b_points.get((x, y), 0)
    return point_cocycle_table(S, k, lambda x, z, y: b(x, z) + b(z, y) - b(x, y))


def point_cocycle_table(S: FiniteInverseMonoid, k: int, c_points) -> CocycleTable:
    """Table induced by a normalized 2-cocycle on composable atom triples:
    c(s,t)(y) = c_points(s(t(y)), t(y), y)."""
    els, mul, img = S.elements, S.mul, S.images
    entries = {}
    for i, s in enumerate(els):
        for j, t in enumerate(els):
            st = mul[i][j]
            if not els[st].domain:
                continue
            sty, ty = img[st], img[j]
            entries[(s, t)] = tuple(
                c_points(sty[y], ty[y], y) % k for y in bits(els[st].domain)
            )
    return CocycleTable(k, entries)


def lausch_alpha(ext: Extension, j: Section, s: PartialBijection, t: PartialBijection) -> PhasedElement:
    """alpha(s,t) = j(st)^dag j(s) j(t) = sigma(j(s), t); the section
    cocycle, valued in P."""
    rows, i = j.dense_rows(ext.S), ext._id(s)
    return ext._phased(*_sigma(ext, rows, i, rows[i], ext._id(t)))


def sigma(ext: Extension, j: Section, v: PhasedElement, s: PartialBijection) -> PhasedElement:
    """sigma(v,s) = j(q(v)s)^dag v j(s); the phase correction, valued in P."""
    return ext._phased(*_sigma(ext, j.dense_rows(ext.S), *ext._id_row(v), ext._id(s)))


def cohomologous(S: FiniteInverseMonoid, k: int, c1: CocycleTable | None, c2: CocycleTable | None):
    """Find b with c2(s,t) = c1(s,t) + b(s) o t + b(t) - b(st) (mod k);
    a table given as None is the zero table.

    With c1 = delta b1 and c2 = delta b2, the coboundary witnesses of the
    two extensions (``Extension.coboundary``), b = b2 - b1.  A table that
    is not a coboundary is not a cocycle, and is cohomologous to no table:
    None, even when the two tables differ by a coboundary.  Normalization
    forces any witness to be restriction compatible, so b(x, z) = c2[x, z,
    r] - c1[x, z, r] on the points of R, with r the root atom of their
    block; the solve reads only the point cocycles, so S need not hold its
    one-point maps.

    Returns b as a dict s -> phase tuple, or None if not cohomologous.
    """
    b1, b2 = Extension(S, k, c1).coboundary, Extension(S, k, c2).coboundary
    if b1 is None or b2 is None:
        return None
    atoms = S.domain_atoms
    return {s: tuple((b2[i][y] - b1[i][y]) % k for y in atoms[i]) for i, s in enumerate(S)}
