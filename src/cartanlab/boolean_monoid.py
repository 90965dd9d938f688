"""Boolean/complete/Cartan axiom verification, Stone duality at finite scale,
the character action, the chop partition refinement, and the atom relation.

The character space of a finite Boolean algebra is its set of lattice atoms,
so every topological condition degenerates to combinatorics here: the
hyperstonean requirement is vacuous for a finite discrete space and is
reported as such rather than checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DomainError, InvariantViolation
from .semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    bits,
    classify,
    compose,
    dagger,
    mask_of,
    meet,
    meet_complement,
    natural_leq,
    orthogonal_join,
    partial_identity,
    are_orthogonal,
)

__all__ = [
    "AxiomReport",
    "GroupoidRelation",
    "check_axioms",
    "beta",
    "chop",
    "groupoid_relation",
    "idempotent_atoms",
    "rebase_to_idempotent_atoms",
    "maximal_orthogonal_families",
]


def idempotent_atoms(S: FiniteInverseMonoid) -> list[PartialBijection]:
    """Minimal nonzero idempotents of E(S)."""
    idem = [e for e in S.idempotents() if not e.is_zero()]
    out = []
    for e in idem:
        if not any(f != e and natural_leq(f, e) for f in idem):
            out.append(e)
    return out


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


@dataclass
class CheckItem:
    passed: bool
    witness: object = None
    note: str = ""

    def __bool__(self):
        return self.passed

    def render(self):
        tail = ""
        if not self.passed and self.witness is not None:
            tail = f" witness={self.witness}"
        if self.note:
            tail += f" ({self.note})"
        return ("pass" if self.passed else "FAIL") + tail


@dataclass
class AxiomReport:
    """Witness-carrying pass/fail record for the Boolean monoid axioms."""

    boolean_a: CheckItem
    boolean_b: CheckItem
    boolean_c: CheckItem
    locally_complete: CheckItem
    complete_d: CheckItem
    fundamental: bool
    cartan: bool
    hyperstonean_note: str = "finite discrete space"
    rebased: FiniteInverseMonoid | None = None
    block_supports: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(
            self.boolean_a
            and self.boolean_b
            and self.boolean_c
            and self.locally_complete
            and self.complete_d
        )

    def to_lines(self):
        return [
            f"boolean_a: {self.boolean_a.render()}",
            f"boolean_b: {self.boolean_b.render()}",
            f"boolean_c: {self.boolean_c.render()}",
            f"locally_complete: {self.locally_complete.render()}",
            f"complete_d: {self.complete_d.render()}",
            f"fundamental: {self.fundamental}",
            f"hyperstonean: pass ({self.hyperstonean_note})",
            f"cartan: {self.cartan}",
        ]


def _boolean_algebra_item(S: FiniteInverseMonoid) -> CheckItem:
    """E(S) must be the full power set over its own lattice atoms."""
    idem_masks = {e.domain for e in S.idempotents()}
    try:
        atoms = idempotent_atoms(S)
        supports = [e.domain for e in atoms]
        union = 0
        for msk in supports:
            if union & msk:
                return CheckItem(False, witness=msk, note="atoms overlap")
            union |= msk
        if union != (1 << S.atom_count) - 1:
            return CheckItem(False, witness=union, note="atoms do not cover the unit")
    except DomainError as exc:
        return CheckItem(False, note=str(exc))
    for r in range(len(supports) + 1):
        for combo in itertools.combinations(supports, r):
            msk = 0
            for c in combo:
                msk |= c
            if msk not in idem_masks:
                return CheckItem(
                    False,
                    witness=partial_identity(S.atom_count, msk),
                    note="missing idempotent",
                )
    if len(idem_masks) != 1 << len(supports):
        extra = len(idem_masks) - (1 << len(supports))
        return CheckItem(False, note=f"{extra} idempotents are not unions of atoms")
    return CheckItem(True)


def maximal_orthogonal_families(S: FiniteInverseMonoid):
    """All maximal pairwise-orthogonal families of nonzero elements."""
    nonzero = [s for s in S if not s.is_zero()]
    out = []

    def extend(family, start):
        extended = False
        for i in range(start, len(nonzero)):
            cand = nonzero[i]
            if all(are_orthogonal(cand, f) for f in family):
                extend(family + [cand], i + 1)
                extended = True
        if not extended:
            # maximal w.r.t. elements after `start`; confirm global maximality
            if all(
                not all(are_orthogonal(c, f) for f in family)
                for c in nonzero
                if c not in family
            ):
                out.append(family)

    extend([], 0)
    return out


def check_axioms(S: FiniteInverseMonoid) -> AxiomReport:
    """Verify the Boolean inverse monoid axioms (a)-(d) plus the Cartan ones.

    (a) E(S) is a Boolean algebra (full power set after atom extraction);
    (b) every pair has a meet in S; (c) orthogonal pairs have joins in S;
    (d) orthogonal-family joins, checked on maximal orthogonal families
    (binary closure plus maximal families covers the intermediate ones).
    Failures are report entries carrying witnesses, never exceptions.
    """
    report_cls = classify(S)

    a = _boolean_algebra_item(S)
    rebased = None
    supports = []
    if a and len(idempotent_atoms(S)) != S.atom_count:
        rebased, supports = rebase_to_idempotent_atoms(S)

    b = CheckItem(True)
    for s, t in itertools.combinations(S.elements, 2):
        if meet(s, t) not in S:
            b = CheckItem(False, witness=(s, t))
            break

    c = CheckItem(True)
    for s, t in itertools.combinations(S.elements, 2):
        if s.is_zero() or t.is_zero():
            continue
        if are_orthogonal(s, t) and orthogonal_join([s, t]) not in S:
            c = CheckItem(False, witness=(s, t))
            break

    # finite Boolean algebras are complete, so local completeness rides on (a)
    locally = CheckItem(a.passed, note="E(S) finite" if a.passed else "E(S) not Boolean")

    d = CheckItem(True)
    for family in maximal_orthogonal_families(S):
        if len(family) < 2:
            continue
        if orthogonal_join(family) not in S:
            d = CheckItem(False, witness=tuple(family))
            break

    cartan = bool(report_cls.fundamental and a and b and c and locally and d)
    return AxiomReport(
        boolean_a=a,
        boolean_b=b,
        boolean_c=c,
        locally_complete=locally,
        complete_d=d,
        fundamental=report_cls.fundamental,
        cartan=cartan,
        rebased=rebased,
        block_supports=supports,
    )


def beta(S: FiniteInverseMonoid, s: PartialBijection) -> PartialBijection:
    """The partial map on characters induced by e -> s^dag e s.

    Characters of E(S) are evaluations at atoms; the induced map sends the
    character at x to the character at s(x), so in the canonical realization
    beta(s) = s, which is checked.
    """
    idem = S.idempotents()
    if len(idem) != 1 << S.atom_count:
        raise DomainError(
            "beta needs the canonical realization (E(S) = power set); rebase first"
        )

    def char(x):
        return tuple(1 if (e.domain >> x) & 1 else 0 for e in idem)

    atom_chars = {char(x): x for x in range(S.atom_count)}
    dom = 0
    image = []
    src_mask = compose(dagger(s), s).domain
    for x in bits(src_mask):
        moved = tuple(
            1 if (compose(compose(dagger(s), e), s).domain >> x) & 1 else 0
            for e in idem
        )
        if moved not in atom_chars:
            raise InvariantViolation(f"character image of atom {x} is not an atom")
        dom |= 1 << x
        image.append(atom_chars[moved])
    result = PartialBijection(S.atom_count, dom, tuple(image))
    if result != s:
        raise InvariantViolation(f"character action gives {result}, not the element {s}")
    return result


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


@dataclass
class GroupoidRelation:
    """The union of element graphs: an equivalence relation on atoms."""

    atom_count: int
    pairs: frozenset
    blocks: list

    def __len__(self):
        return len(self.pairs)

    def block_of(self, atom: int):
        for b in self.blocks:
            if atom in b:
                return b
        raise DomainError(f"atom {atom} out of range")


def groupoid_relation(S: FiniteInverseMonoid) -> GroupoidRelation:
    """R = union of Graph(s) over s in S, with its block partition.

    Raises InvariantViolation if R is not an equivalence relation, which
    signals a non-closed input (or a bug).
    """
    pairs = {(x, y) for s in S for x, y in s.pairs()}
    n = S.atom_count
    for x in range(n):
        if (x, x) not in pairs:
            raise InvariantViolation(f"relation is not reflexive at atom {x}")
    for x, y in pairs:
        if (y, x) not in pairs:
            raise InvariantViolation(f"relation is not symmetric at {(x, y)}")
    for x, y in pairs:
        for y2, z in pairs:
            if y2 == y and (x, z) not in pairs:
                raise InvariantViolation(f"relation is not transitive via {(x, y, z)}")

    remaining = set(range(n))
    blocks = []
    while remaining:
        seed = min(remaining)
        block = sorted(y for (x, y) in pairs if x == seed)
        blocks.append(tuple(block))
        remaining -= set(block)
    return GroupoidRelation(n, frozenset(pairs), blocks)
