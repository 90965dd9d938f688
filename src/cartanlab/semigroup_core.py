"""Exact arithmetic of finite inverse monoids realized as partial bijections.

Elements are partial injective maps on the atom set {0, ..., n-1}.  The
natural partial order is restriction, the meet of two elements is their
restriction to the agreement set, and orthogonal families (disjoint domains
and disjoint ranges) have a join given by the union map.  Everything here is
exact integer/bitset arithmetic; no floats.

A FiniteInverseMonoid numbers its elements by their position in
``elements`` (the element id) and builds, on first use, the Cayley table
``mul`` (``mul[i][j]`` is the id of e_i e_j) and the inverse table ``inv``.
Loops over all pairs or triples of elements read these tables; ``compose``
and ``dagger`` stay the element-level operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ClosureError, DomainError, OrthogonalityError, StructuralError

__all__ = [
    "PartialBijection",
    "PhasedElement",
    "FiniteInverseMonoid",
    "ClassificationReport",
    "partial_identity",
    "singleton",
    "zero_map",
    "identity_map",
    "compose",
    "dagger",
    "conjugate",
    "relabelings",
    "natural_leq",
    "meet",
    "leech_idempotent",
    "orthogonal_join",
    "relative_complement",
    "meet_complement",
    "are_orthogonal",
    "classify",
    "munn_quotient",
    "bits",
    "mask_of",
    "with_zero_phases",
]


def bits(mask: int):
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(atoms) -> int:
    out = 0
    for a in atoms:
        out |= 1 << a
    return out


@dataclass(frozen=True, order=True)
class PartialBijection:
    """A partial injective map on atoms {0, ..., n-1}.

    ``domain`` is a bitmask over atoms and ``image`` lists the image of each
    domain atom, domain atoms taken in increasing order.  The field order
    makes dataclass ordering the canonical element order: by domain bitmask,
    then image tuple.  The hash is computed once, at construction.
    """

    n: int
    domain: int
    image: tuple[int, ...]
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError("atom count must be >= 1")
        if self.domain >> self.n:
            raise StructuralError("domain bitmask exceeds atom count")
        if len(self.image) != self.domain.bit_count():
            raise StructuralError("image length must match domain size")
        if any(not 0 <= y < self.n for y in self.image):
            raise StructuralError("image atom out of range")
        if len(set(self.image)) != len(self.image):
            raise StructuralError("map is not injective")
        object.__setattr__(self, "_hash", hash((self.n, self.domain, self.image)))

    def __hash__(self):
        return self._hash

    @property
    def range_mask(self) -> int:
        return mask_of(self.image)

    def domain_atoms(self) -> tuple[int, ...]:
        return tuple(bits(self.domain))

    def pairs(self):
        """Yield (x, y) graph points, i.e. y in the domain with x = self(y)."""
        for y, x in zip(bits(self.domain), self.image):
            yield (x, y)

    def apply(self, atom: int) -> int:
        if not (self.domain >> atom) & 1:
            raise DomainError(f"atom {atom} not in domain")
        rank = (self.domain & ((1 << atom) - 1)).bit_count()
        return self.image[rank]

    def inverse_apply(self, atom: int) -> int:
        for x, y in self.pairs():
            if x == atom:
                return y
        raise DomainError(f"atom {atom} not in range")

    def is_idempotent(self) -> bool:
        return all(x == y for x, y in self.pairs())

    def is_zero(self) -> bool:
        return self.domain == 0

    def restrict(self, mask: int) -> "PartialBijection":
        """Restriction to the domain atoms selected by ``mask``."""
        keep = self.domain & mask
        image = tuple(x for x, y in self.pairs() if (keep >> y) & 1)
        return PartialBijection(self.n, keep, image)

    def __repr__(self):
        if self.domain == 0:
            return f"<0 on {self.n}>"
        body = ",".join(f"{y}>{x}" for x, y in self.pairs())
        return f"<{body} on {self.n}>"


def zero_map(n: int) -> PartialBijection:
    return PartialBijection(n, 0, ())


def identity_map(n: int) -> PartialBijection:
    return PartialBijection(n, (1 << n) - 1, tuple(range(n)))


def partial_identity(n: int, mask: int) -> PartialBijection:
    return PartialBijection(n, mask, tuple(bits(mask)))


def singleton(n: int, src: int, dst: int) -> PartialBijection:
    """The one-point map src -> dst."""
    return PartialBijection(n, 1 << src, (dst,))


def _check_same_atoms(s: PartialBijection, t: PartialBijection):
    if s.n != t.n:
        raise StructuralError(f"atom sets differ: {s.n} vs {t.n}")


def compose(s: PartialBijection, t: PartialBijection) -> PartialBijection:
    """s after t: domain = t^{-1}(range(t) & dom(s)), y -> s(t(y))."""
    _check_same_atoms(s, t)
    dom = 0
    image = []
    for x, y in t.pairs():
        if (s.domain >> x) & 1:
            dom |= 1 << y
            image.append(s.apply(x))
    return PartialBijection(s.n, dom, tuple(image))


def dagger(s: PartialBijection) -> PartialBijection:
    """Map reversal; the unique inverse in the symmetric inverse monoid."""
    pairs = sorted((x, y) for x, y in s.pairs())
    dom = mask_of(x for x, _ in pairs)
    return PartialBijection(s.n, dom, tuple(y for _, y in pairs))


def conjugate(s: PartialBijection, perm: tuple[int, ...]) -> PartialBijection:
    """Relabel the atoms of s by perm: the map perm[y] -> perm[s(y)]."""
    pairs = sorted((perm[y], perm[x]) for x, y in s.pairs())
    return PartialBijection(s.n, mask_of(y for y, _ in pairs), tuple(x for _, x in pairs))


def relabelings(S1: FiniteInverseMonoid, S2: FiniteInverseMonoid):
    """Yield (perm, theta), in itertools.permutations order, for each atom
    permutation perm that carries S1 onto S2 (both on the same atoms);
    theta maps each element s of S1 to conjugate(s, perm)."""
    target = set(S2.elements)
    for perm in itertools.permutations(range(S1.atom_count)):
        theta = {s: conjugate(s, perm) for s in S1}
        if set(theta.values()) == target:
            yield perm, theta


def natural_leq(s: PartialBijection, t: PartialBijection) -> bool:
    """True iff s = t.e for an idempotent e, i.e. s is a restriction of t."""
    _check_same_atoms(s, t)
    if s.domain & ~t.domain:
        return False
    return all(t.apply(y) == x for x, y in s.pairs())


def _agreement_mask(s: PartialBijection, t: PartialBijection) -> int:
    mask = 0
    for x, y in s.pairs():
        if (t.domain >> y) & 1 and t.apply(y) == x:
            mask |= 1 << y
    return mask


def leech_idempotent(s: PartialBijection, t: PartialBijection) -> PartialBijection:
    """The fixed-point idempotent s^dag t ^ 1 defining the meet of s and t."""
    _check_same_atoms(s, t)
    return partial_identity(s.n, _agreement_mask(s, t))


def meet(s: PartialBijection, t: PartialBijection) -> PartialBijection:
    """Greatest lower bound: restriction to the agreement set of s and t.

    With f = leech_idempotent(s, t) this is s.f = t.f, and
    (s^t)^dag (s^t) = f.
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


def relative_complement(s: PartialBijection, t: PartialBijection) -> PartialBijection:
    """s restricted to dom(s) \\ dom(t), i.e. s.(s^dag s ^ not(t^dag t)).

    Note (s\\t) v (s^t) = s only holds when s and t agree on their common
    domain (in particular when t <= s); callers that need a complement of
    the meet itself should use meet_complement.
    """
    _check_same_atoms(s, t)
    return s.restrict(s.domain & ~t.domain)


def meet_complement(s: PartialBijection, t: PartialBijection) -> PartialBijection:
    """s with the agreement set of s and t removed.

    Unlike relative_complement this always satisfies
    (s minus t) v (s ^ t) = s with the two parts orthogonal.
    """
    _check_same_atoms(s, t)
    return s.restrict(s.domain & ~_agreement_mask(s, t))


def _canonical_key(s: PartialBijection):
    return (s.domain, s.image)


class FiniteInverseMonoid:
    """A finite set of partial bijections on a common atom set.

    The element list is deduplicated and canonically sorted (domain bitmask,
    then image tuple); an element's id is its position in ``elements``.
    0 and 1 are always materialized; ``added`` records any that were
    missing from the input.  Closure is *not* enforced at construction: use
    closure_witness()/classify() to check it.

    ``mul[i][j]`` is the id of compose(e_i, e_j) and ``inv[i]`` the id of
    dagger(e_i).  Each table is built on first access and then kept: ``mul``
    composes dense image rows and looks each product up by its (domain,
    image) key, ``inv`` makes |S| dagger calls.  Building a table raises
    ClosureError with the first missing product (s, t, st), or
    (s, "dagger", s^dag), in element order.
    """

    def __init__(self, atom_count: int, elements):
        self.atom_count = atom_count
        pool = {e for e in elements}
        for e in pool:
            if e.n != atom_count:
                raise StructuralError("element over a different atom set")
        self.added = []
        for required in (zero_map(atom_count), identity_map(atom_count)):
            if required not in pool:
                pool.add(required)
                self.added.append(required)
        self.elements = sorted(pool, key=_canonical_key)
        self.index = {e: i for i, e in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        return e in self.index

    def __eq__(self, other):
        return (
            isinstance(other, FiniteInverseMonoid)
            and self.atom_count == other.atom_count
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.atom_count, tuple(self.elements)))

    @property
    def zero(self) -> PartialBijection:
        return self.elements[0]

    @property
    def one(self) -> PartialBijection:
        return identity_map(self.atom_count)

    def idempotents(self) -> list[PartialBijection]:
        return [e for e in self.elements if e.is_idempotent()]

    @cached_property
    def inv(self) -> list[int]:
        out = []
        for s in self.elements:
            sd = dagger(s)
            if sd not in self.index:
                raise ClosureError((s, "dagger", sd))
            out.append(self.index[sd])
        return out

    @cached_property
    def mul(self) -> list[list[int]]:
        # s t maps y to s(t(y)) where both are defined: compose s's dense
        # image row with t's graph points and look the (domain, image) key
        # up, so no PartialBijection is built except for the witness.
        ids = {_canonical_key(s): i for i, s in enumerate(self.elements)}
        graphs = [[(1 << y, x) for x, y in t.pairs()] for t in self.elements]
        out = []
        for s in self.elements:
            image_of = [-1] * self.atom_count
            for x, y in s.pairs():
                image_of[y] = x
            row = []
            for t, graph in zip(self.elements, graphs):
                domain = 0
                image = []
                for bit, x in graph:
                    z = image_of[x]
                    if z >= 0:
                        domain |= bit
                        image.append(z)
                st = ids.get((domain, tuple(image)))
                if st is None:
                    raise ClosureError((s, t, compose(s, t)))
                row.append(st)
            out.append(row)
        return out

    def closure_witness(self):
        """None if closed under dagger and compose, else the first witness:
        (s, "dagger", s^dag) or (s, t, st)."""
        try:
            self.inv
            self.mul
        except ClosureError as exc:
            return exc.witness
        return None

    def __repr__(self):
        return f"FiniteInverseMonoid({self.atom_count} atoms, {len(self)} elements)"


@dataclass(frozen=True)
class PhasedElement:
    """A partial bijection decorated with a Z_k phase exponent per domain atom.

    ``phases[i]`` is the exponent attached to the i-th domain atom of
    ``bij`` (domain atoms in increasing order).  Exponents are stored
    reduced mod k by the extension operations; this class is pure data.
    """

    bij: PartialBijection
    phases: tuple[int, ...]

    def __post_init__(self):
        if len(self.phases) != self.bij.domain.bit_count():
            raise StructuralError("phase array length must equal domain size")

    def phase_at(self, atom: int) -> int:
        rank = (self.bij.domain & ((1 << atom) - 1)).bit_count()
        if not (self.bij.domain >> atom) & 1:
            raise DomainError(f"atom {atom} not in domain")
        return self.phases[rank]

    def is_phased_identity(self) -> bool:
        """True iff the underlying bijection is a partial identity (member of P)."""
        return self.bij.is_idempotent()

    def is_zero(self) -> bool:
        return self.bij.is_zero()

    def sort_key(self):
        return (self.bij.domain, self.bij.image, self.phases)

    def __repr__(self):
        if self.bij.is_zero():
            return "<<0>>"
        body = ",".join(
            f"{y}>{x}@{p}" for (x, y), p in zip(self.bij.pairs(), self.phases)
        )
        return f"<<{body}>>"


def with_zero_phases(s: PartialBijection) -> PhasedElement:
    return PhasedElement(s, (0,) * s.domain.bit_count())


@dataclass
class ClassificationReport:
    """Result of classify(): closure, idempotents, fundamental, Clifford."""

    inverse_monoid: bool
    idempotents: list = field(default_factory=list)
    fundamental: bool = False
    clifford: bool = False
    added_constants: list = field(default_factory=list)

    def to_lines(self):
        return [
            f"inverse_monoid: {self.inverse_monoid}",
            f"idempotent_count: {len(self.idempotents)}",
            f"fundamental: {self.fundamental}",
            f"clifford: {self.clifford}",
        ]


def classify(S: FiniteInverseMonoid) -> ClassificationReport:
    """Closure check plus the fundamental and Clifford tests.

    Fundamental: no two distinct elements act identically on all idempotents
    by e -> s e s^dag (equivalently, the centralizer of E(S) in S is E(S)).
    Clifford: s^dag s = s s^dag for every s.
    """
    witness = S.closure_witness()
    if witness is not None:
        raise ClosureError(witness)
    mul, inv = S.mul, S.inv
    idem = S.idempotents()
    idem_ids = [S.index[e] for e in idem]

    actions = {}
    fundamental = True
    for i, row in enumerate(mul):
        act = tuple(mul[row[e]][inv[i]] for e in idem_ids)
        if act in actions and actions[act] != i:
            fundamental = False
            break
        actions[act] = i
    clifford = all(mul[inv[i]][i] == mul[i][inv[i]] for i in range(len(mul)))
    return ClassificationReport(
        inverse_monoid=True,
        idempotents=idem,
        fundamental=fundamental,
        clifford=clifford,
        added_constants=list(S.added),
    )


def munn_quotient(G, product, g_dagger):
    """Quotient a closed list of PhasedElement by the Munn congruence.

    ``product`` and ``g_dagger`` are the (twisted) multiplication and inverse
    of the ambient extension; they are injected so this module stays free of
    cocycle arithmetic.  Each v is sent to the partial bijection of atoms it
    induces by conjugation on the atom idempotents e_x -> v e_x v^dag, which
    realizes the maximal idempotent-separating quotient as a fundamental
    monoid of partial bijections.

    Returns (S, q) with q a dict from members of G to elements of S.
    """
    members = list(G)
    if not members:
        raise DomainError("empty element list")
    n = members[0].bij.n
    lookup = set(members)
    atom_idems = [with_zero_phases(partial_identity(n, 1 << x)) for x in range(n)]

    for v in members:
        if g_dagger(v) not in lookup:
            raise ClosureError((v, "dagger"))

    q = {}
    for v in members:
        dom = 0
        image = []
        for x in range(n):
            w = product(product(v, atom_idems[x]), g_dagger(v))
            if w not in lookup:
                raise ClosureError((v, atom_idems[x]))
            if w.is_zero():
                continue
            if not w.is_phased_identity() or any(p for p in w.phases):
                raise ClosureError((v, x), "conjugate of an idempotent is not idempotent")
            dom |= 1 << x
            image.append(next(iter(w.bij.pairs()))[0])
        q[v] = PartialBijection(n, dom, tuple(image))

    S = FiniteInverseMonoid(n, set(q.values()))
    # q must be idempotent separating: the fiber over E(S) is exactly the
    # phased partial identities, and on those q only forgets phases.
    idem_images = {q[v] for v in members if v.is_phased_identity()}
    expected = set(S.idempotents()) - set(S.added)
    if idem_images != expected:
        raise ClosureError(idem_images ^ expected, "idempotent fibers are inconsistent")
    for v in members:
        if q[v].is_idempotent() and not v.is_phased_identity():
            raise ClosureError(v, "non-identity element maps to an idempotent")
    return S, q
