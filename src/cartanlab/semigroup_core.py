"""Exact arithmetic of finite inverse monoids realized as partial bijections.

Elements are partial injective maps on the atom set {0, ..., n-1}.  The
natural partial order is restriction, the meet of two elements is their
restriction to the agreement set, and orthogonal families (disjoint domains
and disjoint ranges) have a join given by the union map; on graph bitmasks
these are a subset test, AND and OR, which is how the commands decide them.
The element-level meet and join operations are in ``exact_library``.
Everything here is exact integer/bitset arithmetic; no floats.

A FiniteInverseMonoid numbers its elements by their position in
``elements`` (the element id) and builds, on first use, the id-level views
its docstring lists: the graph lookup, the composition ``product_row``
behind the Cayley table ``mul``, the inverse table ``inv`` and the others.
Loops over element ids read these; ``compose`` and ``dagger`` stay the
element-level operations.  ``groupoid_relation`` is R, the union of the
element graphs, on which the matrices of the numeric half act.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import ClosureError, DomainError, InvariantViolation, StructuralError

__all__ = [
    "PartialBijection",
    "PhasedElement",
    "FiniteInverseMonoid",
    "ClassificationReport",
    "GroupoidRelation",
    "partial_identity",
    "singleton",
    "zero_map",
    "identity_map",
    "compose",
    "dagger",
    "conjugate",
    "relabelings",
    "natural_leq",
    "classify",
    "groupoid_relation",
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


_set = object.__setattr__  # field stores of the immutable element classes


def mask_of(atoms) -> int:
    out = 0
    for a in atoms:
        out |= 1 << a
    return out


class PartialBijection:
    """A partial injective map on atoms {0, ..., n-1}.

    ``domain`` is a bitmask over atoms and ``image`` lists the image of each
    domain atom, domain atoms taken in increasing order.  ``<`` is the
    canonical element order: by domain bitmask, then image tuple.  Instances
    are immutable: the hash is computed once, at construction, and the
    ``graph`` bitmask on first use.
    """

    __slots__ = ("n", "domain", "image", "_hash", "_graph")

    def __init__(self, n: int, domain: int, image: tuple[int, ...]):
        if n < 1:
            raise StructuralError("atom count must be >= 1")
        if domain >> n:
            raise StructuralError("domain bitmask exceeds atom count")
        if len(image) != domain.bit_count():
            raise StructuralError("image length must match domain size")
        if any(not 0 <= y < n for y in image):
            raise StructuralError("image atom out of range")
        if len(set(image)) != len(image):
            raise StructuralError("map is not injective")
        _set(self, "n", n)
        _set(self, "domain", domain)
        _set(self, "image", image)
        _set(self, "_hash", hash((n, domain, image)))
        _set(self, "_graph", None)

    def __setattr__(self, name, *value):  # also __delattr__, which passes no value
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not PartialBijection:
            return NotImplemented
        return self.domain == other.domain and self.image == other.image and self.n == other.n

    def __lt__(self, other):
        return (self.n, self.domain, self.image) < (other.n, other.domain, other.image)

    def __hash__(self):
        return self._hash

    @property
    def range_mask(self) -> int:
        return mask_of(self.image)

    @property
    def graph(self) -> int:
        """The graph points as a bitmask, bit x*n + y for y -> x: t <= s iff
        graph(t) lies inside graph(s), the meet's graph is graph(s) &
        graph(t), and an orthogonal pair's join has graph(s) | graph(t)."""
        if self._graph is None:
            _set(self, "_graph", mask_of(x * self.n + y for x, y in self.pairs()))
        return self._graph

    def pairs(self):
        """Yield (x, y) graph points, i.e. y in the domain with x = self(y)."""
        for y, x in zip(bits(self.domain), self.image):
            yield (x, y)

    def apply(self, atom: int) -> int:
        if not (self.domain >> atom) & 1:
            raise DomainError(f"atom {atom} not in domain")
        rank = (self.domain & ((1 << atom) - 1)).bit_count()
        return self.image[rank]

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


def _canonical_key(s: PartialBijection):
    return (s.domain, s.image)


class FiniteInverseMonoid:
    """A finite set of partial bijections on a common atom set.

    The element list is deduplicated and canonically sorted (domain bitmask,
    then image tuple); an element's id is its position in ``elements``.
    0 and 1 are always materialized; ``added`` records any that were
    missing from the input.  Closure is *not* enforced at construction:
    ``check_closed`` raises its first witness and ``closure_witness`` returns it.

    Views by element id, each built on first use and kept: ``id_of_graph``
    (graph bitmask -> id); ``point_maps[x, y]``, the id of the one-point map
    y -> x for each point (x, y) of R; ``product_row(i, js)``, the ids of
    e_i e_j for j in js, composed on e_i's image row and looked up by graph;
    ``mul``, the Cayley table of product rows; ``inv[i]``, the id of
    dagger(e_i); ``images[i][y]`` = e_i(y), -1 off dom(e_i);
    ``domain_atoms[i]``, the atoms of dom(e_i) in increasing order;
    ``idempotent_ids``; and ``points``, the sorted points (x, y) of R.
    ``product_row`` (so ``mul``) raises ClosureError with the first missing
    product (s, t, st) in element order, ``inv`` with (s, "dagger", s^dag),
    and ``point_maps`` DomainError at the first point without its map.
    ``missing_meet`` and ``missing_join`` name a pair whose meet, or
    orthogonal pair whose join, is not in S, or are None.
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

    @cached_property
    def one(self) -> PartialBijection:
        return identity_map(self.atom_count)

    def idempotents(self) -> list[PartialBijection]:
        return [self.elements[i] for i in self.idempotent_ids]

    @cached_property
    def idempotent_ids(self) -> list[int]:
        return [i for i, e in enumerate(self.elements) if e.is_idempotent()]

    @cached_property
    def domain_atoms(self) -> list[tuple[int, ...]]:
        return [tuple(bits(s.domain)) for s in self.elements]

    @cached_property
    def id_of_graph(self) -> dict[int, int]:
        return {s.graph: i for i, s in enumerate(self.elements)}

    @cached_property
    def points(self) -> list[tuple[int, int]]:
        return sorted({p for s in self.elements for p in s.pairs()})

    @cached_property
    def point_maps(self) -> dict[tuple[int, int], int]:
        n, ids = self.atom_count, self.id_of_graph
        out = {}
        for x, y in self.points:
            t = ids.get(1 << (x * n + y))
            if t is None:
                raise DomainError("relation pair has no one-point map in S")
            out[x, y] = t
        return out

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
    def images(self) -> list[list[int]]:
        n = self.atom_count
        return [[s.apply(y) if s.domain >> y & 1 else -1 for y in range(n)] for s in self.elements]

    @cached_property
    def _graph_bits(self) -> list[tuple[int, ...]]:
        return [tuple(bits(s.graph)) for s in self.elements]

    def product_row(self, i: int, js) -> list[int]:
        # graph bit x*n + y of e_j becomes bit e_i(x)*n + y of e_i e_j, or
        # none off dom(e_i); every graph bit is a point of R, so only those
        # are spread.  No PartialBijection is built but the witness
        n, image_of, ids, graph_bits = self.atom_count, self.images[i], self.id_of_graph, self._graph_bits
        moved = [0] * (n * n)
        for x, y in self.points:
            if image_of[x] >= 0:
                moved[x * n + y] = 1 << (image_of[x] * n + y)
        row = []
        for j in js:
            graph = 0
            for p in graph_bits[j]:
                graph |= moved[p]
            st = ids.get(graph)
            if st is None:
                s, t = self.elements[i], self.elements[j]
                raise ClosureError((s, t, compose(s, t)))
            row.append(st)
        return row

    @cached_property
    def mul(self) -> list[list[int]]:
        ids = range(len(self.elements))
        return [self.product_row(i, ids) for i in ids]

    @cached_property
    def classification(self) -> ClassificationReport:
        """``classify``'s report, kept; a ClosureError is raised on every read."""
        self.check_closed()
        mul, inv = self.mul, self.inv

        actions = {}
        fundamental = True
        for i, row in enumerate(mul):
            act = tuple(mul[row[e]][inv[i]] for e in self.idempotent_ids)
            if act in actions and actions[act] != i:
                fundamental = False
                break
            actions[act] = i
        clifford = all(mul[inv[i]][i] == mul[i][inv[i]] for i in range(len(mul)))
        return ClassificationReport(
            inverse_monoid=True,
            idempotents=self.idempotents(),
            fundamental=fundamental,
            clifford=clifford,
        )

    def check_closed(self):
        """Raise ClosureError unless S is closed under dagger and compose,
        with the first missing inverse (s, "dagger", s^dag) in element
        order, or else the first missing product (s, t, st)."""
        self.inv
        self.mul

    def closure_witness(self):
        """None if closed under dagger and compose, else ``check_closed``'s
        witness."""
        try:
            self.check_closed()
        except ClosureError as exc:
            return exc.witness
        return None

    @cached_property
    def missing_meet(self):
        """The pair {u, 1}, in element order, for the first u whose meet
        with 1, of graph graph(u) & graph(1), is not in S; else None.  As
        s ^ t = s (s^dag t ^ 1) (Leech), a closed S holds every binary meet
        iff this is None."""
        one = self.one
        return next((tuple(sorted((u, one))) for u in self if u.graph & one.graph not in self.id_of_graph), None)

    @cached_property
    def missing_join(self):
        """The first orthogonal pair (s, t) of nonzero elements, in
        itertools.combinations order, whose join, of graph graph(s) |
        graph(t), is not in S; else None."""
        shapes = [(s, s.graph, s.domain, s.range_mask) for s in self.elements[1:]]  # all but the zero map
        for (s, gs, ds, rs), (t, gt, dt, rt) in itertools.combinations(shapes, 2):
            if not (ds & dt or rs & rt) and gs | gt not in self.id_of_graph:
                return s, t
        return None

    def __repr__(self):
        return f"FiniteInverseMonoid({self.atom_count} atoms, {len(self)} elements)"


class PhasedElement:
    """A partial bijection decorated with a Z_k phase exponent per domain atom.

    ``phases[i]`` is the exponent attached to the i-th domain atom of
    ``bij`` (domain atoms in increasing order).  Exponents are stored
    reduced mod k by the extension operations; this class is immutable data,
    its hash computed once, at construction.
    """

    __slots__ = ("bij", "phases", "_hash")

    def __init__(self, bij: PartialBijection, phases: tuple[int, ...]):
        if len(phases) != bij.domain.bit_count():
            raise StructuralError("phase array length must equal domain size")
        _set(self, "bij", bij)
        _set(self, "phases", phases)
        _set(self, "_hash", hash((bij, phases)))

    __setattr__ = __delattr__ = PartialBijection.__setattr__

    def __eq__(self, other):
        if other.__class__ is not PhasedElement:
            return NotImplemented
        return self.bij == other.bij and self.phases == other.phases

    def __hash__(self):
        return self._hash

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

    def __repr__(self):
        if self.bij.is_zero():
            return "<<0>>"
        body = ",".join(
            f"{y}>{x}@{p}" for (x, y), p in zip(self.bij.pairs(), self.phases)
        )
        return f"<<{body}>>"


def with_zero_phases(s: PartialBijection) -> PhasedElement:
    return PhasedElement(s, (0,) * s.domain.bit_count())


class ClassificationReport:
    """Result of classify(): closure, idempotents, fundamental, Clifford."""

    def __init__(self, inverse_monoid, idempotents, fundamental, clifford):
        self.inverse_monoid = inverse_monoid
        self.idempotents = idempotents
        self.fundamental = fundamental
        self.clifford = clifford

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
    Clifford: s^dag s = s s^dag for every s.  Computed once, kept on S.
    """
    return S.classification


class GroupoidRelation:
    """The union of element graphs: an equivalence relation on atoms."""

    def __init__(self, atom_count: int, pairs: frozenset, blocks: list):
        self.atom_count = atom_count
        self.pairs = pairs
        self.blocks = blocks

    def __len__(self):
        return len(self.pairs)


def groupoid_relation(S: FiniteInverseMonoid) -> GroupoidRelation:
    """R = union of Graph(s) over s in S, with its block partition.

    Raises InvariantViolation if R is not an equivalence relation, which
    signals a non-closed input (or a bug).
    """
    pairs = frozenset(S.points)
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
    return GroupoidRelation(n, pairs, blocks)
