"""Twisted extensions of a finite inverse monoid by mu_k-phased partial
identities: cocycle tables, the twisted product, order-preserving sections,
the section cocycle alpha, the phase correction sigma, the diagonal part
Delta, and the cohomology/equivalence decision procedures.

Phases are exponents of a fixed primitive k-th root of unity and all phase
arithmetic is exact integer arithmetic mod k.  sigma, alpha and Delta are
formed on element ids from the section's dense phase rows (``_sigma``),
the form in which ``kernel_rep`` builds the columns of every lambda.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import DomainError, FormatError, InvariantViolation, SizeGuardError
from .semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    bits,
    compose,
    relabelings,
    with_zero_phases,
)

__all__ = [
    "CocycleTable",
    "Extension",
    "Section",
    "point_coboundary_table",
    "point_cocycle_table",
    "validate_cocycle",
    "order_preserving_section",
    "validate_section",
    "lausch_alpha",
    "sigma",
    "delta",
    "cohomologous",
    "extensions_equivalent",
    "EQUIV_GUARD",
]

EQUIV_GUARD = 40


def _rank(mask: int, atom: int) -> int:
    return (mask & ((1 << atom) - 1)).bit_count()


class CocycleTable:
    """Normalized 2-cocycle c : S x S -> phase-exponent arrays.

    ``entries[(s, t)]`` is the exponent array over dom(st) (domain atoms in
    increasing order).  Pairs with an empty product implicitly carry the
    empty array; any other missing pair is an input error, never a default.
    """

    def __init__(self, k: int, entries: dict):
        self.k = k
        self.entries = entries

    def entry(self, s: PartialBijection, t: PartialBijection) -> tuple[int, ...]:
        st = compose(s, t)
        if st.domain == 0:
            return ()
        try:
            return self.entries[(s, t)]
        except KeyError:
            raise FormatError(f"missing cocycle entry for ({s}, {t})") from None

    def entry_at(self, s: PartialBijection, t: PartialBijection, atom: int) -> int:
        st = compose(s, t)
        if not st.domain:
            return 0
        return self.entry(s, t)[_rank(st.domain, atom)]


def _dense(n: int, mask: int, values) -> list[int]:
    """Values aligned with the atoms of ``mask``, spread over all n atoms."""
    out = [0] * n
    for y, v in zip(bits(mask), values):
        out[y] = v
    return out


def _phase_rows(S: FiniteInverseMonoid, c: CocycleTable | None) -> list[list[list[int]]]:
    """rows[i][j][y] = c(e_i, e_j) at atom y, dense over atoms.

    Entries with an empty product are zero; a missing entry, or one with
    fewer phases than dom(e_i e_j) has atoms, raises FormatError.  All-zero
    entries (by normalization every entry with an idempotent factor) share
    one read-only zero row.  The trivial twist, c None, is one shared row of
    zero rows for every id: O(|S|), and no product is formed.
    """
    n = S.atom_count
    zero = [0] * n
    if c is None:
        return [[zero] * len(S)] * len(S)
    els, mul = S.elements, S.mul
    rows = []
    for s, mrow in zip(els, mul):
        row = []
        for t, st in zip(els, mrow):
            dom = els[st].domain
            if not dom:
                row.append(zero)
                continue
            arr = c.entries.get((s, t))
            if arr is None:
                raise FormatError(f"missing cocycle entry for ({s}, {t})")
            if len(arr) < dom.bit_count():
                raise FormatError(f"cocycle entry for ({s}, {t}) has too few phases")
            row.append(_dense(n, dom, arr) if any(arr) else zero)
        rows.append(row)
    return rows


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


class CocycleReport:
    def __init__(self, supported: bool, normalized: bool, identity_holds: bool, violations=()):
        self.supported = supported
        self.normalized = normalized
        self.identity_holds = identity_holds
        self.violations = list(violations)

    def __eq__(self, other):
        return isinstance(other, CocycleReport) and vars(self) == vars(other)

    @property
    def passed(self):
        return self.supported and self.normalized and self.identity_holds

    def to_lines(self):
        lines = [
            f"cocycle_support: {'pass' if self.supported else 'FAIL'}",
            f"cocycle_normalized: {'pass' if self.normalized else 'FAIL'}",
            f"cocycle_identity: {'pass' if self.identity_holds else 'FAIL'}",
        ]
        for v in self.violations[:10]:
            lines.append(f"  violated: {v}")
        return lines


def validate_cocycle(S: FiniteInverseMonoid, k: int, c: CocycleTable | None) -> CocycleReport:
    """Check support, normalization, and the cocycle identity on all triples.

    The identity, pointwise on dom(stu):
        c(t,u)(y) + c(s,tu)(y) = c(s,t)(u(y)) + c(st,u)(y)  (mod k)

    The verdict is decided on the points of R, the union of the graphs.
    One pass over the pairs of element ids (products from the Cayley table
    S.mul) checks support and normalization, and checks that the table is
    local: every phase c(s,t)(y) equals cp[s(t(y)), t(y), y], the first
    value seen for that point triple.  For a local table the four terms of
    the identity at (s, t, u) and y are cp[x,z,y], cp[w,x,y], cp[w,x,z] and
    cp[w,z,y] on the chain w <- x <- z <- y of R with z = u(y), x = t(z),
    w = s(x), and every chain of R arises from some triple.  So the identity
    holds on all triples iff
        cp[x,z,y] + cp[w,x,y] - cp[w,x,z] - cp[w,z,y] = 0  (mod k)
    on every chain: sum b^4 checks over the blocks of R.  A table that
    fails support, normalization, locality or a chain gets the id-level
    loop over all triples, which lists the identity violations.

    Violations are listed in (s, t) or (s, t, u) element order: support,
    then normalization, then identity.  A missing entry raises FormatError;
    everything else lands in the report.  The trivial twist, c None, is the
    zero table: supported, normalized, and every term of the identity
    vanishes, so it passes without a loop.
    """
    if c is None:
        return CocycleReport(True, True, True)
    if c.k != k:
        raise FormatError(f"cocycle table has k={c.k}, expected {k}")
    n, els, mul, img, entries = S.atom_count, S.elements, S.mul, S.images, c.entries
    idem = set(S.idempotent_ids)
    atoms = S.domain_atoms
    support, normalization = [], []
    cp = [None] * n**3  # cp[(x*n + z)*n + y]: the phase on the points z <- y, x <- z
    local = True
    for i, s in enumerate(els):
        for j, t in enumerate(els):
            st = mul[i][j]
            ys, arr = atoms[st], entries.get((s, t))
            if not ys:
                if arr:
                    support.append(("support", s, t))
                continue
            if arr is None:
                raise FormatError(f"missing cocycle entry for ({s}, {t})")
            if len(arr) != len(ys) or any(not 0 <= p < k for p in arr):
                support.append(("support", s, t))
            if (i in idem or j in idem) and any(arr):
                normalization.append(("normalization", s, t))
            x_of, z_of = img[st], img[j]
            for y, p in zip(ys, arr):
                key = (x_of[y] * n + z_of[y]) * n + y
                if cp[key] is None:
                    cp[key] = p
                elif cp[key] != p:
                    local = False

    violations = support + normalization
    if local and not violations and _point_identity_holds(n, k, cp, img):
        return CocycleReport(True, True, True)
    identity = _identity_violations(S, k, c)
    return CocycleReport(not support, not normalization, not identity, violations + identity)


def _point_identity_holds(n: int, k: int, cp: list, img: list) -> bool:
    """The cocycle identity of the point cocycle ``cp`` on every chain
    w <- x <- z <- y of R; ``img`` holds the dense image rows of S."""
    succ = [sorted({row[y] for row in img} - {-1}) for y in range(n)]  # x with (x, y) in R
    for y in range(n):
        for z in succ[y]:
            for x in succ[z]:
                c_xzy = cp[(x * n + z) * n + y]
                for w in succ[x]:
                    wx = (w * n + x) * n
                    if (c_xzy + cp[wx + y] - cp[wx + z] - cp[(w * n + z) * n + y]) % k:
                        return False
    return True


def _identity_violations(S: FiniteInverseMonoid, k: int, c: CocycleTable) -> list:
    """The id-level identity loop: every triple (s, t, u) whose identity
    fails at some atom, in element order, reading the table's dense rows."""
    els, mul, img = S.elements, S.mul, S.images
    rows, atoms = _phase_rows(S, c), S.domain_atoms
    violations = []
    for i, s in enumerate(els):
        row_s = rows[i]
        for j, t in enumerate(els):
            st = mul[i][j]
            if not atoms[st]:
                continue
            c_st, row_t, row_st, mul_st, mul_t = row_s[j], rows[j], rows[st], mul[st], mul[j]
            for l, u in enumerate(els):
                c_tu, c_s_tu, c_st_u, u_img = row_t[l], row_s[mul_t[l]], row_st[l], img[l]
                for y in atoms[mul_st[l]]:
                    if (c_tu[y] + c_s_tu[y] - c_st[u_img[y]] - c_st_u[y]) % k:
                        violations.append(("identity", s, t, u))
                        break
    return violations


class Extension:
    """An extension of S by mu_k-phased partial identities, presented by a
    normalized cocycle table.  Elements are Lausch pairs (bijection, phases)
    with the twisted product.

    The product and inverse are computed on element ids: a phased element
    is an id of S plus a phase row dense over atoms (zero off the domain),
    products come from the Cayley table S.mul and cocycle phases from the
    table's rows, both built on first use.  ``multiply`` and ``dagger`` are
    the element-level forms of ``_product`` and ``_dagger``.

    ``cocycle`` None is the trivial twist: no table is built, and every
    phase row is one shared zero row.
    """

    def __init__(self, S: FiniteInverseMonoid, k: int, cocycle: CocycleTable | None = None):
        if k < 1:
            raise DomainError("phase order k must be >= 1")
        self.S = S
        self.k = k
        self.cocycle = cocycle
        self.unit = with_zero_phases(S.one)
        self.zero = with_zero_phases(S.zero)

    @cached_property
    def elements(self) -> list[PhasedElement]:
        """In canonical order: S's order, then phases lexicographically."""
        k = range(self.k)
        return [PhasedElement(s, p) for s in self.S for p in itertools.product(k, repeat=s.domain.bit_count())]

    @cached_property
    def phased_identities(self) -> list[PhasedElement]:
        return [v for v in self.elements if v.is_phased_identity()]

    @cached_property
    def _rows(self) -> list[list[list[int]]]:
        return _phase_rows(self.S, self.cocycle)

    @cached_property
    def coboundary(self) -> list[list[int]] | None:
        """b with c = delta b, c(s,t)(y) = b(s)(t(y)) + b(t)(y) - b(st)(y) mod k,
        as dense phase rows by element id, solved once: zero for the trivial
        twist, None for a table that is not a coboundary (so not a cocycle),
        and DomainError, on every read, when S lacks a one-point map."""
        singles = _one_point_maps(self.S)
        if self.cocycle is None:
            return [[0] * self.S.atom_count] * len(self.S)
        return _coboundary_witness(self.S, self.k, singles, _phase_rows(self.S, None), self._rows)

    def _product(self, i: int, a: list[int], j: int, b: list[int]) -> tuple[int, list[int]]:
        """(e_i, a)(e_j, b) = (e_i e_j, p), p(y) = a(e_j(y)) + b(y) + c(e_i, e_j)(y)."""
        st = self.S.mul[i][j]
        c, tj, k = self._rows[i][j], self.S.images[j], self.k
        p = [0] * self.S.atom_count
        for y in self.S.domain_atoms[st]:
            p[y] = (a[tj[y]] + b[y] + c[y]) % k
        return st, p

    def _dagger(self, i: int, a: list[int]) -> tuple[int, list[int]]:
        """(e_i, a)^dag = (e_i^dag, p), p(z) = -a(e_i^dag(z)) - c(e_i, e_i^dag)(z)."""
        sd = self.S.inv[i]
        c, back, k = self._rows[i][sd], self.S.images[sd], self.k
        p = [0] * self.S.atom_count
        for z in self.S.domain_atoms[sd]:
            p[z] = (-a[back[z]] - c[z]) % k
        return sd, p

    def _id(self, s: PartialBijection) -> int:
        i = self.S.index.get(s)
        if i is None:
            raise DomainError(f"{s} is not an element of the monoid")
        return i

    def _id_row(self, v: PhasedElement) -> tuple[int, list[int]]:
        return self._id(v.bij), _dense(self.S.atom_count, v.bij.domain, v.phases)

    def _phased(self, i: int, p: list[int]) -> PhasedElement:
        return PhasedElement(self.S.elements[i], tuple(p[y] for y in self.S.domain_atoms[i]))

    def multiply(self, v: PhasedElement, w: PhasedElement) -> PhasedElement:
        return self._phased(*self._product(*self._id_row(v), *self._id_row(w)))

    def dagger(self, v: PhasedElement) -> PhasedElement:
        return self._phased(*self._dagger(*self._id_row(v)))

    def __repr__(self):
        return f"Extension(|S|={len(self.S)}, k={self.k})"


class Section:
    """A section of the quotient map: one phased lift per element of S.

    ``rows[i]`` is the phase row of j(e_i), dense over atoms, as the id-level
    product reads it; ``dense_rows`` builds the rows unless the constructor
    got them, after checking that each lift lies over its element.
    """

    def __init__(self, values: dict, rows: list | None = None):
        self.values = values
        self.rows = rows

    def __eq__(self, other):  # the rows are a cache of the values
        return isinstance(other, Section) and self.values == other.values

    def __getitem__(self, s: PartialBijection) -> PhasedElement:
        return self.values[s]

    def dense_rows(self, S: FiniteInverseMonoid) -> list[list[int]]:
        if self.rows is None:
            for s in S:
                if s not in self.values or self.values[s].bij != s:
                    raise DomainError(f"not a section at {s}")
            self.rows = [_dense(S.atom_count, s.domain, self.values[s].phases) for s in S.elements]
        return self.rows

    def items(self):
        return self.values.items()


def order_preserving_section(ext: Extension) -> Section:
    """Construct a deterministic order-preserving section.

    Steps: lift idempotents with zero phases; build the maximal pairwise
    meet-orthogonal set B containing 1 greedily in canonical order; lift B;
    extend below B by j(se) = j(s) j(e); lift each remaining t by perturbing
    the zero lift with the phased identity glued from h_s = w^dag j(t ^ s).
    On a finite atom set the glued supports exhaust dom(t) exactly (density
    is totality here), which is checked (InvariantViolation otherwise).

    Lifts on B are -b for the extension's coboundary witness b, which makes
    the returned section a homomorphism and hence compatible with the
    inverse operation.  On a downward-closed monoid every valid table is a
    coboundary, so a missing witness means the table is not a cocycle and
    raises DomainError.  Only when the monoid lacks one-point maps (no
    witness can be computed) are zero-phase lifts, which need not be
    homomorphic, the fallback.  For the trivial twist (no table) the witness
    is zero and the section is the zero-phase lift of every element; an
    explicit table of zeros gets the same zero witness from the search.

    Lifts are built as dense phase rows on element ids with the extension's
    id-level product.
    """
    S, k, n = ext.S, ext.k, ext.S.atom_count
    els, index = S.elements, S.index
    try:
        witness = ext.coboundary
    except DomainError:  # no one-point maps: the zero lifts
        witness = [[0] * n] * len(els)
    if witness is None:
        raise DomainError(
            "cocycle table is not a coboundary, so it is not a valid cocycle; "
            "run 'cartanlab validate' on the document"
        )

    zero_row = [0] * n  # read-only, shared
    idem = S.idempotent_ids
    j: dict[int, list[int]] = {e: zero_row for e in idem}  # id -> dense phase row

    # Meets by graph bitmasks: the meet of s and t has graph(s) & graph(t),
    # so s is meet-orthogonal to all of B iff its graph misses their union.
    B, B_graphs = [S.one], S.one.graph
    for s in S:
        if s.domain and not s.graph & B_graphs:
            B.append(s)
            B_graphs |= s.graph

    for s in B:
        i = index[s]
        lift = [-p % k for p in witness[i]]
        for e in idem:
            if not els[e].domain & ~s.domain:  # e <= s^dag s
                se, val = ext._product(i, lift, e, j[e])
                if se in j and j[se] != val:
                    raise DomainError(f"inconsistent section assignment at {els[se]}")
                j[se] = val

    for t_id, t in enumerate(els):
        if t_id in j:
            continue
        td, w_dag = ext._dagger(t_id, zero_row)
        h, covered = [0] * n, 0
        for s in B:
            meet_graph = t.graph & s.graph
            if not meet_graph:
                continue
            m = S.id_of_graph.get(meet_graph)
            if m is None:
                raise DomainError(f"the meet of {t} and {s} is not an element of the monoid")
            hs, h_s = ext._product(td, w_dag, m, j[m])
            dom = els[hs].domain
            if covered & dom:
                y = next(bits(covered & dom))
                raise InvariantViolation(f"glued supports overlap at atom {y} for {t}")
            covered |= dom
            for y in bits(dom):
                h[y] = h_s[y]
        if covered != t.domain:
            raise InvariantViolation(f"glued supports do not cover dom({t})")
        _, j[t_id] = ext._product(t_id, zero_row, S.mul[td][t_id], h)

    return Section({s: ext._phased(i, j[i]) for i, s in enumerate(els)}, [j[i] for i in range(len(els))])


class SectionReport:
    def __init__(self, is_section: bool, cond_a: bool, cond_b: bool, cond_c: bool, witnesses=None):
        self.is_section = is_section
        self.cond_a = cond_a
        self.cond_b = cond_b
        self.cond_c = cond_c
        self.witnesses = {} if witnesses is None else witnesses

    def __eq__(self, other):
        return isinstance(other, SectionReport) and vars(self) == vars(other)

    @property
    def passed(self):
        return self.is_section and self.cond_a and self.cond_b and self.cond_c

    def to_lines(self):
        out = [
            f"section: {'pass' if self.is_section else 'FAIL'}",
            f"order_preserving_a: {'pass' if self.cond_a else 'FAIL'}",
            f"product_form_b: {'pass' if self.cond_b else 'FAIL'}",
            f"meet_form_c: {'pass' if self.cond_c else 'FAIL'}",
        ]
        for key, w in self.witnesses.items():
            out.append(f"  {key} witness: {w}")
        return out


def validate_section(ext: Extension, j: Section) -> SectionReport:
    """Check the three equivalent order-preservation conditions independently.

    (a) j(1) = 1 and s <= t implies j(s) <= j(t);
    (b) j(esf) = j(e) j(s) j(f) for idempotents e, f;
    (c) j(s ^ t) = j(s) ^ j(t) and j(1) = 1.
    They must agree for any section; disagreement indicates a bug.

    The pass verdict is decided on the points of R when all of these hold:
    S is closed and holds every idempotent of the atom set, so every meet
    is in S; every lift's phase at y is in 0..k-1 and depends only on the
    point (s(y), y); the phase at every diagonal point is zero, so
    idempotent lifts are zero; and the table's rows c(e, .) and c(., e) are
    zero for every idempotent e.  Then a restriction, a meet and a product
    esf read the same point phases as the lifts they come from, and (a),
    (b) and (c) hold.

    Otherwise all three are walks over element ids on the lifts' dense
    phase rows, which find the witnesses.  s <= t iff graph(s) lies inside
    graph(t), and s ^ t, looked up by the graph graph(s) & graph(t), is s
    restricted to A(s,t), the atoms where s and t agree.  So (a) compares
    the rows of s and t on dom(s) when s <= t, and (c) holds at (s, t) iff
    the rows of s, t and s ^ t agree on A(s,t) = dom(s ^ t).
    (b) uses the id-level twisted product.  Witnesses are the first failing
    pair or triple in element order.  A meet missing from S raises
    DomainError.
    """
    rows = j.dense_rows(ext.S)
    if _lifts_on_points(ext, rows):
        return SectionReport(True, True, True, True)
    return _section_loops(ext, rows)


def _lifts_on_points(ext: Extension, rows: list) -> bool:
    """The point conditions under which ``validate_section`` passes without
    its loops."""
    S, k, n = ext.S, ext.k, ext.S.atom_count
    els, idem = S.elements, S.idempotent_ids
    if len(idem) != 1 << n or S.closure_witness() is not None:
        return False
    phase = [None] * (n * n)  # phase[x*n + y]: the lifts' phase at the point y -> x
    for s, row, image in zip(els, rows, S.images):
        for y in bits(s.domain):
            key, p = image[y] * n + y, row[y]
            if phase[key] is None:
                if not 0 <= p < k:
                    return False
                phase[key] = p
            elif phase[key] != p:
                return False
    if any(phase[y * n + y] for y in range(n)):
        return False
    if ext.cocycle is None:
        return True
    c = ext._rows
    return not any(any(c[e][i]) or any(c[i][e]) for e in idem for i in range(len(els)))


def _section_loops(ext: Extension, rows: list) -> SectionReport:
    """Conditions (a), (b) and (c) as walks over element ids, with the
    first witness of each."""
    S = ext.S
    S.mul  # a product missing from S raises ClosureError before a meet is looked up
    els, idem, atoms = S.elements, S.idempotent_ids, S.domain_atoms
    unit_ok = not any(rows[S.index[S.one]])

    cond_a = cond_c = unit_ok
    wit_a = wit_c = None
    for i, s in enumerate(els):
        if not (cond_a or cond_c):
            break
        r_s, g_s = rows[i], s.graph
        for t_id, t in enumerate(els):
            r_t = rows[t_id]
            if cond_a and not g_s & ~t.graph:  # s <= t
                if any(r_s[y] != r_t[y] for y in atoms[i]):
                    cond_a, wit_a = False, (s, t)
            if cond_c:
                m = S.id_of_graph.get(g_s & t.graph)  # s ^ t, defined on A(s,t)
                if m is None:
                    raise DomainError(f"the meet of {s} and {t} is not an element of the monoid")
                r_m = rows[m]
                if any(r_s[y] != r_t[y] or r_m[y] != r_s[y] for y in atoms[m]):
                    cond_c, wit_c = False, (s, t)

    cond_b, wit_b = True, None
    for e in idem:
        left = [ext._product(e, rows[e], i, r) for i, r in enumerate(rows)]  # j(e) j(s)
        for f in idem:
            for i, s in enumerate(els):
                esf, rhs = ext._product(*left[i], f, rows[f])
                if rows[esf] != rhs:
                    cond_b, wit_b = False, (els[e], s, els[f])
                    break
            if not cond_b:
                break
        if not cond_b:
            break

    found = {"a": wit_a, "b": wit_b, "c": wit_c}
    witnesses = {key: w for key, w in found.items() if w is not None}
    return SectionReport(True, cond_a, cond_b, cond_c, witnesses)


def _sigma(ext: Extension, rows: list, i: int, a: list[int], t: int) -> tuple[int, list[int]]:
    """sigma((e_i, a), e_t) = j(e_i e_t)^dag (e_i, a) j(e_t) on element ids,
    with ``rows`` the section's dense phase rows: the id and phase row of a
    phased identity (InvariantViolation otherwise, naming v and s)."""
    vt, p = ext._product(i, a, t, rows[t])
    sig, phase = ext._product(*ext._dagger(vt, rows[vt]), vt, p)
    if not ext.S.elements[sig].is_idempotent():
        v, s = ext._phased(i, a), ext.S.elements[t]
        raise InvariantViolation(f"sigma{(v, s)} = {ext._phased(sig, phase)} is not a phased identity")
    return sig, phase


def lausch_alpha(ext: Extension, j: Section, s: PartialBijection, t: PartialBijection) -> PhasedElement:
    """alpha(s,t) = j(st)^dag j(s) j(t) = sigma(j(s), t); the section
    cocycle, valued in P."""
    rows, i = j.dense_rows(ext.S), ext._id(s)
    return ext._phased(*_sigma(ext, rows, i, rows[i], ext._id(t)))


def sigma(ext: Extension, j: Section, v: PhasedElement, s: PartialBijection) -> PhasedElement:
    """sigma(v,s) = j(q(v)s)^dag v j(s); the phase correction, valued in P."""
    return ext._phased(*_sigma(ext, j.dense_rows(ext.S), *ext._id_row(v), ext._id(s)))


def delta(ext: Extension, j: Section, v: PhasedElement) -> PhasedElement:
    """Delta(v) = v j(q(v) ^ 1); the diagonal part of v, valued in P.

    q(v) ^ 1 is the partial identity on the fixed points of q(v), whose
    graph is graph(q(v)) & graph(1); v times it is v restricted to those
    points, a phased identity."""
    S = ext.S
    f = S.id_of_graph.get(v.bij.graph & S.one.graph)
    if f is None:
        raise DomainError(f"the meet of {v.bij} and 1 is not an element of the monoid")
    return ext._phased(*ext._product(*ext._id_row(v), f, j.dense_rows(S)[f]))


def cohomologous(S: FiniteInverseMonoid, k: int, c1: CocycleTable | None, c2: CocycleTable | None):
    """Find b with c2(s,t) = c1(s,t) + b(s) o t + b(t) - b(st) (mod k);
    a table given as None is the zero table.

    Normalization forces any witness to be restriction compatible, hence
    determined by its values on one-point maps: a function b on related atom
    pairs vanishing on the diagonal.  The difference table is likewise
    forced to be graph-local, so b can be solved in closed form by gauge
    fixing against a root atom of each block: b(x, z) := d(x, z, r), where
    d(x, z, y) is the difference entry on the singleton pair z<-y, x<-z.
    Any other witness differs from this one by a gauge term that does not
    change the coboundary, so the construction is complete: if verification
    of the candidate fails, no witness exists.

    The check of the candidate runs over element ids, reading products
    from the Cayley table S.mul and phases from both tables' dense rows.
    When both tables are None the witness is zero and no pair is read.

    Returns b as a dict s -> phase tuple, or None if not cohomologous.
    """
    singles = _one_point_maps(S)
    if c1 is None and c2 is None:
        return {s: (0,) * s.domain.bit_count() for s in S}
    b = _coboundary_witness(S, k, singles, _phase_rows(S, c1), _phase_rows(S, c2))
    return None if b is None else {s: tuple(b[i][y] for y in S.domain_atoms[i]) for i, s in enumerate(S)}


def _one_point_maps(S: FiniteInverseMonoid) -> dict:
    """Point (x, y) of R -> id of the one-point map y -> x, in point order;
    DomainError if one is missing from S."""
    n, singles = S.atom_count, {}
    for x, y in S.points:
        m = S.id_of_graph.get(1 << (x * n + y))
        if m is None:
            raise DomainError("cohomologous needs a downward-closed monoid (singletons present)")
        singles[(x, y)] = m
    return singles


def _coboundary_witness(S: FiniteInverseMonoid, k: int, singles: dict, rows1: list, rows2: list):
    """``cohomologous`` on the tables' dense phase rows, given the one-point
    maps of S; the witness as dense phase rows by element id, or None."""
    pts = list(singles)

    def diff(x, z, y):
        # difference entry on the composable singleton pair, at atom y
        a, b = singles[(x, z)], singles[(z, y)]
        return (rows2[a][b][y] - rows1[a][b][y]) % k

    root = {}
    for x, y in pts:
        root.setdefault(y, min(z for (w, z) in pts if w == y))
    b_pts = {}
    for x, z in pts:
        r = root[z]
        b_pts[(x, z)] = diff(x, z, r)

    els, mul, img, atoms = S.elements, S.mul, S.images, S.domain_atoms
    bd = [_dense(S.atom_count, s.domain, (b_pts[p] for p in s.pairs())) for s in els]
    for i in range(len(els)):
        r1, r2, b_s = rows1[i], rows2[i], bd[i]
        for j, st in enumerate(mul[i]):
            c1_st, c2_st, b_t, b_st, t_img = r1[j], r2[j], bd[j], bd[st], img[j]
            for y in atoms[st]:
                if (c2_st[y] - c1_st[y] - b_s[t_img[y]] - b_t[y] + b_st[y]) % k:
                    return None
    if any(b_pts[(x, y)] for x, y in pts if x == y):
        return None
    return bd


def extensions_equivalent(ext1: Extension, ext2: Extension, guard: int = EQUIV_GUARD):
    """Decide equivalence of two extensions; return a witness or None.

    A witness is (perm, theta, alpha): the first atom permutation carrying
    S1 onto S2 (complete for fundamental monoids in canonical form), the
    monoid isomorphism theta it induces, and the isomorphism alpha : G1 ->
    G2 with q2(alpha(v)) = theta(q1(v)), fixing the phased identities
    through the relabeling.  With c1 = delta b1 and c2 = delta b2
    (``Extension.coboundary``), delta commutes with the relabeling, so
    alpha(s, a) = (theta(s), a o perm^-1 + b1 o theta^-1 - b2); no table is
    transported.  A table that is not a coboundary is not a cocycle, and
    its extension is equivalent to none.
    """
    if ext1.k != ext2.k:
        return None
    S1, S2 = ext1.S, ext2.S
    if len(S1) != len(S2) or S1.atom_count != S2.atom_count:
        return None
    if len(S1) > guard:
        raise SizeGuardError(len(S1), guard, "monoid size for equivalence search (--guard)")
    found = next(relabelings(S1, S2), None)
    if found is None:
        return None
    b1, b2 = ext1.coboundary, ext2.coboundary
    if b1 is None or b2 is None:
        return None

    perm, theta = found
    k, n = ext1.k, S1.atom_count
    inv_perm = tuple(perm.index(i) for i in range(n))
    alpha = {}
    for v in ext1.elements:
        s2 = theta[v.bij]
        r1, r2 = b1[S1.index[v.bij]], b2[S2.index[s2]]
        alpha[v] = PhasedElement(
            s2, tuple((v.phase_at(inv_perm[y]) + r1[inv_perm[y]] - r2[y]) % k for y in bits(s2.domain))
        )
    return perm, theta, alpha
