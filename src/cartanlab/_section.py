"""The section layer of the extension API, which ``section`` and the
numeric half read: order-preserving sections and their check, the phase
correction sigma on element ids and the diagonal part Delta.

The section is j(s) = (s, -b(s)) for the coboundary witness b: homomorphic,
so order-preserving, and the one the paper's gluing construction returns.

sigma is formed on element ids from the section's dense phase rows
(``_sigma``), the form in which ``kernel_rep`` builds the columns of every
lambda; its element-level forms, ``sigma`` and the section cocycle
``lausch_alpha``, are in ``exact_library``.  The public path to these
names is ``cartanlab.extension``.
"""

from __future__ import annotations

from ._twist import Extension, _dense
from .errors import DomainError, InvariantViolation
from .semigroup_core import FiniteInverseMonoid, PartialBijection, PhasedElement, bits

__all__ = [
    "Section",
    "SectionReport",
    "delta",
    "order_preserving_section",
    "validate_section",
]


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
    """j(s) = (s, -b(s)) for the extension's coboundary witness b (c =
    delta b, ``Extension.coboundary``).

    In the finite case R is a pair groupoid on each block, so every
    normalized cocycle is a coboundary (Feldman-Moore), and then j(s)j(t) =
    (st, -b(s) o t - b(t) + delta b(s, t)) = j(st): j is a homomorphic
    section, so it preserves order, products with idempotents and meets,
    on every closed monoid, with or without its one-point maps.  On a
    monoid with its one-point maps it is the section the paper's
    construction glues (lifts of a maximal meet-orthogonal set B by -b,
    lifts below B, glued lifts for the rest).  The trivial twist's lifts
    are zero.  A monoid that is not closed raises ClosureError, with
    ``S.check_closed``'s witness; a table that is not a coboundary,
    DomainError.
    """
    S, k = ext.S, ext.k
    S.check_closed()
    witness = ext.coboundary
    if witness is None:
        raise DomainError(
            "cocycle table is not a coboundary, so it is not a valid cocycle; "
            "run 'cartanlab validate' on the document"
        )
    rows = [[-p % k for p in row] for row in witness]
    return Section({s: ext._phased(i, rows[i]) for i, s in enumerate(S.elements)}, rows)


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

    S must be closed (``S.check_closed`` raises ClosureError) and hold
    every meet: a pair {u, 1} whose meet is missing (``S.missing_meet``)
    raises DomainError before any condition is checked.  The pass verdict
    is then decided on the points of R when all of these hold: every
    lift's phase at y is in 0..k-1 and depends only on the point
    (s(y), y); the phase at every diagonal point is zero, so idempotent
    lifts are zero; and the table's point pass finds it normalized,
    c(e, .) and c(., e) zero for every idempotent e.  Then a restriction,
    a meet and a product esf read the same point phases as the lifts they
    come from, and (a), (b) and (c) hold.

    Otherwise all three are walks over element ids on the lifts' dense
    phase rows, which find the witnesses.  s <= t iff graph(s) lies inside
    graph(t), and s ^ t, looked up by the graph graph(s) & graph(t), is s
    restricted to A(s,t), the atoms where s and t agree.  So (a) compares
    the rows of s and t on dom(s) when s <= t, and (c) holds at (s, t) iff
    the rows of s, t and s ^ t agree on A(s,t) = dom(s ^ t).
    (b) uses the id-level twisted product.  Witnesses are the first failing
    pair or triple in element order.
    """
    S = ext.S
    rows = j.dense_rows(S)
    S.check_closed()
    if S.missing_meet is not None:
        s, t = S.missing_meet
        raise DomainError(f"the meet of {s} and {t} is not an element of the monoid")
    if _lifts_on_points(ext, rows):
        return SectionReport(True, True, True, True)
    return _section_loops(ext, rows)


def _lifts_on_points(ext: Extension, rows: list) -> bool:
    """The point conditions under which ``validate_section`` passes without
    its loops."""
    S, k, n = ext.S, ext.k, ext.S.atom_count
    phase = [None] * (n * n)  # phase[x*n + y]: the lifts' phase at the point y -> x
    for s, row, image in zip(S.elements, rows, S.images):
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
    return not ext._points[1]


def _section_loops(ext: Extension, rows: list) -> SectionReport:
    """Conditions (a), (b) and (c) as walks over element ids, with the
    first witness of each."""
    S = ext.S
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
                m = S.id_of_graph[g_s & t.graph]  # s ^ t, defined on A(s,t)
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
