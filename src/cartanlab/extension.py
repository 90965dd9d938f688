"""Twisted extensions of a finite inverse monoid by mu_k-phased partial
identities: cocycle tables, the twisted product, order-preserving sections,
the section cocycle alpha, the phase correction sigma, the diagonal part
Delta, and the cohomology/equivalence decision procedures.

Phases are exponents of a fixed primitive k-th root of unity and all phase
arithmetic is exact integer arithmetic mod k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError, FormatError, InvariantViolation, SizeGuardError
from .semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    bits,
    compose,
    conjugate,
    dagger,
    meet,
    natural_leq,
    partial_identity,
    singleton,
    with_zero_phases,
)

__all__ = [
    "CocycleTable",
    "Extension",
    "Section",
    "trivial_cocycle",
    "coboundary_table",
    "point_coboundary_table",
    "point_cocycle_table",
    "validate_cocycle",
    "g_natural_leq",
    "g_meet",
    "order_preserving_section",
    "validate_section",
    "lausch_alpha",
    "sigma",
    "delta",
    "cohomologous",
    "is_trivial_cocycle",
    "extensions_equivalent",
    "EQUIV_GUARD",
]

EQUIV_GUARD = 40


def _rank(mask: int, atom: int) -> int:
    return (mask & ((1 << atom) - 1)).bit_count()


@dataclass(frozen=True)
class CocycleTable:
    """Normalized 2-cocycle c : S x S -> phase-exponent arrays.

    ``entries[(s, t)]`` is the exponent array over dom(st) (domain atoms in
    increasing order).  Pairs with an empty product implicitly carry the
    empty array; any other missing pair is an input error, never a default.
    """

    k: int
    entries: dict

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


def _images(S: FiniteInverseMonoid) -> list[list[int]]:
    """images[i][y] = e_i(y) for y in dom(e_i)."""
    return [_dense(S.atom_count, s.domain, s.image) for s in S]


def _phase_rows(S: FiniteInverseMonoid, c: CocycleTable) -> list[list[list[int]]]:
    """rows[i][j][y] = c(e_i, e_j) at atom y, dense over atoms.

    Entries with an empty product are zero; a missing entry, or one with
    fewer phases than dom(e_i e_j) has atoms, raises FormatError.  All-zero
    entries (every entry of a trivial table, and by normalization every
    entry with an idempotent factor) share one read-only zero row.
    """
    n = S.atom_count
    zero = [0] * n
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


def trivial_cocycle(S: FiniteInverseMonoid, k: int) -> CocycleTable:
    """Zero arrays on every pair with a nonempty product.

    |dom(st)| = |dom(s) & range(t)|, so no product is formed and S need not
    be closed.
    """
    ranges = [t.range_mask for t in S]
    entries = {}
    for s in S:
        for t, rng in zip(S, ranges):
            width = (s.domain & rng).bit_count()
            if width:
                entries[(s, t)] = (0,) * width
    return CocycleTable(k, entries)


def coboundary_table(S: FiniteInverseMonoid, k: int, base: CocycleTable, b: dict) -> CocycleTable:
    """Perturb ``base`` by the coboundary of b : S -> phase arrays.

    b[s] is aligned with the domain atoms of s; idempotents must carry zero
    arrays.  The new entry is base(s,t) + b(s) o t + b(t) - b(st).
    """
    n, els, mul = S.atom_count, S.elements, S.mul
    rows = _phase_rows(S, base)
    img = _images(S)
    bd = [_dense(n, s.domain, b[s]) for s in els]
    entries = {}
    for i, s in enumerate(els):
        for j, t in enumerate(els):
            st = mul[i][j]
            dom = els[st].domain
            if not dom:
                continue
            c, bs, bt, bst, tj = rows[i][j], bd[i], bd[j], bd[st], img[j]
            entries[(s, t)] = tuple(
                (c[y] + bs[tj[y]] + bt[y] - bst[y]) % k for y in bits(dom)
            )
    return CocycleTable(k, entries)


def point_coboundary_table(S: FiniteInverseMonoid, k: int, b_points: dict) -> CocycleTable:
    """Coboundary cocycle from a function on atom pairs.

    ``b_points[(x, y)]`` is a phase exponent for each off-diagonal related
    pair; diagonal values are zero.  This induces the restriction-compatible
    b(s)(y) = b_points[(s(y), y)] and the table is its coboundary.
    """
    b = {}
    for s in S:
        b[s] = tuple(b_points.get((s.apply(y), y), 0) for y in bits(s.domain))
    return coboundary_table(S, k, trivial_cocycle(S, k), b)


def point_cocycle_table(S: FiniteInverseMonoid, k: int, c_points) -> CocycleTable:
    """Table induced by a normalized 2-cocycle on composable atom triples:
    c(s,t)(y) = c_points(s(t(y)), t(y), y)."""
    els, mul = S.elements, S.mul
    img = _images(S)
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


@dataclass
class CocycleReport:
    supported: bool
    normalized: bool
    identity_holds: bool
    violations: list = field(default_factory=list)

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


def validate_cocycle(S: FiniteInverseMonoid, k: int, c: CocycleTable) -> CocycleReport:
    """Check support, normalization, and the cocycle identity on all triples.

    The identity, pointwise on dom(stu):
        c(t,u)(y) + c(s,tu)(y) = c(s,t)(u(y)) + c(st,u)(y)  (mod k)
    The loops run over element ids: products come from the Cayley table
    S.mul and phases from the table's rows, dense over atoms.  Violations
    are listed in (s, t) or (s, t, u) element order.  A missing entry
    raises FormatError; everything else lands in the report.
    """
    if c.k != k:
        raise FormatError(f"cocycle table has k={c.k}, expected {k}")
    els, mul = S.elements, S.mul
    violations = []
    supported = True
    for i, s in enumerate(els):
        for j, t in enumerate(els):
            width = els[mul[i][j]].domain.bit_count()
            arr = c.entries.get((s, t))
            if not width:
                if arr:
                    supported = False
                    violations.append(("support", s, t))
                continue
            if arr is None:
                raise FormatError(f"missing cocycle entry for ({s}, {t})")
            if len(arr) != width or any(not 0 <= p < k for p in arr):
                supported = False
                violations.append(("support", s, t))

    normalized = True
    for i, s in enumerate(els):
        for j, t in enumerate(els):
            if not (s.is_idempotent() or t.is_idempotent()):
                continue
            if els[mul[i][j]].domain and any(c.entries[(s, t)]):
                normalized = False
                violations.append(("normalization", s, t))

    rows = _phase_rows(S, c)
    img = _images(S)
    atoms = [tuple(bits(s.domain)) for s in els]
    identity_holds = True
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
                        identity_holds = False
                        violations.append(("identity", s, t, u))
                        break
    return CocycleReport(supported, normalized, identity_holds, violations)


class Extension:
    """An extension of S by mu_k-phased partial identities, presented by a
    normalized cocycle table.  Elements are Lausch pairs (bijection, phases)
    with the twisted product."""

    def __init__(self, S: FiniteInverseMonoid, k: int, cocycle: CocycleTable | None = None):
        if k < 1:
            raise DomainError("phase order k must be >= 1")
        self.S = S
        self.k = k
        self.cocycle = cocycle if cocycle is not None else trivial_cocycle(S, k)
        self.unit = with_zero_phases(S.one)
        self.zero = with_zero_phases(S.zero)

    @cached_property
    def elements(self) -> list[PhasedElement]:
        out = []
        for s in self.S:
            for phases in itertools.product(range(self.k), repeat=s.domain.bit_count()):
                out.append(PhasedElement(s, phases))
        return sorted(out, key=PhasedElement.sort_key)

    @cached_property
    def phased_identities(self) -> list[PhasedElement]:
        return [v for v in self.elements if v.is_phased_identity()]

    def multiply(self, v: PhasedElement, w: PhasedElement) -> PhasedElement:
        st = compose(v.bij, w.bij)
        if not st.domain:
            return PhasedElement(st, ())
        c_arr = self.cocycle.entry(v.bij, w.bij)
        phases = tuple(
            (v.phase_at(w.bij.apply(y)) + w.phase_at(y) + c) % self.k
            for y, c in zip(bits(st.domain), c_arr)
        )
        return PhasedElement(st, phases)

    def dagger(self, v: PhasedElement) -> PhasedElement:
        s = v.bij
        sd = dagger(s)
        c_ssd = self.cocycle.entry(s, sd)  # over dom(s s^dag) = range(s)
        phases = tuple(
            (-v.phase_at(s.inverse_apply(z)) - c_ssd[_rank(s.range_mask, z)]) % self.k
            for z in bits(sd.domain)
        )
        return PhasedElement(sd, phases)

    def __repr__(self):
        return f"Extension(|S|={len(self.S)}, k={self.k})"


def g_natural_leq(v: PhasedElement, w: PhasedElement) -> bool:
    """v <= w in the extension: v is a restriction of w with matching phases."""
    if not natural_leq(v.bij, w.bij):
        return False
    return all(v.phase_at(y) == w.phase_at(y) for y in bits(v.bij.domain))


def g_meet(v: PhasedElement, w: PhasedElement) -> PhasedElement:
    """Greatest lower bound: restriction to bijection-and-phase agreement."""
    mask = 0
    for x, y in v.bij.pairs():
        if (w.bij.domain >> y) & 1 and w.bij.apply(y) == x and v.phase_at(y) == w.phase_at(y):
            mask |= 1 << y
    bij = v.bij.restrict(mask)
    return PhasedElement(bij, tuple(v.phase_at(y) for y in bits(mask)))


@dataclass
class Section:
    """A section of the quotient map: one phased lift per element of S."""

    values: dict

    def __getitem__(self, s: PartialBijection) -> PhasedElement:
        return self.values[s]

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

    Lifts on B come from a coboundary witness for the table, which makes
    the returned section a homomorphism and hence compatible with the
    inverse operation.  On a downward-closed monoid every valid table is a
    coboundary, so a missing witness means the table is not a cocycle and
    raises DomainError.  Only when the monoid lacks one-point maps (no
    witness can be computed) are zero-phase lifts, which need not be
    homomorphic, the fallback.  For the trivial table the witness is zero
    and the section is the zero-phase lift of every element.
    """
    S, k = ext.S, ext.k
    try:
        witness = cohomologous(S, k, trivial_cocycle(S, k), ext.cocycle)
    except DomainError:
        witness = None
    else:
        if witness is None:
            raise DomainError(
                "cocycle table is not a coboundary, so it is not a valid cocycle; "
                "run 'cartanlab validate' on the document"
            )

    def base_lift(s: PartialBijection) -> PhasedElement:
        if witness is None:
            return with_zero_phases(s)
        return PhasedElement(s, tuple((-p) % k for p in witness[s]))

    j: dict[PartialBijection, PhasedElement] = {}
    for e in S.idempotents():
        j[e] = with_zero_phases(e)

    B = [S.one]
    for s in S:
        if s.is_zero() or s == S.one:
            continue
        if all(meet(s, b).is_zero() for b in B):
            B.append(s)

    for s in B:
        src = compose(dagger(s), s)
        lift = base_lift(s)
        for e in S.idempotents():
            if natural_leq(e, src):
                se = compose(s, e)
                val = ext.multiply(lift, j[e])
                if se in j and j[se] != val:
                    raise DomainError(f"inconsistent section assignment at {se}")
                j[se] = val

    for t in S:
        if t in j:
            continue
        w = with_zero_phases(t)
        w_dag = ext.dagger(w)
        phase_by_atom = {}
        for s in B:
            m = meet(t, s)
            if m.is_zero():
                continue
            h_s = ext.multiply(w_dag, j[m])
            for y in bits(h_s.bij.domain):
                if y in phase_by_atom:
                    raise InvariantViolation(f"glued supports overlap at atom {y} for {t}")
                phase_by_atom[y] = h_s.phase_at(y)
        if set(phase_by_atom) != set(bits(t.domain)):
            raise InvariantViolation(f"glued supports do not cover dom({t})")
        h = PhasedElement(
            partial_identity(S.atom_count, t.domain),
            tuple(phase_by_atom[y] % k for y in bits(t.domain)),
        )
        j[t] = ext.multiply(w, h)

    return Section(j)


@dataclass
class SectionReport:
    is_section: bool
    cond_a: bool
    cond_b: bool
    cond_c: bool
    witnesses: dict = field(default_factory=dict)

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
    """
    S = ext.S
    for s in S:
        if s not in j.values or j[s].bij != s:
            raise DomainError(f"not a section at {s}")

    witnesses = {}
    unit_ok = j[S.one] == ext.unit

    cond_a = unit_ok
    if cond_a:
        for s in S:
            for t in S:
                if natural_leq(s, t) and not g_natural_leq(j[s], j[t]):
                    cond_a = False
                    witnesses["a"] = (s, t)
                    break
            if not cond_a:
                break

    cond_b = True
    idem = S.idempotents()
    els, mul = S.elements, S.mul
    for e in idem:
        mul_e = mul[S.index[e]]
        left = [ext.multiply(j[e], j[s]) for s in els]  # j(e) j(s), reused for every f
        for f in idem:
            i_f = S.index[f]
            for i, s in enumerate(els):
                lhs = j[els[mul[mul_e[i]][i_f]]]
                rhs = ext.multiply(left[i], j[f])
                if lhs != rhs:
                    cond_b = False
                    witnesses["b"] = (e, s, f)
                    break
            if not cond_b:
                break
        if not cond_b:
            break

    cond_c = unit_ok
    if cond_c:
        for s in S:
            for t in S:
                if j[meet(s, t)] != g_meet(j[s], j[t]):
                    cond_c = False
                    witnesses["c"] = (s, t)
                    break
            if not cond_c:
                break

    return SectionReport(True, cond_a, cond_b, cond_c, witnesses)


def _check_in_P(out: PhasedElement, name: str, args: tuple):
    if not out.is_phased_identity():
        raise InvariantViolation(f"{name}{args} = {out} is not a phased identity")


def lausch_alpha(ext: Extension, j: Section, s: PartialBijection, t: PartialBijection) -> PhasedElement:
    """alpha(s,t) = j(st)^dag j(s) j(t); the section cocycle, valued in P."""
    st = compose(s, t)
    out = ext.multiply(ext.dagger(j[st]), ext.multiply(j[s], j[t]))
    _check_in_P(out, "alpha", (s, t))
    return out


def sigma(ext: Extension, j: Section, v: PhasedElement, s: PartialBijection) -> PhasedElement:
    """sigma(v,s) = j(q(v)s)^dag v j(s); the phase correction, valued in P."""
    qvs = compose(v.bij, s)
    out = ext.multiply(ext.dagger(j[qvs]), ext.multiply(v, j[s]))
    _check_in_P(out, "sigma", (v, s))
    return out


def delta(ext: Extension, j: Section, v: PhasedElement) -> PhasedElement:
    """Delta(v) = v j(q(v) ^ 1); the diagonal part of v, valued in P."""
    fix = meet(v.bij, ext.S.one)
    out = ext.multiply(v, j[fix])
    _check_in_P(out, "Delta", (v,))
    return out


def _related_points(S: FiniteInverseMonoid):
    return sorted({(x, y) for s in S for x, y in s.pairs()})


def cohomologous(S: FiniteInverseMonoid, k: int, c1: CocycleTable, c2: CocycleTable):
    """Find b with c2(s,t) = c1(s,t) + b(s) o t + b(t) - b(st) (mod k).

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

    Returns b as a dict s -> phase tuple, or None if not cohomologous.
    """
    pts = _related_points(S)
    singles = {}
    for x, y in pts:
        m = singleton(S.atom_count, y, x)
        if m not in S:
            raise DomainError("cohomologous needs a downward-closed monoid (singletons present)")
        singles[(x, y)] = S.index[m]
    rows1, rows2 = _phase_rows(S, c1), _phase_rows(S, c2)

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

    els, mul = S.elements, S.mul
    img = _images(S)
    atoms = [tuple(bits(s.domain)) for s in els]
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
    return {s: tuple(b[y] for y in ys) for s, b, ys in zip(els, bd, atoms)}


def is_trivial_cocycle(S: FiniteInverseMonoid, k: int, c: CocycleTable):
    return cohomologous(S, k, trivial_cocycle(S, k), c)


def extensions_equivalent(ext1: Extension, ext2: Extension, guard: int = EQUIV_GUARD):
    """Decide equivalence of two extensions; return a witness or None.

    A witness is (perm, theta, alpha): the atom bijection inducing the
    monoid isomorphism theta : S1 -> S2, plus the element-level isomorphism
    alpha : G1 -> G2 with q2(alpha(v)) = theta(q1(v)) and alpha fixing the
    phased identities through the induced relabeling.  The search runs over
    atom permutations (complete for fundamental monoids in canonical form)
    and, per permutation, over coboundaries linking the transported cocycle
    to the target one.
    """
    if ext1.k != ext2.k:
        return None
    S1, S2 = ext1.S, ext2.S
    if len(S1) != len(S2) or S1.atom_count != S2.atom_count:
        return None
    if len(S1) > guard:
        raise SizeGuardError(len(S1), guard, "monoid size for equivalence search")

    n = S1.atom_count
    k = ext1.k
    elements2 = set(S2.elements)
    els2, mul2 = S2.elements, S2.mul
    rows1 = _phase_rows(S1, ext1.cocycle)
    for perm in itertools.permutations(range(n)):
        theta = {s: conjugate(s, perm) for s in S1}
        if set(theta.values()) != elements2:
            continue
        inv_perm = tuple(perm.index(i) for i in range(n))
        # pre[j] is the S1 id of theta^-1(els2[j])
        pre = [0] * len(els2)
        for i1, s1 in enumerate(S1.elements):
            pre[S2.index[theta[s1]]] = i1
        transported_entries = {}
        for i, s2 in enumerate(els2):
            row1 = rows1[pre[i]]
            for j, t2 in enumerate(els2):
                dom = els2[mul2[i][j]].domain
                if dom:
                    c = row1[pre[j]]
                    transported_entries[(s2, t2)] = tuple(c[inv_perm[y]] for y in bits(dom))
        c1_theta = CocycleTable(k, transported_entries)
        beta = cohomologous(S2, k, ext2.cocycle, c1_theta)
        if beta is None:
            continue

        def b_at(s2, atom):
            return beta[s2][_rank(s2.domain, atom)]

        alpha = {}
        for v in ext1.elements:
            s2 = theta[v.bij]
            phases = tuple(
                (v.phase_at(inv_perm[y]) + b_at(s2, y)) % k for y in bits(s2.domain)
            )
            alpha[v] = PhasedElement(s2, phases)
        return perm, theta, alpha
    return None
