"""Reference constructions that only the tests read.

The Munn quotient, the character action beta (Lawson, *Inverse Semigroups*,
1998), the zero cocycle table, the coboundary of a function on S, the
extension's order and meets on phased elements, the fixed-point idempotent
and the inverse of a partial bijection, each written on elements as the
textbook states it.  ``phase_rows`` is a table's per-pair phase rows,
dense over atoms, as the twisted product read them before it read the
point cocycle.  ``element_sigma`` and ``element_delta`` are sigma and
Delta formed from ``compose``/``meet`` and the extension's element-level
product and inverse: the references for the id-level ``extension.sigma``
and ``extension.delta``.  ``is_spectral_set`` is the definition of a
spectral set that the bitmask spectral sets A(X) are checked against, and
``is_spectral_monoid`` the Cayley-table form of the monoid test on masks.
``inflated`` is a monoid acting on blocks of atoms, without one-point maps.
``patch_extension`` patches a name in every part of the extension API that
binds it.
"""

from __future__ import annotations

import itertools

from cartanlab import _cocycle, _equiv, _section, _twist, exact_library
from cartanlab._twist import _dense
from cartanlab.errors import ClosureError, DomainError, FormatError, InvariantViolation
from cartanlab.exact_library import _agreement_mask, are_orthogonal, meet, orthogonal_join
from cartanlab.extension import CocycleTable, Extension, Section
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    _check_same_atoms,
    bits,
    compose,
    dagger,
    natural_leq,
    partial_identity,
    with_zero_phases,
)

# The modules behind ``cartanlab.extension``: the private one per part, and
# the exact library, which holds the parts no command runs.
EXTENSION_PARTS = (_twist, _cocycle, _section, _equiv, exact_library)


def patch_extension(monkeypatch, name: str, make):
    """Bind ``name`` to ``make(real)`` in every part of the extension API
    that binds it, the module that defines it and those that import it, so
    the patch reaches every caller there; returns the real object."""
    holders = [module for module in EXTENSION_PARTS if name in vars(module)]
    if not holders:
        raise AttributeError(f"no part of the extension API binds {name}")
    real = getattr(holders[0], name)
    patched = make(real)
    for module in holders:
        monkeypatch.setattr(module, name, patched)
    return real


def inverse_apply(s: PartialBijection, atom: int) -> int:
    """The atom y with s(y) = atom."""
    for x, y in s.pairs():
        if x == atom:
            return y
    raise DomainError(f"atom {atom} not in range")


def leech_idempotent(s: PartialBijection, t: PartialBijection) -> PartialBijection:
    """The fixed-point idempotent s^dag t ^ 1 defining the meet of s and t."""
    _check_same_atoms(s, t)
    return partial_identity(s.n, _agreement_mask(s, t))


def munn_quotient(G, product, g_dagger):
    """Quotient a closed list of PhasedElement by the Munn congruence.

    ``product`` and ``g_dagger`` are the (twisted) multiplication and inverse
    of the ambient extension; they are injected, so the quotient itself does
    no cocycle arithmetic.  Each v is sent to the partial bijection of atoms it
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


def phase_rows(S: FiniteInverseMonoid, c: CocycleTable | None) -> list[list[list[int]]]:
    """rows[i][j][y] = c(e_i, e_j) at atom y, dense over atoms; zero at an
    empty product, and everywhere for c None.  A missing entry, or one with
    fewer phases than dom(e_i e_j) has atoms, raises FormatError."""
    n, els = S.atom_count, S.elements
    rows = []
    for s, mrow in zip(els, S.mul):
        row = []
        for t, st in zip(els, mrow):
            dom = els[st].domain
            if c is None or not dom:
                row.append([0] * n)
                continue
            arr = c.entries.get((s, t))
            if arr is None:
                raise FormatError(f"missing cocycle entry for ({s}, {t})")
            if len(arr) < dom.bit_count():
                raise FormatError(f"cocycle entry for ({s}, {t}) has too few phases")
            row.append(_dense(n, dom, arr))
        rows.append(row)
    return rows


def coboundary_table(S: FiniteInverseMonoid, k: int, base: CocycleTable | None, b: dict) -> CocycleTable:
    """Perturb ``base`` (None: the zero table) by the coboundary of
    b : S -> phase arrays.

    b[s] is aligned with the domain atoms of s; idempotents must carry zero
    arrays.  The new entry is base(s,t) + b(s) o t + b(t) - b(st).
    """
    n, els, mul, img = S.atom_count, S.elements, S.mul, S.images
    rows = phase_rows(S, base)
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


def _check_in_P(out: PhasedElement, name: str, args: tuple):
    if not out.is_phased_identity():
        raise InvariantViolation(f"{name}{args} = {out} is not a phased identity")


def element_sigma(ext: Extension, j: Section, v: PhasedElement, s: PartialBijection) -> PhasedElement:
    """sigma(v,s) = j(q(v)s)^dag v j(s), from compose and the element-level
    product and inverse."""
    qvs = compose(v.bij, s)
    out = ext.multiply(ext.dagger(j[qvs]), ext.multiply(v, j[s]))
    _check_in_P(out, "sigma", (v, s))
    return out


def element_delta(ext: Extension, j: Section, v: PhasedElement) -> PhasedElement:
    """Delta(v) = v j(q(v) ^ 1), from meet and the element-level product."""
    fix = meet(v.bij, ext.S.one)
    out = ext.multiply(v, j[fix])
    _check_in_P(out, "Delta", (v,))
    return out


def is_spectral_set(S: FiniteInverseMonoid, A) -> bool:
    """Contains 0, downward closed, closed under orthogonal joins."""
    A = frozenset(A)
    if S.zero not in A:
        return False
    for s in A:
        for t in S:
            if natural_leq(t, s) and t not in A:
                return False
    for s, t in itertools.combinations(A, 2):
        if are_orthogonal(s, t):
            if orthogonal_join([s, t]) not in A:
                return False
    return True


def is_spectral_monoid(idx, X: int, A) -> bool:
    """The Cayley form of ``_TraceIndex.is_monoid``: A = A(X) contains every
    idempotent (X holds the idempotent minimals) and is closed under
    products, read from the Cayley table of S."""
    if X & idx.idempotent != idx.idempotent:
        return False
    mul = idx.S.mul
    ids = {idx.S.index[s] for s in A}
    return all(ids.issuperset([mul[i][j] for j in ids]) for i in ids)


def inflated(S: FiniteInverseMonoid, m: int) -> FiniteInverseMonoid:
    """S acting on blocks of m atoms: atom a becomes the block a*m .. a*m + m - 1,
    and each map y -> x moves the block of y onto the block of x in order.
    For m > 1 the monoid holds no one-point map."""
    n = S.atom_count * m
    maps = []
    for s in S:
        pairs = sorted((y * m + i, x * m + i) for x, y in s.pairs() for i in range(m))
        maps.append(PartialBijection(n, sum(1 << y for y, _ in pairs), tuple(x for _, x in pairs)))
    return FiniteInverseMonoid(n, maps)
