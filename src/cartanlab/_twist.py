"""The core of the extension API, which every document command reads:
cocycle tables, their dense phase rows, and the extension with its twisted
product and coboundary witness.

Phases are exponents of a fixed primitive k-th root of unity and all phase
arithmetic is exact integer arithmetic mod k.  The public path to these
names, and to the parts built on them, is ``cartanlab.extension``.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import DomainError, FormatError
from .semigroup_core import FiniteInverseMonoid, PartialBijection, PhasedElement, bits, compose, with_zero_phases

__all__ = ["CocycleTable", "Extension"]


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
        return _coboundary_witness(self.S, self.k, singles, self._rows)

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


def _coboundary_witness(S: FiniteInverseMonoid, k: int, singles: dict, rows: list):
    """The coboundary witness b of one table, c = delta b, from its dense
    phase rows, given the one-point maps of S: dense phase rows by element
    id, or None when the table is not a coboundary.

    Normalization forces any witness to be restriction compatible, hence
    determined by its values on one-point maps: a function b on related atom
    pairs vanishing on the diagonal.  A coboundary is graph-local, so b is
    solved in closed form by gauge fixing against a root atom r of each
    block: b(x, z) := c(x, z, r), the entry on the singleton pair z<-r,
    x<-z at r.  Any other witness differs from this one by a gauge term that
    does not change the coboundary, so the construction is complete: if
    the check of the candidate on every pair of ids fails, no witness
    exists."""
    pts = list(singles)
    root = {}
    for x, y in pts:
        root.setdefault(y, min(z for (w, z) in pts if w == y))
    b_pts = {}
    for x, z in pts:
        r = root[z]
        b_pts[(x, z)] = rows[singles[(x, z)]][singles[(z, r)]][r] % k

    els, mul, img, atoms = S.elements, S.mul, S.images, S.domain_atoms
    bd = [_dense(S.atom_count, s.domain, (b_pts[p] for p in s.pairs())) for s in els]
    for i in range(len(els)):
        row, b_s = rows[i], bd[i]
        for j, st in enumerate(mul[i]):
            c_st, b_t, b_st, t_img = row[j], bd[j], bd[st], img[j]
            for y in atoms[st]:
                if (c_st[y] - b_s[t_img[y]] - b_t[y] + b_st[y]) % k:
                    return None
    if any(b_pts[(x, y)] for x, y in pts if x == y):
        return None
    return bd
