"""The core of the extension API, which every document command reads:
cocycle tables and the extension with its twisted product and coboundary
witness.  Each extension reads its table once on the points of R
(``_point_pass``), where support, normalization, the point cocycle cp,
the cocycle identity and the coboundary witness b (c = delta b, in closed
form) are all decided; cp is the only twist the product reads.

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


class Extension:
    """An extension of S by mu_k-phased partial identities, presented by a
    normalized cocycle table.  Elements are Lausch pairs (bijection, phases)
    with the twisted product.

    The twist is stored once, as the table's point cocycle cp[x, z, y] on
    the composable points x <- z <- y of R (Feldman-Moore's 2-cocycle on
    R), read off the table by its point pass; c(s, t)(y) = cp[s(t(y)),
    t(y), y].  The product and inverse are computed on element ids: a
    phased element is an id of S plus a phase row dense over atoms (zero
    off the domain), products come from the Cayley table S.mul and cocycle
    phases from cp.  ``multiply`` and ``dagger`` are the element-level forms
    of ``_product`` and ``_dagger``.  A table that is not supported, or not
    local (a phase that is not a function of its point triple), defines no
    product: the four raise DomainError.

    ``cocycle`` None is the trivial twist: no table is read, and cp is
    empty.
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
    def _points(self) -> tuple[list, list, dict | None, dict | None]:
        """The table's point pass (``_point_pass``), made once; the trivial
        twist's, with an empty cp and b, needs none."""
        if self.cocycle is None:
            return [], [], {}, {}
        return _point_pass(self.S, self.k, self.cocycle)

    @cached_property
    def _cp(self) -> dict:
        """The point cocycle the product reads; DomainError for a table that
        is not supported and local."""
        cp = self._points[2]
        if cp is None:
            raise DomainError(
                "cocycle table is not supported and local, so it defines no product; "
                "run 'cartanlab validate' on the document"
            )
        return cp

    @cached_property
    def coboundary(self) -> list[list[int]] | None:
        """b with c = delta b, c(s,t)(y) = b(s)(t(y)) + b(t)(y) - b(st)(y) mod k,
        as dense phase rows by element id, solved once from the point pass:
        zero for the trivial twist, and None for a table that is not a
        coboundary (so not a cocycle)."""
        S, n = self.S, self.S.atom_count
        if self.cocycle is None:
            return [[0] * n] * len(S)
        b = self._points[3]
        if b is None:
            return None
        return [_dense(n, s.domain, (b[x * n + y] for x, y in s.pairs())) for s in S.elements]

    def _product(self, i: int, a: list[int], j: int, b: list[int]) -> tuple[int, list[int]]:
        """(e_i, a)(e_j, b) = (e_i e_j, p), p(y) = a(z) + b(y) + cp[e_i(z), z, y]
        with z = e_j(y)."""
        S, cp, k = self.S, self._cp, self.k
        n, st, tj = S.atom_count, S.mul[i][j], S.images[j]
        x_of = S.images[st]
        p = [0] * n
        for y in S.domain_atoms[st]:
            z = tj[y]
            p[y] = (a[z] + b[y] + cp.get((x_of[y] * n + z) * n + y, 0)) % k
        return st, p

    def _dagger(self, i: int, a: list[int]) -> tuple[int, list[int]]:
        """(e_i, a)^dag = (e_i^dag, p), p(z) = -a(y) - cp[z, y, z] with
        y = e_i^dag(z): c(e_i, e_i^dag)(z) read on the chain z <- y <- z."""
        S, cp, k = self.S, self._cp, self.k
        n, sd = S.atom_count, S.inv[i]
        back = S.images[sd]
        p = [0] * n
        for z in S.domain_atoms[sd]:
            y = back[z]
            p[z] = (-a[y] - cp.get((z * n + y) * n + z, 0)) % k
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


def _point_pass(S: FiniteInverseMonoid, k: int, c: CocycleTable) -> tuple[list, list, dict | None, dict | None]:
    """One pass over the table, each entry read once: (support,
    normalization, cp, b).

    ``support`` and ``normalization`` list their violations, ("support", s,
    t) or ("normalization", s, t), in element order; a missing entry at a
    nonempty product raises FormatError.  The table is local when every
    phase c(s,t)(y) equals cp[x, z, y], the first value seen on the
    composable points x <- z <- y (z = t(y), x = s(z)), kept in a dict of
    those triples keyed (x*n + z)*n + y: sum b^3 over the blocks of R, all
    the chains of length two in R when S is closed.  cp is that dict for a
    supported, local table, else None.  A normalized one also gets the
    closed-form solve b(x, z) = cp[x, z, r], r the least atom of the
    block, keyed x*n + z: b when cp = delta b on every composable triple,
        cp[x, z, y] = b(x, z) + b(z, y) - b(x, y)  (mod k),
    else None.  On the chain x <- z <- y <- r this is the cocycle identity,
    so the solve fails only for a table that is not a cocycle, and needs no
    one-point maps.  b vanishes on the diagonal: cp[x, x, r] = c(1, t)(r).
    """
    n, els, mul, img, entries = S.atom_count, S.elements, S.mul, S.images, c.entries
    idem = set(S.idempotent_ids)
    atoms = S.domain_atoms
    support, normalization = [], []
    cp = {}
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
            if len(arr) != len(ys) or min(arr) < 0 or max(arr) >= k:
                support.append(("support", s, t))
            if (i in idem or j in idem) and any(arr):
                normalization.append(("normalization", s, t))
            x_of, z_of = img[st], img[j]
            for y, p in zip(ys, arr):
                if cp.setdefault((x_of[y] * n + z_of[y]) * n + y, p) != p:
                    local = False
    if support or not local:
        return support, normalization, None, None
    if normalization:
        return support, normalization, cp, None

    root = {}  # the least atom related to x: the least atom of its block
    for x, y in S.points:
        root.setdefault(x, y)
    b = {x * n + z: cp[(x * n + z) * n + root[z]] for x, z in S.points}
    for key, p in cp.items():
        xz, y = divmod(key, n)
        x, z = divmod(xz, n)
        if (p - b[xz] - b[z * n + y] + b[x * n + y]) % k:
            return support, normalization, cp, None
    return support, normalization, cp, b
