"""The concrete matrix representation on the function space of the atom
relation.

Floats enter only here and downstream: matrices are complex double, phases
become exact roots of unity, and every numeric rank or eigenvalue decision
is made at the tol of the ``RepSpace`` or the check that makes it
(``DEFAULT_TOL``, 1e-9, unless the caller, like the command line's
``--tol``, gives another).  The projection-valued kernel K(t,s) = j(s^dag t
^ 1), its positivity certificate and the Gram check of the module picture,
which no command runs, are in ``numeric_library``.

Each lambda is monomial: a column holds at most one entry, a k-th root of
unity.  Its columns are built on element ids, with the id-level product on
the section's dense phase rows, once per element of S: lambda((s, a)) is
lambda((s, 0)) with the exponent of column (x, y) shifted by a(x).  The
monomial form is exact integer data and needs no numpy, so ``represent``
(``dump_matrix`` of the section's lambdas) runs without it.  Dense matrices
are built only for linear algebra, a stack of them at a time by one
scatter.  ``RepSpace`` keeps the columns of one extension and section, and
the Cartan pair they generate: M, the span of every lambda, and D, the span
of the phased identities' lambdas, each built once at the space's tol from
the lambdas in blocks of 64.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from itertools import chain

from ._lazy import np
from ._section import Section, _sigma, order_preserving_section
from ._twist import Extension
from .semigroup_core import FiniteInverseMonoid, PartialBijection, PhasedElement, groupoid_relation

__all__ = [
    "DEFAULT_TOL",
    "RBasis",
    "RepSpace",
    "lambda_matrix",
    "expectation",
    "dump_matrix",
]

DEFAULT_TOL = 1e-9


class RBasis:
    """Canonically ordered basis of the relation: pairs (x, y), row-major.

    ``index`` maps each pair to its position.  ``patterns`` keeps, per
    partial bijection g, the flat positions of the transport pattern of g
    (``vn_oracle._pattern_indices``), so the pattern solves on the space
    build each pattern once.
    """

    def __init__(self, atom_count: int, pairs: tuple):
        self.atom_count = atom_count
        self.pairs = pairs
        self.index = {p: i for i, p in enumerate(pairs)}
        self.patterns = {}

    @staticmethod
    def from_monoid(S: FiniteInverseMonoid) -> "RBasis":
        return RBasis(S.atom_count, tuple(sorted(groupoid_relation(S).pairs)))

    def __len__(self):
        return len(self.pairs)

    def diagonal_indices(self):
        return [self.index[(x, x)] for x in range(self.atom_count) if (x, x) in self.index]


def _roots(k: int) -> list[complex]:
    """The k-th roots of unity w^p for p = 0..k-1, w = exp(2 pi i / k).

    Bitwise equal to numpy's ``np.exp(2j*np.pi/k) ** np.arange(k)`` for
    every exponent below 100, where both take the power by repeated
    squaring; from 100 on the two switch algorithms and may differ in the
    last bits.
    """
    w = cmath.exp(2j * math.pi / k)
    return [w**p for p in range(k)]


def _lambda_columns(ext: Extension, j: Section, rbasis: RBasis, i: int, a: list[int]):
    """The columns of lambda((e_i, 0)), for v = (e_i, a): (targets, cols,
    base, xs), one entry per column (x, y) with x in dom(e_i), in column
    order.  Column (x, y) maps to row (e_i(x), y) with phase sigma(v, y->x)
    at y, which is base + a(x) mod k: nothing after the product v j(y->x)
    reads a, and that product adds a(x) at y.

    Reads the one-point maps of R from ``S.point_maps``, which raises
    DomainError when one is not an element of S.  sigma is
    ``_section._sigma`` on element ids, which raises InvariantViolation,
    naming v, when it is not a phased identity.
    """
    S, k = ext.S, ext.k
    rows, point_maps = j.dense_rows(S), S.point_maps
    dom, img = S.elements[i].domain, S.images[i]
    targets, cols, base, xs = [], [], [], []
    for col, (x, y) in enumerate(rbasis.pairs):
        if not (dom >> x) & 1:
            continue
        _, phase = _sigma(ext, rows, i, a, point_maps[x, y])
        targets.append(rbasis.index[(img[x], y)])
        cols.append(col)
        base.append((phase[y] - a[x]) % k)
        xs.append(x)
    return targets, cols, base, xs


def _monomial(columns, a: list[int], k: int):
    """lambda((e_i, a)) in monomial form from the columns of lambda((e_i, 0)):
    (targets, cols, exponents), the entry of column cols[c] sitting in row
    targets[c] with value w^exponents[c]."""
    targets, cols, base, xs = columns
    return targets, cols, [(b + a[x]) % k for b, x in zip(base, xs)]


def _scatter(monomials, dim: int, k: int) -> np.ndarray:
    """The dense (len(monomials), dim, dim) stack of monomial lambdas, filled
    by one fancy-index assignment."""
    which, targets, cols, exps = [], [], [], []
    for m, (t, c, e) in enumerate(monomials):
        which += [m] * len(t)
        targets += t
        cols += c
        exps += e
    out = np.zeros((len(monomials), dim, dim), dtype=complex)
    out[which, targets, cols] = np.asarray(_roots(k))[exps]
    return out


def lambda_matrix(ext: Extension, j: Section, v: PhasedElement, rbasis: RBasis | None = None) -> np.ndarray:
    """The matrix of v on the relation's function space: the dense form of
    one monomial lambda, from the columns of ``_lambda_columns``.

    Column (x, y) maps to (q(v)(x), y) with phase sigma(v, y->x) evaluated
    at y, and to zero when x is outside dom(q(v)).
    """
    if rbasis is None:
        rbasis = RBasis.from_monoid(ext.S)
    i, a = ext._id_row(v)
    columns = _lambda_columns(ext, j, rbasis, i, a)
    return _scatter([_monomial(columns, a, ext.k)], len(rbasis), ext.k)[0]


def expectation(rbasis: RBasis, T: np.ndarray) -> np.ndarray:
    """Conditional expectation onto the diagonal subalgebra.

    Compress by V (read the diagonal-pair entries g(x) = T[(x,x),(x,x)]),
    then re-embed as the block-diagonal element acting by g(x) on every pair
    (x, y).  Unital, idempotent, positive; fixes the diagonal subalgebra.
    T may be a stack of matrices (shape (..., d, d)), mapped one by one.
    """
    i = [rbasis.index[(x, x)] for x, _y in rbasis.pairs]
    out = np.zeros(T.shape, dtype=complex)
    out[..., range(len(i)), range(len(i))] = T[..., i, i]
    return out


class RepSpace:
    """Cached representation context for one extension and section: the
    lambdas in monomial form, and the Cartan pair (M, D) they generate.

    The columns of lambda((e_i, 0)) are built once per id i of S, on first
    use; lambda((e_i, a)) shifts their exponents by a (``_monomial``).
    Dense lambdas are built only for linear algebra, a stack at a time by
    one scatter, and are not kept, apart from the read-only stack of the
    section's lambdas that ``psi`` and ``theta`` index by S id.
    """

    def __init__(self, ext: Extension, j: Section | None = None, tol: float = DEFAULT_TOL):
        self.ext = ext
        self.j = j if j is not None else order_preserving_section(ext)
        self.rbasis = RBasis.from_monoid(ext.S)
        self.tol = tol
        self._columns: dict[int, tuple] = {}

    def monomial(self, v: PhasedElement):
        """lambda(v) as (targets, cols, exponents): its entry in column
        cols[c] sits in row targets[c] and is w^exponents[c]."""
        i, a = self.ext._id_row(v)
        if i not in self._columns:
            self._columns[i] = _lambda_columns(self.ext, self.j, self.rbasis, i, a)
        return _monomial(self._columns[i], a, self.ext.k)

    def stack(self, vs) -> np.ndarray:
        """The dense lambdas of the elements vs, one (len(vs), d, d) stack."""
        return _scatter([self.monomial(v) for v in vs], len(self.rbasis), self.ext.k)

    def blocks(self, vs):
        """``stack`` of vs in blocks of at most 64 elements."""
        for start in range(0, len(vs), 64):
            yield self.stack(vs[start : start + 64])

    def lam(self, v: PhasedElement) -> np.ndarray:
        return self.stack([v])[0]

    def lam_of(self, s: PartialBijection) -> np.ndarray:
        return self.lam(self.j[s])

    @cached_property
    def section_stack(self) -> np.ndarray:
        """The lambdas of the section, lambda(j(e_i)) at index i; read-only."""
        out = self.stack([self.j[s] for s in self.ext.S.elements])
        out.setflags(write=False)
        return out

    @cached_property
    def algebra(self):
        """M: the ``MatrixAlgebra`` spanned by every lambda, built once at
        the space's tol."""
        from .vn_oracle import span_basis

        return span_basis(chain.from_iterable(self.blocks(self.ext.elements)), self.rbasis, self.tol)

    @cached_property
    def diagonal(self):
        """D: the ``MatrixAlgebra`` spanned by the phased identities'
        lambdas, built once at the space's tol."""
        from .vn_oracle import span_basis

        return span_basis(chain.from_iterable(self.blocks(self.ext.phased_identities)), self.rbasis, self.tol)

    def expectation(self, T: np.ndarray) -> np.ndarray:
        return expectation(self.rbasis, T)


def dump_matrix(rbasis: RBasis, k: int, lam) -> str:
    """Serialize one monomial lambda (targets, cols, exponents), as from
    ``RepSpace.monomial``: header, then one 'row,col,re,im' line per nonzero
    entry in row order, rows/columns given as relation-pair indices.  Each
    row and each column holds at most one entry."""
    roots = _roots(k)
    lines = [f"atoms={rbasis.atom_count} k={k} dim={len(rbasis)}"]
    for row, col, e in sorted(zip(*lam)):
        z = roots[e]
        lines.append(f"{row},{col},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"
