"""Spectral sets, the correspondence with diagonal bimodules of the
generated algebra, and the classification of maximal
subdiagonal/triangular subalgebras.  The join span, the full submonoids and
their correspondence with intermediate algebras, which no command runs,
are in ``numeric_library``, on the trace index kept here.

A spectral set is modeled as a frozenset of monoid elements containing the
zero map, downward closed, and closed under orthogonal joins.  In the finite
case it is fixed by the minimal nonzero elements it contains, the one-point
maps of the points of the relation R, which S must hold (``S.point_maps``).
Every public call reads one trace index, kept for the most recent monoid:
the minimal elements, each element's trace (its graph points, as a bitmask
over the minimals) and the dagger permutation on minimals.  The spectral
sets are then exactly A(X) = {s : trace(s) inside X} for the masks X, so
closure, enumeration and the msd/mtr conditions are bitmask arithmetic.
Whether A(X) is a monoid is decided on X alone, from the products of the
minimal elements (no Cayley table); msd, mtr and the maximality scan filter
one list of monoid masks and build A(X) only for masks they keep.

The numeric conditions are linear or bilinear in the matrices they test:
diagonal invariance of psi(A), multiplicativity of the expectation E onto
the self-adjoint part N and its N-bimodularity.  So each is checked on a
spanning set only, the orthonormal bases of the diagonal D of the
``RepSpace``, of psi(A) and of N, with one stacked Hilbert-Schmidt residual
or projection per condition (``vn_oracle._residual_norms`` and
``_hs_projections``) instead of one projection per pair of matrices.  theta
tests all |S| lambdas in one stacked residual (theta_gn, its normalizer
reading, reads its elements from one stacked pattern solve).  psi and N
are computed once per mask and space.
psi returns a ``vn_oracle.MatrixAlgebra`` built at the space's tol, and
every numeric check here decides at that one tol, read from the
``RepSpace`` or from the span.

Closure in the matrix picture is a no-op here (every linear subspace of a
finite matrix space is closed in all the relevant topologies), which reports
note explicitly.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from ._lazy import np
from .errors import SPECTRAL_GUARD, DomainError, InvariantViolation, SizeGuardError
from .kernel_rep import RepSpace
from .semigroup_core import FiniteInverseMonoid, bits, mask_of
from .vn_oracle import (
    MatrixAlgebra,
    _accepted_points,
    _all_within,
    _hs_projection,
    _hs_projections,
    _null_combinations,
    _pattern_solves,
    _residual_norms,
    subspace_basis,
)

__all__ = [
    "SPECTRAL_GUARD",
    "spectral_closure",
    "enumerate_spectral_sets",
    "psi",
    "theta",
    "theta_gn",
    "msd",
    "mtr",
    "verify_subdiagonal",
]

CLOSURE_NOTE = "finite dimension: linear subspaces are closed in every relevant topology"


class _TraceIndex:
    """Spectral sets of S as bitmasks over its minimal nonzero elements: the
    one-point maps of R (``S.point_maps``, DomainError when S lacks one), in
    element order.

    ``trace[s]`` has bit i set iff ``minimals[i]`` is the map of a graph
    point of s, and ``dag[i]`` is the position of the dagger of
    ``minimals[i]``, read from ``S.inv`` (ClosureError when S is not closed
    under dagger).  Construction refuses S when ``S.missing_join`` names an
    orthogonal pair whose join is missing, as axiom (c) does.  Then
    X -> A(X) = {s : trace[s] inside X} is a bijection from masks onto
    spectral sets that turns union, intersection, inclusion and dagger of
    masks into join span, intersection, inclusion and dagger of sets, and
    A(X) is a monoid iff X is closed under ``products``.  An index keeps the
    monoid masks and each mask's parts.
    """

    def __init__(self, S: FiniteInverseMonoid):
        self.S = S
        inv, point_maps = S.inv, S.point_maps
        ids = sorted(point_maps.values())
        at = {t: i for i, t in enumerate(ids)}
        pos = {p: at[t] for p, t in point_maps.items()}
        self.minimals = [S.elements[t] for t in ids]
        self.trace = {s: mask_of(pos[p] for p in s.pairs()) for s in S}
        self.idempotent = mask_of(pos[x, x] for x in range(S.atom_count))
        self.full = (1 << len(ids)) - 1
        self.dag = [at[inv[t]] for t in ids]
        if S.missing_join is not None:
            raise DomainError(f"the monoid is not closed under orthogonal joins; witness: {S.missing_join}")
        self._monoid_masks: list[int] | None = None
        self.parts: dict = {}  # filled by _selfadjoint_part

    def members(self, X: int) -> frozenset:
        """A(X): the elements all of whose minimals lie in X."""
        return frozenset(s for s, t in self.trace.items() if not t & ~X)

    def trace_of(self, family) -> int:
        """OR of the traces; A(trace_of(F)) is the least spectral set containing F."""
        X = 0
        for s in family:
            if s not in self.trace:
                raise DomainError(f"{s} is not an element of the monoid")
            X |= self.trace[s]
        return X

    def dagger_of(self, X: int) -> int:
        return mask_of(self.dag[i] for i in bits(X))

    def _guarded_count(self, guard: int) -> int:
        m = len(self.minimals)
        if m > guard:
            raise SizeGuardError(m, guard, "minimal element count for spectral set enumeration (--guard)")
        return m

    def masks(self, guard: int):
        """Every mask, by size and then in itertools.combinations order."""
        m = self._guarded_count(guard)
        for r in range(m + 1):
            for combo in itertools.combinations(range(m), r):
                yield mask_of(combo)

    @cached_property
    def products(self) -> list[tuple[int, int]]:
        """(bits of m_i and m_j, trace of m_i m_j), in element order, for each
        product of two minimals with a minimal below it other than m_i, m_j
        and the idempotents; one ``S.product_row`` per minimal, which raises
        ClosureError (m_i, m_j, m_i m_j) for the first missing product."""
        els, ids = self.S.elements, [self.S.index[m] for m in self.minimals]
        out = []
        for i, m in enumerate(ids):
            for j, st in enumerate(self.S.product_row(m, ids)):
                trace = self.trace[els[st]]
                if trace & ~(1 << i | 1 << j | self.idempotent):
                    out.append((1 << i | 1 << j, trace))
        return out

    def is_monoid(self, X: int) -> bool:
        """Whether A(X) holds the idempotents and is closed under products: as
        every element is the join of the one-point maps of its graph points,
        whether X holds the idempotent minimals and the products of any two
        of its minimals."""
        return X & self.idempotent == self.idempotent and not any(p & ~X for f, p in self.products if not f & ~X)

    def monoid_masks(self, guard: int) -> list[int]:
        """The masks, in ``masks`` order, of the spectral monoids holding the
        idempotents; listed once per index, then kept.  The guard is
        checked on every call."""
        m = self._guarded_count(guard)
        if self._monoid_masks is None:
            self._monoid_masks = [X for X in self.masks(m) if self.is_monoid(X)]
        return self._monoid_masks


@lru_cache(maxsize=1)
def _trace_index(S: FiniteInverseMonoid) -> _TraceIndex:
    """The trace index of S, kept for the most recent monoid only: every
    public call reads it, so one command lists the monoid masks once."""
    return _TraceIndex(S)


def spectral_closure(S: FiniteInverseMonoid, gen) -> frozenset:
    """Least spectral set containing the generators: A(OR of their traces)."""
    idx = _trace_index(S)
    return idx.members(idx.trace_of(gen))


def enumerate_spectral_sets(S: FiniteInverseMonoid, guard: int = SPECTRAL_GUARD) -> list[frozenset]:
    """All spectral sets, one A(X) per subset X of the minimal nonzero
    elements, by |X| and then in itertools.combinations order of the
    minimals (canonical element order), i.e. in ``_TraceIndex.masks`` order,
    the order msd, mtr and full_submonoids keep.  Distinct masks give
    distinct sets because A(X) contains exactly the minimals in X.
    """
    idx = _trace_index(S)
    return [idx.members(X) for X in idx.masks(guard)]


def psi(rs: RepSpace, A) -> MatrixAlgebra:
    """Linear span of the represented section over a spectral set, built at
    the space's tol.

    The result is automatically invariant under both diagonal actions;
    invariance is verified, not assumed, against the orthonormal basis of
    the diagonal: one stacked residual of every product d b per side.
    """
    index, tol = rs.ext.S.index, rs.tol
    basis = subspace_basis(rs.section_stack[[index[s] for s in sorted(A)]], tol)
    dim = len(rs.rbasis)
    B = np.reshape(basis, (len(basis), dim, dim))
    D = np.reshape(rs.diagonal.basis, (-1, 1, dim, dim))
    if not (_all_within(basis, D @ B, tol) and _all_within(basis, B @ D, tol)):
        raise InvariantViolation("span of a spectral set is not diagonal-invariant")
    return MatrixAlgebra(basis, rs.rbasis, tol)


def theta(rs: RepSpace, B: MatrixAlgebra) -> frozenset:
    """Elements of S whose represented section lies in the bimodule, read
    from one stacked residual of all their lambdas at the space's tol.

    Phase absorption makes this independent of the section; the
    normalizer-based reading (graphs implemented by unimodular elements of
    B) is computed as well and must agree.
    """
    S = rs.ext.S
    inside = _residual_norms(B.basis, rs.section_stack) <= rs.tol
    members = frozenset(s for s, ok in zip(S, inside) if ok)
    if theta_gn(rs, B) != members:
        raise InvariantViolation("section-based and normalizer-based readings differ")
    return members


def theta_gn(rs: RepSpace, B: MatrixAlgebra) -> frozenset:
    """Normalizer-based reading: s is included iff B contains an element
    supported exactly on the transport pattern of s with unimodular entries.

    The points of the relation are tested once, in one stacked solve; the
    elements whose graphs hold only accepted points (a graph bitmask test)
    share another, of singular values only (``vn_oracle._pattern_solves``),
    on the pattern indices kept on the space's rbasis.  Both decide at B's
    tol, which ``psi`` sets to the space's.
    """
    S = rs.ext.S
    n = rs.rbasis.atom_count
    accepted = mask_of(x * n + y for x, y in _accepted_points(B))
    candidates = [s for s in S if s.domain and not s.graph & ~accepted]
    nullity, _ = _pattern_solves(B, candidates)
    return frozenset([S.zero, *(s for s, k in zip(candidates, nullity) if k == s.domain.bit_count())])


def msd(S: FiniteInverseMonoid, guard: int = SPECTRAL_GUARD) -> list[frozenset]:
    """Spectral monoids containing all idempotents whose join span with
    their dagger recovers the whole monoid: X | X^dag is every minimal."""
    idx = _trace_index(S)
    return [idx.members(X) for X in idx.monoid_masks(guard) if X | idx.dagger_of(X) == idx.full]


def mtr(S: FiniteInverseMonoid, guard: int = SPECTRAL_GUARD) -> list[frozenset]:
    """Members of msd whose self-adjoint part is exactly the idempotents:
    X & X^dag is the set of idempotent minimals."""
    idx = _trace_index(S)
    kept = ((X, idx.dagger_of(X)) for X in idx.monoid_masks(guard))
    return [idx.members(X) for X, X_dag in kept if X | X_dag == idx.full and X & X_dag == idx.idempotent]


class SubdiagonalReport:
    closure_note = CLOSURE_NOTE

    def __init__(
        self, dim_algebra, dim_selfadjoint_part, multiplicative, dense, expectation_unital,
        expectation_bimodular, maximal, max_deviation,
    ):
        self.dim_algebra = dim_algebra
        self.dim_selfadjoint_part = dim_selfadjoint_part
        self.multiplicative = multiplicative
        self.dense = dense
        self.expectation_unital = expectation_unital
        self.expectation_bimodular = expectation_bimodular
        self.maximal = maximal
        self.max_deviation = max_deviation

    def __eq__(self, other):
        return isinstance(other, SubdiagonalReport) and vars(self) == vars(other)

    @property
    def passed(self):
        return (
            self.multiplicative
            and self.dense
            and self.expectation_unital
            and self.expectation_bimodular
            and self.maximal
        )

    def to_lines(self):
        flag = lambda b: "pass" if b else "FAIL"
        return [
            f"dim_algebra: {self.dim_algebra}",
            f"dim_selfadjoint_part: {self.dim_selfadjoint_part}",
            f"phi_multiplicative: {flag(self.multiplicative)}",
            f"density: {flag(self.dense)}",
            f"phi_unital: {flag(self.expectation_unital)}",
            f"phi_bimodular: {flag(self.expectation_bimodular)}",
            f"maximal: {flag(self.maximal)}",
            f"max_deviation: {self.max_deviation:.3e}",
            f"note: {self.closure_note}",
        ]


def _subspace_intersection(basis_a, basis_b, tol: float):
    if not basis_a or not basis_b:
        return []
    A = np.stack([m.ravel() for m in basis_a], axis=1)
    B = np.stack([m.ravel() for m in basis_b], axis=1)
    return _null_combinations(np.hstack([A, -B]), basis_a, tol)


def _multiplicativity_defect(Q: np.ndarray, gens: np.ndarray, proj: np.ndarray) -> float:
    """Largest entry of E(XY) - E(X) E(Y) over pairs of generators, where E
    projects onto the stacked orthonormal basis Q and proj is E of the stack
    gens: one stacked product of all pairs and one stacked projection."""
    XY = gens[:, None] @ gens[None]
    return float(np.abs(_hs_projections(Q, XY) - proj[:, None] @ proj[None]).max(initial=0.0))


def _bimodularity_defect(Q: np.ndarray, gens: np.ndarray, proj: np.ndarray) -> float:
    """Largest entry of E(nX) - n E(X) and E(Xn) - E(X) n over n in the
    stacked orthonormal basis Q and the generators, proj being E of gens;
    0 when either stack is empty."""
    N = Q[:, None]
    left = _hs_projections(Q, N @ gens) - N @ proj
    right = _hs_projections(Q, gens @ N) - proj @ N
    return float(max(np.abs(left).max(initial=0.0), np.abs(right).max(initial=0.0)))


def _selfadjoint_part(rs: RepSpace, idx: _TraceIndex, X: int):
    """psi(A(X)), the stack of its basis, the adjoints of its basis, and the
    stack of the orthonormal basis of its self-adjoint part N, for a
    spectral monoid A(X); a stack is empty, shaped (0, d, d), only at a tol
    that drops every matrix.  Computed once per space and mask, and kept in
    ``idx.parts``."""
    key = (rs, X)
    if key not in idx.parts:
        alg = psi(rs, idx.members(X))
        adj = [b.conj().T for b in alg.basis]
        N = _subspace_intersection(alg.basis, adj, rs.tol)
        shape = (-1, len(rs.rbasis), len(rs.rbasis))
        idx.parts[key] = alg, np.reshape(alg.basis, shape), adj, np.reshape(N, shape)
    return idx.parts[key]


def verify_subdiagonal(rs: RepSpace, A, guard: int = SPECTRAL_GUARD) -> SubdiagonalReport:
    """Verify that a spectral monoid spans a maximal subdiagonal algebra.

    The expectation onto the self-adjoint part N is realized as the
    orthogonal (Hilbert-Schmidt) projection; its unitality and
    N-bimodularity are verified rather than assumed.  Multiplicativity and
    bimodularity are bilinear, so they are checked on the orthonormal basis
    of psi(A), which spans it: ``max_deviation`` is the largest entry of
    E(XY) - E(X) E(Y) over pairs of basis elements X, Y, and the verdict is
    the one every pair of elements of psi(A) would give.  Maximality is
    checked against the other enumerated spectral-monoid candidates with
    the same self-adjoint part, which is exactly what the classification
    licenses; every strict superset among the spectral-monoid masks gets
    the N-dimension, containment, defect and density checks.  The trace
    index of rs.ext.S is the module's kept one, so the masks are listed,
    and each mask's psi and N computed, once for every member checked.
    Every decision is made at the space's tol, at which the dimension of
    the whole algebra was computed once.  On an empty psi(A) or N every
    flag is False: a check over an empty span has nothing to decide.
    """
    A, tol = frozenset(A), rs.tol
    idx = _trace_index(rs.ext.S)
    trace = idx.trace_of(A)
    if idx.members(trace) != A or not idx.is_monoid(trace):
        raise DomainError("input is not a spectral monoid containing the idempotents")
    alg, gens, adj, N = _selfadjoint_part(rs, idx, trace)

    dim = len(rs.rbasis)
    eye = np.eye(dim, dtype=complex)
    unital = bool(np.abs(_hs_projection(N, eye) - eye).max() <= tol)

    proj = _hs_projections(N, gens)
    dev = _multiplicativity_defect(N, gens, proj)
    multiplicative = dev <= tol
    bimodular = _bimodularity_defect(N, gens, proj) <= tol

    M_dim = rs.algebra.dimension
    dense = len(subspace_basis(alg.basis + adj, tol)) == M_dim

    maximal = True
    n_dim = len(N)
    if not (alg.dimension and n_dim):  # a check over an empty span decides nothing
        multiplicative = dense = unital = bimodular = maximal = False
    for trace2 in idx.monoid_masks(guard):
        if trace2 == trace or trace2 & trace != trace:
            continue
        alg2, gens2, adj2, N2 = _selfadjoint_part(rs, idx, trace2)
        if len(N2) != n_dim:
            continue
        if _all_within(N, N2, tol):
            # same self-adjoint part but strictly larger subdiagonal candidate
            dev2 = _multiplicativity_defect(N2, gens2, _hs_projections(N2, gens2))
            dense2 = len(subspace_basis(alg2.basis + adj2, tol)) == M_dim
            if dev2 <= tol and dense2:
                maximal = False
    return SubdiagonalReport(
        dim_algebra=alg.dimension,
        dim_selfadjoint_part=len(N),
        multiplicative=multiplicative,
        dense=dense,
        expectation_unital=unital,
        expectation_bimodular=bimodular,
        maximal=maximal,
        max_deviation=dev,
    )
