"""Spectral sets, the join-span lattice, the correspondence with diagonal
bimodules of the generated algebra, intermediate algebras, and the
classification of maximal subdiagonal/triangular subalgebras.

A spectral set is modeled as a frozenset of monoid elements containing the
zero map, downward closed, and closed under orthogonal joins.  In the finite
case it is fixed by the minimal nonzero elements it contains (for the
canonical realizations these are the one-point maps, i.e. the points of the
relation R).  Every public call builds one trace index: the minimal
elements, each element's trace (the bitmask of minimals below it) and the
dagger permutation on minimals.  The spectral sets are then exactly
A(X) = {s : trace(s) inside X} for the masks X, so closure, join span,
enumeration and the msd/mtr conditions are bitmask arithmetic.

The numeric conditions are linear or bilinear in the matrices they test:
diagonal invariance of psi(A), multiplicativity of the expectation E onto
the self-adjoint part N and its N-bimodularity.  So each is checked on a
spanning set only, the orthonormal bases of the diagonal, of psi(A) and of
N, with one stacked Hilbert-Schmidt residual or projection per condition
(``vn_oracle._residual_norms`` and ``_hs_projections``) instead of one
projection per pair of matrices.  theta tests all |S| lambdas in one
stacked residual.  ``verify_members`` lists the spectral-monoid masks of
the maximality scan once, and computes psi and N once per mask.

Closure in the matrix picture is a no-op here (every linear subspace of a
finite matrix space is closed in all the relevant topologies), which reports
note explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ._lazy import np
from .errors import DomainError, InvariantViolation, SizeGuardError
from .kernel_rep import DEFAULT_TOL, RBasis, RepSpace
from .semigroup_core import (
    FiniteInverseMonoid,
    are_orthogonal,
    bits,
    dagger,
    mask_of,
    natural_leq,
    orthogonal_join,
)
from .vn_oracle import (
    MatrixAlgebra,
    _accepted_points,
    _algebra_checks,
    _hs_projection,
    _hs_projections,
    _null_combinations,
    _pattern_intersection,
    _pattern_positions,
    _residual_norms,
    contains_matrix,
    subspace_basis,
)

__all__ = [
    "SPECTRAL_GUARD",
    "Bimodule",
    "is_spectral_set",
    "spectral_closure",
    "join_span",
    "enumerate_spectral_sets",
    "psi",
    "theta",
    "theta_gn",
    "full_submonoids",
    "aoi_correspondence",
    "intermediate_algebra_check",
    "msd",
    "mtr",
    "verify_subdiagonal",
    "verify_members",
]

SPECTRAL_GUARD = 25

CLOSURE_NOTE = "finite dimension: linear subspaces are closed in every relevant topology"


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


class _TraceIndex:
    """Spectral sets of S as bitmasks over its minimal nonzero elements.

    ``trace[s]`` has bit i set iff ``minimals[i] <= s``, and ``dag[i]`` is
    the position of the dagger of ``minimals[i]``.  Construction checks that
    every element is the join of the minimals below it and that S is closed
    under binary orthogonal joins.  Then X -> A(X) = {s : trace[s] inside X}
    is a bijection from masks onto spectral sets that turns union,
    intersection, inclusion and dagger of masks into join span,
    intersection, inclusion and dagger of sets.  An index also keeps what
    the members of one ``verify_members`` call share: the spectral-monoid
    masks and each mask's numeric parts.
    """

    def __init__(self, S: FiniteInverseMonoid):
        self.S = S
        nonzero = [s for s in S if not s.is_zero()]
        below = {s: [t for t in nonzero if natural_leq(t, s)] for s in nonzero}
        self.minimals = [s for s in nonzero if below[s] == [s]]
        pos = {m: i for i, m in enumerate(self.minimals)}
        self.trace = {s: mask_of(pos[t] for t in below.get(s, ()) if t in pos) for s in S}
        self.idempotent = mask_of(i for i, m in enumerate(self.minimals) if m.is_idempotent())
        self.full = (1 << len(self.minimals)) - 1
        self.dag = [pos.get(dagger(m)) for m in self.minimals]
        if None in self.dag:
            raise DomainError("the monoid is not closed under dagger")
        for s in nonzero:
            covered = (a for i in bits(self.trace[s]) for a in bits(self.minimals[i].domain))
            if mask_of(covered) != s.domain:
                raise DomainError(f"{s} is not the join of the minimal elements below it")
        traces = set(self.trace.values())
        shapes = [(self.trace[s], s.domain, s.range_mask) for s in nonzero]
        for (xs, ds, rs), (xt, dt, rt) in itertools.combinations(shapes, 2):
            if not (ds & dt or rs & rt) and xs | xt not in traces:
                raise DomainError("the monoid is not closed under orthogonal joins")
        self._monoid_masks: dict[int, list[int]] = {}
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

    def masks(self, guard: int):
        """Every mask, by size and then in itertools.combinations order."""
        m = len(self.minimals)
        if m > guard:
            raise SizeGuardError(2**m, 2**guard, "spectral set enumeration")
        for r in range(m + 1):
            for combo in itertools.combinations(range(m), r):
                yield mask_of(combo)

    def monoid_masks(self, guard: int) -> list[int]:
        """The masks, in ``masks`` order, of the spectral monoids holding the
        idempotents; listed once per index and guard, then kept."""
        if guard not in self._monoid_masks:
            self._monoid_masks[guard] = [
                X
                for X in self.masks(guard)
                if X & self.idempotent == self.idempotent and _is_spectral_monoid(self, X, self.members(X))
            ]
        return self._monoid_masks[guard]


def spectral_closure(S: FiniteInverseMonoid, gen) -> frozenset:
    """Least spectral set containing the generators: A(OR of their traces)."""
    idx = _TraceIndex(S)
    return idx.members(idx.trace_of(gen))


def join_span(S: FiniteInverseMonoid, A1, A2) -> frozenset:
    """Smallest spectral set containing both operands: A(X1 | X2)."""
    idx = _TraceIndex(S)
    return idx.members(idx.trace_of(A1) | idx.trace_of(A2))


def enumerate_spectral_sets(S: FiniteInverseMonoid, guard: int = SPECTRAL_GUARD) -> list[frozenset]:
    """All spectral sets, one A(X) per subset X of the minimal nonzero
    elements, by |X| and then in itertools.combinations order of the
    minimals (canonical element order), i.e. in ``_TraceIndex.masks`` order,
    the order msd, mtr and full_submonoids keep.  Distinct masks give
    distinct sets because A(X) contains exactly the minimals in X.
    """
    idx = _TraceIndex(S)
    return [idx.members(X) for X in idx.masks(guard)]


@dataclass
class Bimodule:
    """A diagonal-invariant subspace of the generated matrix algebra."""

    basis: list
    rbasis: RBasis
    closure_note: str = CLOSURE_NOTE
    left_invariant: bool = True
    right_invariant: bool = True

    @property
    def dimension(self):
        return len(self.basis)

    def contains(self, M, tol: float = DEFAULT_TOL) -> bool:
        return contains_matrix(self.basis, M, tol)


def psi(rs: RepSpace, A, tol: float = DEFAULT_TOL) -> Bimodule:
    """Linear span of the represented section over a spectral set.

    The result is automatically invariant under both diagonal actions;
    invariance is verified, not assumed, against the orthonormal basis of
    the diagonal: one stacked residual of every product d b per side.
    """
    mats = [rs.lam_of(s) for s in sorted(A)]
    basis = subspace_basis(mats, tol)
    dim = len(rs.rbasis)
    B = np.reshape(basis, (len(basis), dim, dim))
    D = np.asarray(rs.diagonal_basis)[:, None]
    left = bool((_residual_norms(basis, D @ B) <= tol).all())
    right = bool((_residual_norms(basis, B @ D) <= tol).all())
    if not (left and right):
        raise InvariantViolation("span of a spectral set is not diagonal-invariant")
    return Bimodule(basis, rs.rbasis, CLOSURE_NOTE, left, right)


def theta(rs: RepSpace, B: Bimodule, tol: float = DEFAULT_TOL, check_gn: bool = True) -> frozenset:
    """Elements of S whose represented section lies in the bimodule, read
    from one stacked residual of all their lambdas.

    Phase absorption makes this independent of the section; when check_gn
    is set, the normalizer-based reading (graphs implemented by unimodular
    elements of B) is computed as well and must agree.
    """
    S = rs.ext.S
    inside = _residual_norms(B.basis, np.asarray([rs.lam_of(s) for s in S])) <= tol
    members = frozenset(s for s, ok in zip(S, inside) if ok)
    if check_gn:
        gn = theta_gn(rs, B, tol)
        if gn != members:
            raise InvariantViolation("section-based and normalizer-based readings differ")
    return members


def theta_gn(rs: RepSpace, B: Bimodule, tol: float = DEFAULT_TOL) -> frozenset:
    """Normalizer-based reading: s is included iff B contains an element
    supported exactly on the transport pattern of s with unimodular entries.

    The points of the relation are tested once; the pattern solve runs only
    for elements whose graph points are all accepted.
    """
    rbasis = rs.rbasis
    alg = MatrixAlgebra(B.basis, rbasis)
    accepted = _accepted_points(alg, tol)

    def implemented(s):
        if not accepted.issuperset(s.pairs()):
            return False
        inter = _pattern_intersection(alg, _pattern_positions(rbasis, s), tol)
        return len(inter) == s.domain.bit_count()

    return frozenset(s for s in rs.ext.S if s.is_zero() or implemented(s))


def full_submonoids(S: FiniteInverseMonoid, guard: int = SPECTRAL_GUARD) -> list[frozenset]:
    """Spectral sets that are dagger-closed submonoids containing all
    idempotents (full Cartan inverse submonoids): X^dag is X."""
    idx = _TraceIndex(S)
    return _spectral_monoids(idx, guard, lambda X, X_dag: X_dag == X)


@dataclass
class AoiReport:
    submonoid_count: int
    algebra_dims: list
    bijective: bool
    closure_note: str = CLOSURE_NOTE

    def to_lines(self):
        return [
            f"full_submonoids: {self.submonoid_count}",
            f"intermediate_algebra_dims: {self.algebra_dims}",
            f"bijective: {'pass' if self.bijective else 'FAIL'}",
            f"note: {self.closure_note}",
        ]


def intermediate_algebra_check(rs: RepSpace, T, tol: float = DEFAULT_TOL) -> Bimodule:
    """Check that the span of one full submonoid is an intermediate algebra:
    unital, self-adjoint, product closed, containing the diagonal."""
    B = psi(rs, T, tol)
    checks = _algebra_checks(B.basis, len(rs.rbasis), tol)
    for ok, what in zip(checks, ("unital", "self-adjoint", "product closed")):
        if not ok:
            raise InvariantViolation(f"intermediate span is not {what}")
    for p in rs.ext.phased_identities:
        if not B.contains(rs.lam(p), tol):
            raise InvariantViolation("intermediate span does not contain the diagonal")
    return B


def aoi_correspondence(rs: RepSpace, guard: int = SPECTRAL_GUARD, tol: float = DEFAULT_TOL) -> AoiReport:
    """Full submonoids against the algebra side, both directions.

    Forward: each full submonoid spans an intermediate algebra.  Backward:
    every spectral set whose span is a unital self-adjoint product-closed
    algebra containing the diagonal arises this way, and theta returns the
    submonoid it came from.
    """
    S = rs.ext.S
    monoids = full_submonoids(S, guard)
    algebras = []
    for T in monoids:
        B = intermediate_algebra_check(rs, T, tol)
        if theta(rs, B, tol) != T:
            raise InvariantViolation("theta does not invert psi on a full submonoid")
        algebras.append(B)

    algebra_like = 0
    for A in enumerate_spectral_sets(S, guard):
        B = psi(rs, A, tol)
        if not all(_algebra_checks(B.basis, len(rs.rbasis), tol)):
            continue
        if any(not B.contains(rs.lam(p), tol) for p in rs.ext.phased_identities):
            continue
        algebra_like += 1
    bijective = algebra_like == len(monoids)
    return AoiReport(len(monoids), sorted(b.dimension for b in algebras), bijective)


def _spectral_monoids(idx: _TraceIndex, guard: int, keep) -> list[frozenset]:
    """A(X) for the masks X, in ``masks`` order, that hold the idempotent
    minimals, satisfy keep(X, X^dag) and span a set closed under products.
    A(X) is built only for masks that pass the two bitmask tests."""
    out = []
    for X in idx.masks(guard):
        if X & idx.idempotent != idx.idempotent or not keep(X, idx.dagger_of(X)):
            continue
        A = idx.members(X)
        if _is_spectral_monoid(idx, X, A):
            out.append(A)
    return out


def _is_spectral_monoid(idx: _TraceIndex, X: int, A) -> bool:
    """A = A(X) contains every idempotent (X holds the idempotent minimals)
    and is closed under products, read from the Cayley table of S."""
    if X & idx.idempotent != idx.idempotent:
        return False
    mul = idx.S.mul
    ids = {idx.S.index[s] for s in A}
    return all(ids.issuperset([mul[i][j] for j in ids]) for i in ids)


def msd(S: FiniteInverseMonoid, guard: int = SPECTRAL_GUARD) -> list[frozenset]:
    """Spectral monoids containing all idempotents whose join span with
    their dagger recovers the whole monoid: X | X^dag is every minimal."""
    idx = _TraceIndex(S)
    return _spectral_monoids(idx, guard, lambda X, X_dag: X | X_dag == idx.full)


def mtr(S: FiniteInverseMonoid, guard: int = SPECTRAL_GUARD) -> list[frozenset]:
    """Members of msd whose self-adjoint part is exactly the idempotents:
    X & X^dag is the set of idempotent minimals."""
    idx = _TraceIndex(S)
    return _spectral_monoids(
        idx, guard, lambda X, X_dag: X | X_dag == idx.full and X & X_dag == idx.idempotent
    )


@dataclass
class SubdiagonalReport:
    dim_algebra: int
    dim_selfadjoint_part: int
    multiplicative: bool
    dense: bool
    expectation_unital: bool
    expectation_bimodular: bool
    maximal: bool
    max_deviation: float
    closure_note: str = CLOSURE_NOTE

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
    return float(np.abs(_hs_projections(Q, XY) - proj[:, None] @ proj[None]).max())


def _bimodularity_defect(Q: np.ndarray, gens: np.ndarray, proj: np.ndarray) -> float:
    """Largest entry of E(nX) - n E(X) and E(Xn) - E(X) n over n in the
    stacked orthonormal basis Q and the generators, proj being E of gens."""
    N = Q[:, None]
    left = _hs_projections(Q, N @ gens) - N @ proj
    right = _hs_projections(Q, gens @ N) - proj @ N
    return float(max(np.abs(left).max(), np.abs(right).max()))


def _selfadjoint_part(rs: RepSpace, idx: _TraceIndex, X: int, tol: float):
    """psi(A(X)), the stack of its basis, the adjoints of its basis, and the
    stack of the orthonormal basis of its self-adjoint part N, for a
    spectral monoid A(X) (so neither stack is empty).  Computed once per
    space, tol and mask, and kept in ``idx.parts``."""
    key = (rs, tol, X)
    if key not in idx.parts:
        alg = psi(rs, idx.members(X), tol)
        adj = [b.conj().T for b in alg.basis]
        N = _subspace_intersection(alg.basis, adj, tol)
        idx.parts[key] = alg, np.asarray(alg.basis), adj, np.asarray(N)
    return idx.parts[key]


def verify_subdiagonal(
    rs: RepSpace, A, guard: int = SPECTRAL_GUARD, tol: float = DEFAULT_TOL, index: _TraceIndex | None = None
) -> SubdiagonalReport:
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
    the N-dimension, containment, defect and density checks.  ``index`` is
    the trace index of rs.ext.S, built here when not given
    (``verify_members`` builds one for all its members, so the masks are
    listed, and each mask's psi and N computed, once for all of them).
    The dimension of the whole algebra is the RepSpace's, computed once at
    its tol.
    """
    A = frozenset(A)
    idx = index if index is not None else _TraceIndex(rs.ext.S)
    trace = idx.trace_of(A)
    if idx.members(trace) != A or not _is_spectral_monoid(idx, trace, A):
        raise DomainError("input is not a spectral monoid containing the idempotents")
    alg, gens, adj, N = _selfadjoint_part(rs, idx, trace, tol)

    dim = len(rs.rbasis)
    eye = np.eye(dim, dtype=complex)
    unital = bool(np.abs(_hs_projection(N, eye) - eye).max() <= tol)

    proj = _hs_projections(N, gens)
    dev = _multiplicativity_defect(N, gens, proj)
    multiplicative = dev <= tol
    bimodular = _bimodularity_defect(N, gens, proj) <= tol

    M_dim = rs.algebra_dimension
    dense = len(subspace_basis(alg.basis + adj, tol)) == M_dim

    maximal = True
    n_dim = len(N)
    for trace2 in idx.monoid_masks(guard):
        if trace2 == trace or trace2 & trace != trace:
            continue
        alg2, gens2, adj2, N2 = _selfadjoint_part(rs, idx, trace2, tol)
        if len(N2) != n_dim:
            continue
        if (_residual_norms(N, N2) <= tol).all():
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


def verify_members(
    rs: RepSpace, members, guard: int = SPECTRAL_GUARD, tol: float = DEFAULT_TOL
) -> list[SubdiagonalReport]:
    """verify_subdiagonal on each member, in order, with one trace index."""
    index = _TraceIndex(rs.ext.S)
    return [verify_subdiagonal(rs, A, guard, tol, index=index) for A in members]
