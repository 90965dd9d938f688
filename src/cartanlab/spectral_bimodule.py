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

Closure in the matrix picture is a no-op here (every linear subspace of a
finite matrix space is closed in all the relevant topologies), which reports
note explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

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
    _hs_projection,
    _nullspace_dimension,
    _pattern_intersection,
    _pattern_positions,
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
    intersection, inclusion and dagger of sets.
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
    invariance is verified, not assumed.
    """
    mats = [rs.lam_of(s) for s in sorted(A, key=lambda s: (s.domain, s.image))]
    basis = subspace_basis(mats, tol)
    d_basis = [rs.lam(p) for p in rs.ext.phased_identities]
    left = all(contains_matrix(basis, d @ b, tol) for d in d_basis for b in basis)
    right = all(contains_matrix(basis, b @ d, tol) for d in d_basis for b in basis)
    if not (left and right):
        raise InvariantViolation("span of a spectral set is not diagonal-invariant")
    return Bimodule(basis, rs.rbasis, CLOSURE_NOTE, left, right)


def theta(rs: RepSpace, B: Bimodule, tol: float = DEFAULT_TOL, check_gn: bool = True) -> frozenset:
    """Elements of S whose represented section lies in the bimodule.

    Phase absorption makes this independent of the section; when check_gn
    is set, the normalizer-based reading (graphs implemented by unimodular
    elements of B) is computed as well and must agree.
    """
    members = frozenset(s for s in rs.ext.S if B.contains(rs.lam_of(s), tol))
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
    dim = len(rs.rbasis)
    if not B.contains(np.eye(dim, dtype=complex), tol):
        raise InvariantViolation("intermediate span is not unital")
    for b in B.basis:
        if not B.contains(b.conj().T, tol):
            raise InvariantViolation("intermediate span is not self-adjoint")
    for a in B.basis:
        for b in B.basis:
            if not B.contains(a @ b, tol):
                raise InvariantViolation("intermediate span is not product closed")
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

    dim = len(rs.rbasis)
    eye = np.eye(dim, dtype=complex)
    algebra_like = 0
    for A in enumerate_spectral_sets(S, guard):
        B = psi(rs, A, tol)
        if not B.contains(eye, tol):
            continue
        if any(not B.contains(b.conj().T, tol) for b in B.basis):
            continue
        if any(not B.contains(a @ b, tol) for a in B.basis for b in B.basis):
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
    out = []
    for A in msd(S, guard):
        X = idx.trace_of(A)
        if X & idx.dagger_of(X) == idx.idempotent:
            out.append(A)
    return out


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
    _, null = _nullspace_dimension(np.hstack([A, -B]), tol)
    shape = basis_a[0].shape
    out = [(A @ coeffs[: A.shape[1]]).reshape(shape) for coeffs in null]
    return subspace_basis(out, tol)


def _multiplicativity_defect(Q, gens, proj) -> float:
    """Largest entry of E(XY) - E(X) E(Y) over pairs of generators, where E
    projects onto the stacked basis Q and proj[i] is E(gens[i])."""
    return max(
        float(np.abs(_hs_projection(Q, X @ Y) - PX @ PY).max())
        for X, PX in zip(gens, proj)
        for Y, PY in zip(gens, proj)
    )


def verify_subdiagonal(rs: RepSpace, A, guard: int = SPECTRAL_GUARD, tol: float = DEFAULT_TOL) -> SubdiagonalReport:
    """Verify that a spectral monoid spans a maximal subdiagonal algebra.

    The expectation onto the self-adjoint part N is realized as the
    orthogonal (Hilbert-Schmidt) projection; its unitality and
    N-bimodularity are verified rather than assumed.  Maximality is checked
    against the other enumerated spectral-monoid candidates with the same
    self-adjoint part, which is exactly what the classification licenses.
    """
    A = frozenset(A)
    idx = _TraceIndex(rs.ext.S)
    trace = idx.trace_of(A)
    if idx.members(trace) != A or not _is_spectral_monoid(idx, trace, A):
        raise DomainError("input is not a spectral monoid containing the idempotents")
    alg = psi(rs, A, tol)
    adj = [b.conj().T for b in alg.basis]
    N = _subspace_intersection(alg.basis, adj, tol)

    Q = np.asarray(N)  # stacked once for every projection onto N below
    dim = len(rs.rbasis)
    eye = np.eye(dim, dtype=complex)
    unital = bool(np.abs(_hs_projection(Q, eye) - eye).max() <= tol)

    gens = [rs.lam_of(s) for s in sorted(A, key=lambda s: (s.domain, s.image))]
    proj = [_hs_projection(Q, X) for X in gens]
    dev = _multiplicativity_defect(Q, gens, proj)
    multiplicative = dev <= tol

    bimodular = True
    for n1 in N:
        for X, PX in zip(gens, proj):
            if np.abs(_hs_projection(Q, n1 @ X) - n1 @ PX).max() > tol:
                bimodular = False
            if np.abs(_hs_projection(Q, X @ n1) - PX @ n1).max() > tol:
                bimodular = False

    M_dim = len(subspace_basis([rs.lam(v) for v in rs.ext.elements], tol))
    dense = len(subspace_basis(alg.basis + adj, tol)) == M_dim

    maximal = True
    n_dim = len(N)
    for trace2 in idx.masks(guard):
        if trace2 == trace or trace2 & trace != trace:
            continue
        A2 = idx.members(trace2)
        if not _is_spectral_monoid(idx, trace2, A2):
            continue
        alg2 = psi(rs, A2, tol)
        adj2 = [b.conj().T for b in alg2.basis]
        N2 = _subspace_intersection(alg2.basis, adj2, tol)
        if len(N2) != n_dim:
            continue
        if all(contains_matrix(N, m, tol) for m in N2):
            # same self-adjoint part but strictly larger subdiagonal candidate
            gens2 = [rs.lam_of(s) for s in A2]
            Q2 = np.asarray(N2)
            dev2 = _multiplicativity_defect(Q2, gens2, [_hs_projection(Q2, X) for X in gens2])
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
