"""Brute-force finite-dimensional operator-algebra verification.

Everything here treats matrices on the relation space as opaque numerical
objects: spans via Gram-Schmidt in the Hilbert-Schmidt inner product,
membership via one Hilbert-Schmidt projection onto the stacked orthonormal
basis (for a whole stack of matrices, one product each way), commutants
via nullspace solves, expectations via entry compression.  The point is to confirm the structural theorems against plain linear algebra
rather than against the semigroup machinery that produced the matrices.

Every nullspace comes from one SVD, thin whenever the system has at least as
many rows as columns (its right factor is then already square), so no solve
materializes the rows-by-rows left factor.  The commutant of a family is the
nullspace of the Kronecker system stacking B (x) 1 - 1 (x) B^T over the family.
``cartan_report`` builds the lambda matrices once, in one ``RepSpace`` that
the expectation checks share.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import np
from .errors import DomainError, InvariantViolation, SizeGuardError
from .extension import Extension, Section, delta
from .kernel_rep import DEFAULT_TOL, RBasis, RepSpace, expectation
from .generators import _partial_injections
from .semigroup_core import FiniteInverseMonoid, PartialBijection, relabelings, singleton

__all__ = [
    "MatrixAlgebra",
    "span_basis",
    "commutant_dimension",
    "relative_commutant",
    "masa_check",
    "expectation_properties",
    "recover_extension",
    "cartan_report",
    "hs_inner",
    "subspace_basis",
    "contains_matrix",
    "RECOVER_GUARD",
]

RECOVER_GUARD = 40


def hs_inner(A: np.ndarray, B: np.ndarray) -> complex:
    return complex(np.vdot(A, B))


def subspace_basis(matrices, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis (Hilbert-Schmidt) of the linear span, by modified
    Gram-Schmidt in input order; deterministic."""
    basis: list[np.ndarray] = []
    for M in matrices:
        v = M.astype(complex).copy()
        for _ in range(2):  # re-orthogonalize for stability
            for b in basis:
                v -= hs_inner(b, v) * b
        norm = np.sqrt(abs(hs_inner(v, v)))
        if norm > tol:
            basis.append(v / norm)
    return basis


def _hs_projection(basis, M: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection of M onto the span of an
    orthonormal basis (a list of matrices, or their stack, which callers
    projecting many matrices build once): one product against the stacked
    basis for the coefficients, one for their combination."""
    if not len(basis):
        return np.zeros(M.shape, dtype=complex)
    Q = np.asarray(basis).reshape(len(basis), -1)
    return (Q.conj() @ M.ravel() @ Q).reshape(M.shape)


def contains_matrix(basis, M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether M lies in the span: its residual off the projection has
    Hilbert-Schmidt norm at most tol."""
    r = M - _hs_projection(basis, M)
    return bool(np.sqrt(abs(hs_inner(r, r))) <= tol)


def _hs_projections(basis, mats: np.ndarray) -> np.ndarray:
    """``_hs_projection`` of every matrix in the stack ``mats`` (shape
    (..., d, d)), as a stack of that shape: the flattened stack P goes to
    (P Q^H) Q, one product each way against the stacked basis Q."""
    if not len(basis):
        return np.zeros(mats.shape, dtype=complex)
    Q = np.asarray(basis).reshape(len(basis), -1)
    P = mats.reshape(-1, Q.shape[1])
    return ((P @ Q.conj().T) @ Q).reshape(mats.shape)


def _residual_norms(basis, mats: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt norm of each matrix in the stack ``mats`` (shape
    (..., d, d)) off the span of the orthonormal basis, one per matrix in
    flattened order.  ``norms <= tol`` is ``contains_matrix`` per matrix."""
    P = mats.reshape(-1, mats.shape[-2] * mats.shape[-1])
    return np.linalg.norm(P - _hs_projections(basis, P), axis=1)


@dataclass
class MatrixAlgebra:
    """An orthonormal spanning basis of a self-adjoint unital matrix algebra."""

    basis: list
    rbasis: RBasis
    product_closed: bool = True
    adjoint_closed: bool = True
    has_identity: bool = True

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        return contains_matrix(self.basis, M, tol)


def span_basis(matrices, rbasis: RBasis, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """Span of the given matrices with closure verification.

    The span is computed by Gram-Schmidt; closure of the span under products
    and adjoints (and membership of the identity) is verified and reported
    in the returned flags, not enforced.
    """
    mats = list(matrices)
    if not mats:
        raise DomainError("span_basis needs a nonempty matrix list")
    basis = subspace_basis(mats, tol)
    has_identity, adjoint_closed, product_closed = _algebra_checks(basis, mats[0].shape[0], tol)
    return MatrixAlgebra(basis, rbasis, product_closed, adjoint_closed, has_identity)


def _algebra_checks(basis, dim: int, tol: float):
    """Lazily, in this order: whether the span of the orthonormal basis of
    dim x dim matrices holds the identity, is closed under adjoints, and is
    closed under products."""
    yield contains_matrix(basis, np.eye(dim, dtype=complex), tol)
    yield all(contains_matrix(basis, a.conj().T, tol) for a in basis)
    yield all(contains_matrix(basis, a @ b, tol) for a in basis for b in basis)


def _nullspace_dimension(A: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """(dimension, orthonormal nullspace basis as rows) via SVD.

    With at least as many rows as columns the thin SVD already returns the
    square right factor, so the rows-by-rows left factor is never built.
    Only a wide A needs the full SVD: its thin right factor lacks the
    nullspace rows.
    """
    rows, cols = A.shape
    if A.size == 0:
        return cols, np.eye(cols, dtype=complex)
    _, svals, vh = np.linalg.svd(A, full_matrices=rows < cols)
    rank = int(np.sum(svals > tol))
    return cols - rank, vh[rank:].conj()


def _null_combinations(A: np.ndarray, basis, tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the combinations of the matrices in ``basis``
    whose coefficient vectors make up the nullspace of A.  Columns of A
    past the first len(basis) take part in the solve only."""
    _, null = _nullspace_dimension(A, tol)
    cols = np.stack([b.ravel() for b in basis], axis=1)
    shape = basis[0].shape
    return subspace_basis([(cols @ c[: len(basis)]).reshape(shape) for c in null], tol)


def relative_commutant(M: MatrixAlgebra, D: MatrixAlgebra, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of {x in span(M) : xd = dx for all d in basis(D)}."""
    m = M.dimension
    rows = []
    for d in D.basis:
        block = np.stack([(b @ d - d @ b).ravel() for b in M.basis], axis=1)
        rows.append(block)
    A = np.vstack(rows) if rows else np.zeros((0, m))
    return _null_combinations(A, M.basis, tol)


def _commutant_system(basis, ambient_dim: int) -> np.ndarray:
    """The linear system of X B = B X over the family, X row-major.

    Row-major vec(B X) = (B (x) 1) vec(X) and vec(X B) = (1 (x) B^T) vec(X),
    so the system stacks one Kronecker block per family member.
    """
    eye = np.eye(ambient_dim, dtype=complex)
    return np.vstack([np.kron(B, eye) - np.kron(eye, B.T) for B in basis])


def commutant_dimension(basis, ambient_dim: int, tol: float = DEFAULT_TOL) -> tuple[int, list[np.ndarray]]:
    """Commutant of a matrix family inside the full matrix algebra: the
    nullspace of the stacked Kronecker system (thin SVD, as it is tall)."""
    A = _commutant_system(basis, ambient_dim)
    dim, null = _nullspace_dimension(A, tol)
    mats = [coeffs.reshape(ambient_dim, ambient_dim) for coeffs in null]
    return dim, subspace_basis(mats, tol)


@dataclass
class MasaReport:
    dim_algebra: int
    dim_subalgebra: int
    dim_relative_commutant: int
    center_dimension: int
    is_masa: bool

    def to_lines(self):
        return [
            f"dim_M: {self.dim_algebra}",
            f"dim_D: {self.dim_subalgebra}",
            f"dim_relative_commutant: {self.dim_relative_commutant}",
            f"center_dimension: {self.center_dimension}",
            f"masa: {'pass' if self.is_masa else 'FAIL'}",
        ]


def masa_check(M: MatrixAlgebra, D: MatrixAlgebra, tol: float = DEFAULT_TOL) -> MasaReport:
    """D is maximal abelian in M iff its relative commutant is itself."""
    for d in D.basis:
        if not M.contains(d, tol):
            raise DomainError("D is not contained in M")
    comm = relative_commutant(M, D, tol)
    center = relative_commutant(M, M, tol)
    return MasaReport(
        dim_algebra=M.dimension,
        dim_subalgebra=D.dimension,
        dim_relative_commutant=len(comm),
        center_dimension=len(center),
        is_masa=len(comm) == D.dimension,
    )


@dataclass
class ExpectationReport:
    matches_diagonal_part: bool
    idempotent: bool
    unital: bool
    positive: bool
    faithful: bool
    bimodular: bool
    max_deviation: float

    @property
    def passed(self):
        return (
            self.matches_diagonal_part
            and self.idempotent
            and self.unital
            and self.positive
            and self.faithful
            and self.bimodular
        )

    def to_lines(self):
        flag = lambda b: "pass" if b else "FAIL"
        return [
            f"expectation_matches_diagonal_part: {flag(self.matches_diagonal_part)}",
            f"expectation_idempotent: {flag(self.idempotent)}",
            f"expectation_unital: {flag(self.unital)}",
            f"expectation_positive: {flag(self.positive)}",
            f"expectation_faithful: {flag(self.faithful)}",
            f"expectation_bimodular: {flag(self.bimodular)}",
            f"expectation_max_deviation: {self.max_deviation:.3e}",
        ]


def expectation_properties(rs: RepSpace, samples: int = 100) -> ExpectationReport:
    """Verify the compression expectation on the generated algebra.

    (i) it sends each represented element to its represented diagonal part;
    (ii) idempotent, unital, positive on sampled x*x; (iii) faithful, via
    injectivity (rank) of x -> columns of x at the diagonal pairs on the
    span; (iv) bimodular over the diagonal subalgebra on a spanning set.
    The lambda matrices come from the caller's ``RepSpace`` (its cache,
    section and ``tol``), so a report that already built them builds none.
    """
    ext = rs.ext
    tol = rs.tol
    rbasis = rs.rbasis
    G = ext.elements
    lams = {v: rs.lam(v) for v in G}

    dev = 0.0
    for v in G:
        dev = max(dev, float(np.abs(rs.expectation(lams[v]) - rs.lam(delta(ext, rs.j, v))).max()))
    matches = dev <= tol

    M_basis = subspace_basis(list(lams.values()), tol)
    dim = len(rbasis)
    rng = np.random.default_rng(0)

    idempotent = True
    positive = True
    unital = bool(np.abs(rs.expectation(np.eye(dim, dtype=complex)) - np.eye(dim)).max() <= tol)
    for _ in range(samples):
        coeffs = rng.normal(size=len(M_basis)) + 1j * rng.normal(size=len(M_basis))
        x = sum(c * b for c, b in zip(coeffs, M_basis))
        Ex = rs.expectation(x)
        if np.abs(rs.expectation(Ex) - Ex).max() > tol:
            idempotent = False
        Exx = rs.expectation(x.conj().T @ x)
        eigs = np.linalg.eigvalsh((Exx + Exx.conj().T) / 2)
        if eigs.min() < -tol:
            positive = False

    diag_cols = rbasis.diagonal_indices()
    F = np.stack([b[:, diag_cols].ravel() for b in M_basis], axis=1)
    faithful = _nullspace_dimension(F, tol)[0] == 0

    bimodular = True
    d_basis = [rs.lam(p) for p in ext.phased_identities]
    for d in d_basis[: min(len(d_basis), 8)]:
        for b in M_basis[: min(len(M_basis), 12)]:
            lhs = rs.expectation(d @ b)
            rhs = d @ rs.expectation(b)
            lhs2 = rs.expectation(b @ d)
            rhs2 = rs.expectation(b) @ d
            if np.abs(lhs - rhs).max() > tol or np.abs(lhs2 - rhs2).max() > tol:
                bimodular = False

    return ExpectationReport(matches, idempotent, unital, positive, faithful, bimodular, dev)


def _pattern_positions(rbasis: RBasis, g: PartialBijection):
    """Matrix positions of the transport of g: ((g(x), y), (x, y)) over pairs."""
    pos = []
    for col, (x, y) in enumerate(rbasis.pairs):
        if (g.domain >> x) & 1:
            pos.append((rbasis.index[(g.apply(x), y)], col))
    return pos


def _pattern_intersection(M: MatrixAlgebra, positions, tol: float):
    """Basis of the elements of span(M) supported exactly within positions."""
    if not M.basis:
        return []
    dim = len(M.rbasis)
    mask = np.zeros((dim, dim), dtype=bool)
    for r, c in positions:
        mask[r, c] = True
    outside = ~mask
    rows = np.stack([b[outside].ravel() for b in M.basis], axis=1)
    return _null_combinations(rows, M.basis, tol)


def _point_accepted(M: MatrixAlgebra, x: int, y: int, tol: float) -> bool:
    """Whether the one-point map y -> x is implemented by a normalizer in M.

    Its pattern is a single column group, so acceptance means: the elements
    of span(M) supported on the group form a one-dimensional space spanned
    by a vector with constant nonzero modulus across the whole group (the
    unimodular rephasing of the 0/1 transport matrix).
    """
    rbasis = M.rbasis
    positions = _pattern_positions(rbasis, singleton(rbasis.atom_count, y, x))
    inter = _pattern_intersection(M, positions, tol)
    if len(inter) != 1:
        return False
    vals = np.array([inter[0][r, c] for r, c in positions])
    mods = np.abs(vals)
    return bool(mods.min() > tol and mods.max() - mods.min() <= 1e-6 * mods.max())


def _accepted_points(M: MatrixAlgebra, tol: float) -> set:
    """The relation points (x, y) whose one-point map y -> x is implemented
    by a normalizer in M: one ``_point_accepted`` solve per point."""
    return {(x, y) for (x, y) in M.rbasis.pairs if _point_accepted(M, x, y, tol)}


def recover_extension(M: MatrixAlgebra, D: MatrixAlgebra, S: FiniteInverseMonoid, tol: float = DEFAULT_TOL, guard: int = RECOVER_GUARD):
    """Recover the base monoid from the generated pair and match it to S.

    Candidates are the partial bijections of atoms whose graph points are
    all accepted; a candidate g survives iff span(M) contains an element
    supported exactly on the transport pattern of g with unimodular entries
    (a groupoid normalizer implementing g).  Acceptance splits over graph
    points because the pattern's column groups are separated by right
    multiplication with D-projections; each surviving multi-point graph is
    still cross-checked by its full-pattern intersection dimension.  The
    survivors form S', returned with an isomorphism witness onto S (atom
    permutation search, deterministic first match) or None.
    """
    rbasis = M.rbasis
    n = rbasis.atom_count
    if n > guard:
        raise SizeGuardError(n, guard, "atom count for recovery")
    for d in D.basis:
        if not M.contains(d, tol):
            raise DomainError("D is not contained in M")

    points = _accepted_points(M, tol)
    allowed = [[x for x in range(n) if (x, y) in points] for y in range(n)]
    accepted = []
    for g in _partial_injections(n, allowed):
        if g.is_zero() or len(_pattern_intersection(M, _pattern_positions(rbasis, g), tol)) == g.domain.bit_count():
            accepted.append(g)
    S_prime = FiniteInverseMonoid(n, accepted)
    perm = next((p for p, _ in relabelings(S_prime, S)), None)
    # S' relabels onto S, so it is closed iff S is, whose table the section built.
    if perm is None or S.closure_witness() is not None:
        witness = S_prime.closure_witness()
        if witness is not None:
            raise InvariantViolation(f"recovered set is not closed: {witness}")
    return S_prime, perm


@dataclass
class CartanReport:
    dim_M: int
    dim_D: int
    dim_R: int
    atom_count: int
    masa: MasaReport
    expectation: ExpectationReport
    double_commutant_ok: bool
    regularity_ok: bool
    recovered_size: int
    recovery_iso: object
    closure_flags: tuple

    @property
    def passed(self):
        return (
            self.dim_M == self.dim_R
            and self.dim_D == self.atom_count
            and self.masa.is_masa
            and self.expectation.passed
            and self.double_commutant_ok
            and self.regularity_ok
            and self.recovery_iso is not None
            and all(self.closure_flags)
        )

    def to_lines(self):
        lines = [
            f"dim_M: {self.dim_M} (expected {self.dim_R})",
            f"dim_D: {self.dim_D} (expected {self.atom_count})",
            f"span_closure: {'pass' if all(self.closure_flags) else 'FAIL'}",
            f"double_commutant: {'pass' if self.double_commutant_ok else 'FAIL'}",
            f"regularity: {'pass' if self.regularity_ok else 'FAIL'}",
        ]
        lines += self.masa.to_lines()
        lines += self.expectation.to_lines()
        lines.append(f"recovered_monoid_size: {self.recovered_size}")
        lines.append(f"recovery_isomorphism: {self.recovery_iso}")
        lines.append(f"cartan_pair: {'pass' if self.passed else 'FAIL'}")
        return lines


def cartan_report(ext: Extension, j: Section | None = None, tol: float = DEFAULT_TOL) -> CartanReport:
    """Run the whole oracle battery for one extension."""
    rs = RepSpace(ext, j, tol)
    rbasis = rs.rbasis
    lams = rs.all_lambdas()
    M = span_basis(lams, rbasis, tol)
    D = span_basis(rs.diagonal_lambdas(), rbasis, tol)

    masa = masa_check(M, D, tol)
    exp_rep = expectation_properties(rs)

    # von Neumann check: the span must equal its double commutant
    dim = len(rbasis)
    _, comm = commutant_dimension(M.basis, dim, tol)
    dc_dim, _ = commutant_dimension(comm, dim, tol)
    double_ok = dc_dim == M.dimension

    regularity = True
    for v in ext.elements:
        lam = rs.lam(v)
        for d in D.basis:
            if not D.contains(lam @ d @ lam.conj().T, tol):
                regularity = False
                break
        if not regularity:
            break

    S_prime, iso = recover_extension(M, D, ext.S, tol)

    return CartanReport(
        dim_M=M.dimension,
        dim_D=D.dimension,
        dim_R=len(rbasis),
        atom_count=rbasis.atom_count,
        masa=masa,
        expectation=exp_rep,
        double_commutant_ok=double_ok,
        regularity_ok=regularity,
        recovered_size=len(S_prime),
        recovery_iso=iso,
        closure_flags=(M.product_closed, M.adjoint_closed, M.has_identity,
                       D.product_closed, D.adjoint_closed),
    )
