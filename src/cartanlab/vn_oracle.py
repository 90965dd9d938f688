"""Brute-force finite-dimensional operator-algebra verification.

Everything here treats matrices on the relation space as opaque numerical
objects: spans via classical Gram-Schmidt with re-orthogonalization in the
Hilbert-Schmidt inner product,
membership via one Hilbert-Schmidt projection onto the stacked orthonormal
basis, commutants via nullspace solves, expectations via entry compression.
Every check that a family of matrices lies in a span (the closures, D in M,
regularity) is one stacked residual, one product each way for the family.
The point is to confirm the structural theorems against plain linear
algebra rather than against the semigroup machinery that produced the
matrices.

Every nullspace comes from one SVD, thin whenever the system has at least as
many rows as columns (its right factor is then already square), so no solve
materializes the rows-by-rows left factor.  The commutant of a family is
found by successive restriction, one SVD of at most d^2 x d^2 per member;
the span of the lambdas, the expectation checks and regularity read them
in blocks of 64, so no check holds a dense lambda for every element of G.
The pattern systems of recovery and of ``spectral_bimodule.theta_gn``
(which elements of a span sit on the transport pattern of a partial
bijection) are solved together, one SVD per stack of systems of the same
shape.  ``cartan_report`` checks the Cartan pair (M, D) of one
``RepSpace``, which builds the lambdas' columns and both spans once for
every check.

A span is a ``MatrixAlgebra`` that carries the tol it was built at, and
every check on a span decides at that tol; M, D and every
``spectral_bimodule.psi`` span of a ``RepSpace`` are built at the space's.
Only ``cartan_report``, which builds its own space, and the primitives on
raw bases and systems take tol as an argument.
"""

from __future__ import annotations

from itertools import chain
from random import Random

from ._lazy import np
from ._section import delta
from ._twist import Extension
from .errors import DomainError, InvariantViolation, SizeGuardError
from .kernel_rep import DEFAULT_TOL, RBasis, RepSpace
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
    "subspace_basis",
    "contains_matrix",
    "RECOVER_GUARD",
]

RECOVER_GUARD = 40


def subspace_basis(matrices, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis (Hilbert-Schmidt) of the linear span, by classical
    Gram-Schmidt with re-orthogonalization (CGS2) in input order: each
    matrix is projected off the stacked basis so far, one product each way,
    twice, and kept, normalized, when its residual norm exceeds tol;
    deterministic.  The stack is rebuilt only when the basis grows."""
    basis: list[np.ndarray] = []
    Q = None
    for M in matrices:
        v = np.array(M, dtype=complex).ravel()
        if Q is None:
            Q = np.empty((0, v.size), dtype=complex)
        for _ in range(2):
            v -= (Q @ v.conj()).conj() @ Q
        norm = np.sqrt(abs(np.vdot(v, v)))
        if norm > tol:
            basis.append((v / norm).reshape(M.shape))
            Q = np.reshape(basis, (len(basis), -1))
    return basis


def _hs_projection(basis, M: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection of M onto the span of an
    orthonormal basis (a list of matrices, or their stack): the
    ``_hs_projections`` of the one matrix."""
    return _hs_projections(basis, M[None])[0]


def contains_matrix(basis, M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether M lies in the span: its residual off the projection has
    Hilbert-Schmidt norm at most tol (``_all_within`` of the one matrix)."""
    return _all_within(basis, M[None], tol)


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
    flattened order.  The residual overwrites the projection and the norms
    are read from its real view, so no other stack-sized array is built."""
    if not mats.size:
        return np.zeros(0)
    P = mats.reshape(-1, mats.shape[-2] * mats.shape[-1])
    R = _hs_projections(basis, P)
    R -= P
    return np.sqrt(np.einsum("ij,ij->i", R.view(float), R.view(float)))


def _all_within(basis, mats: np.ndarray, tol: float) -> bool:
    """Whether every matrix of the stack ``mats`` lies in the span of the
    orthonormal basis, its residual norm at most tol: one stacked residual
    for the whole family."""
    return bool((_residual_norms(basis, mats) <= tol).all())


class MatrixAlgebra:
    """An orthonormal basis of a span of matrices on the relation space,
    with the tol it was built at, which every check on the span reads.

    The three algebra flags are computed by ``span_basis`` only; a span
    built otherwise (``spectral_bimodule.psi``) leaves them None.
    """

    def __init__(
        self, basis: list, rbasis: RBasis, tol: float = DEFAULT_TOL,
        product_closed=None, adjoint_closed=None, has_identity=None,
    ):
        self.basis = basis
        self.rbasis = rbasis
        self.tol = tol
        self.product_closed = product_closed
        self.adjoint_closed = adjoint_closed
        self.has_identity = has_identity
        self._holds: dict = {}  # span -> whether it lies in this one

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, M: np.ndarray) -> bool:
        return contains_matrix(self.basis, M, self.tol)

    def holds(self, other: MatrixAlgebra) -> bool:
        """Whether the span ``other`` lies in this one at this span's tol:
        one stacked residual of its basis, decided once per span and kept."""
        if other not in self._holds:
            self._holds[other] = _all_within(self.basis, np.asarray(other.basis), self.tol)
        return self._holds[other]


def span_basis(matrices, rbasis: RBasis, tol: float = DEFAULT_TOL) -> MatrixAlgebra:
    """Span of the given matrices with closure verification, at tol.

    The span is computed by Gram-Schmidt, reading the matrices one at a
    time, so a generator of them is never held whole; closure of the span
    under products and adjoints (and membership of the identity) is
    verified and reported in the returned flags, not enforced.
    """
    mats = iter(matrices)
    first = next(mats, None)
    if first is None:
        raise DomainError("span_basis needs a nonempty matrix list")
    basis = subspace_basis(chain([first], mats), tol)
    has_identity, adjoint_closed, product_closed = _algebra_checks(basis, first.shape[0], tol)
    return MatrixAlgebra(basis, rbasis, tol, product_closed, adjoint_closed, has_identity)


def _algebra_checks(basis, dim: int, tol: float):
    """Lazily, in this order: whether the span of the orthonormal basis of
    dim x dim matrices holds the identity, is closed under adjoints, and is
    closed under products (the adjoints and the products of pairs of basis
    elements, each family one stacked residual)."""
    yield contains_matrix(basis, np.eye(dim, dtype=complex), tol)
    B = np.reshape(basis, (len(basis), dim, dim))
    yield _all_within(basis, B.conj().transpose(0, 2, 1), tol)
    yield _all_within(basis, B[:, None] @ B[None], tol)


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
    if not len(basis):
        return []
    _, null = _nullspace_dimension(A, tol)
    cols = np.stack([b.ravel() for b in basis], axis=1)
    shape = basis[0].shape
    return subspace_basis([(cols @ c[: len(basis)]).reshape(shape) for c in null], tol)


def relative_commutant(M: MatrixAlgebra, D: MatrixAlgebra) -> list[np.ndarray]:
    """Basis of {x in span(M) : xd = dx for all d in basis(D)}, at M's tol."""
    rows = [np.stack([(b @ d - d @ b).ravel() for b in M.basis], axis=1) for d in D.basis]
    A = np.vstack(rows) if rows else np.zeros((0, M.dimension))
    return _null_combinations(A, M.basis, M.tol)


def commutant_dimension(basis, ambient_dim: int, tol: float = DEFAULT_TOL) -> tuple[int, list[np.ndarray]]:
    """Commutant of a matrix family inside the full matrix algebra, by
    successive restriction: the orthonormal rows of N span the X (row-major)
    with X B = B X for the members B so far, and each member keeps the
    combinations c N with B X - X B = 0, one thin SVD of at most d^2 x d^2.
    An empty family leaves the full algebra."""
    d = ambient_dim
    N = np.eye(d * d, dtype=complex)
    for B in basis:
        if not len(N):
            break
        X = N.reshape(-1, d, d)
        _, null = _nullspace_dimension((B @ X - X @ B).reshape(len(N), -1).T, tol)
        N = null @ N
    return len(N), subspace_basis(N.reshape(-1, d, d), tol)


class MasaReport:
    def __init__(self, dim_algebra, dim_subalgebra, dim_relative_commutant, center_dimension, is_masa):
        self.dim_algebra = dim_algebra
        self.dim_subalgebra = dim_subalgebra
        self.dim_relative_commutant = dim_relative_commutant
        self.center_dimension = center_dimension
        self.is_masa = is_masa

    def to_lines(self):
        return [
            f"dim_relative_commutant: {self.dim_relative_commutant}",
            f"center_dimension: {self.center_dimension}",
            f"masa: {'pass' if self.is_masa else 'FAIL'}",
        ]


def masa_check(M: MatrixAlgebra, D: MatrixAlgebra) -> MasaReport:
    """D is maximal abelian in M iff its relative commutant is itself,
    decided at M's tol.  A MASA holds the unit, so an empty D is none."""
    if not M.holds(D):
        raise DomainError("D is not contained in M")
    comm = relative_commutant(M, D)
    center = relative_commutant(M, M)
    return MasaReport(
        dim_algebra=M.dimension,
        dim_subalgebra=D.dimension,
        dim_relative_commutant=len(comm),
        center_dimension=len(center),
        is_masa=D.dimension > 0 and len(comm) == D.dimension,
    )


class ExpectationReport:
    def __init__(self, matches_diagonal_part, idempotent, unital, positive, faithful, bimodular, max_deviation):
        self.matches_diagonal_part = matches_diagonal_part
        self.idempotent = idempotent
        self.unital = unital
        self.positive = positive
        self.faithful = faithful
        self.bimodular = bimodular
        self.max_deviation = max_deviation

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

    (i) it sends each represented element to its represented diagonal part,
    checked on blocks of 64 elements (the block bounds the stacks of lambdas
    and of their diagonal parts at 64 matrices each; max_deviation is the
    largest entry over every block); (ii) idempotent, unital, positive on
    sampled x*x, for samples random elements of the span whose coefficients
    are Gaussian, drawn from the standard library's ``random.Random(0)``,
    the real parts of a sample then its imaginary parts; (iii) faithful,
    via injectivity (rank) of x -> columns of x at the diagonal pairs on the
    span; (iv) bimodular over the diagonal subalgebra, checked on every pair
    of a basis element of D and one of M, in one stacked pass.
    The lambdas and the basis of their span come from the caller's
    ``RepSpace`` (its columns, section, ``tol`` and ``algebra``), so a
    report that already built them builds neither again.  On an empty M or
    D every flag is False: the expectation onto an empty span decides
    nothing.
    """
    ext = rs.ext
    tol = rs.tol
    rbasis = rs.rbasis
    dim = len(rbasis)
    E = rs.expectation

    dev = 0.0
    for start in range(0, len(ext.elements), 64):
        block = ext.elements[start : start + 64]
        diff = E(rs.stack(block))
        diff -= rs.stack([delta(ext, rs.j, v) for v in block])
        dev = max(dev, float(np.abs(diff).max()))
    matches = dev <= tol

    M = np.reshape(rs.algebra.basis, (-1, dim, dim))
    rng = Random(0)
    unital = bool(np.abs(E(np.eye(dim, dtype=complex)) - np.eye(dim)).max() <= tol)
    draws = np.reshape([rng.gauss(0.0, 1.0) for _ in range(samples * 2 * len(M))], (samples, 2, len(M)))
    X = np.tensordot(draws[:, 0] + 1j * draws[:, 1], M, axes=1)
    EX = E(X)
    idempotent = not (np.abs(E(EX) - EX) > tol).any()
    EXX = E(X.conj().transpose(0, 2, 1) @ X)
    positive = not (np.linalg.eigvalsh((EXX + EXX.conj().transpose(0, 2, 1)) / 2) < -tol).any()

    diag_cols = rbasis.diagonal_indices()
    F = M[:, :, diag_cols].reshape(len(M), dim * len(diag_cols)).T
    faithful = _nullspace_dimension(F, tol)[0] == 0

    Dl, EM = np.reshape(rs.diagonal.basis, (-1, 1, dim, dim)), E(M)
    bimodular = bool((np.abs(E(Dl @ M) - Dl @ EM) <= tol).all() and (np.abs(E(M @ Dl) - EM @ Dl) <= tol).all())

    flags = (matches, idempotent, unital, positive, faithful, bimodular)
    if not (rs.algebra.dimension and rs.diagonal.dimension):
        flags = (False,) * len(flags)
    return ExpectationReport(*flags, dev)


def _normalizes(lams, D: MatrixAlgebra) -> bool:
    """Whether lam D lam^* lies in D for every lam, at D's tol: one stacked
    residual of the basis of D conjugated by each lam.  The stack holds
    len(lams) dim(D) matrices, so ``cartan_report`` passes the lambdas in
    blocks of 64 (all of G at once would be |G| dim(D))."""
    L = np.asarray(lams)[:, None]
    stack = np.reshape(D.basis, (-1, *L.shape[2:]))
    return _all_within(D.basis, L @ stack @ L.conj().transpose(0, 1, 3, 2), D.tol)


def _pattern_positions(rbasis: RBasis, g: PartialBijection):
    """Matrix positions of the transport of g: ((g(x), y), (x, y)) over pairs."""
    pos = []
    for col, (x, y) in enumerate(rbasis.pairs):
        if (g.domain >> x) & 1:
            pos.append((rbasis.index[(g.apply(x), y)], col))
    return pos


def _pattern_indices(rbasis: RBasis, g: PartialBijection) -> list[int]:
    """The flat row-major positions of the transport pattern of g in a d x d
    matrix; built once per rbasis and g and kept in ``rbasis.patterns`` (a
    list is a fraction of the size of a small array)."""
    if g not in rbasis.patterns:
        d = len(rbasis)
        rbasis.patterns[g] = [r * d + c for r, c in _pattern_positions(rbasis, g)]
    return rbasis.patterns[g]


# Systems per SVD call in ``_pattern_solves``: at rook5 (d^2 = 625) and 25
# basis matrices a block of 64 systems is at most 16 MB.
_SOLVE_BLOCK = 64


def _pattern_solves(M: MatrixAlgebra, maps, vectors: bool = False):
    """For each partial bijection g in maps, the dimension of the elements of
    span(M) supported within the transport pattern of g: the nullity of
    the system of the orthonormal basis Q of M restricted to the positions
    outside the pattern.

    Positions where every matrix of Q vanishes give zero rows, which change
    no singular value, so each system keeps only its rows on the support
    of Q.  Systems with the same number of rows share one SVD of their
    stack, at most ``_SOLVE_BLOCK`` systems each; the rank counts the
    singular values above M's tol, and only those are computed unless
    vectors is set.  Returns (nullities, null): with vectors, null holds per map,
    when its nullity is 1, the flat element of span(M) from the null
    vector, normalized (None when its norm is not above tol, and for any
    other nullity); without, every entry is None.
    """
    b, tol = len(M.basis), M.tol
    nullity = [0] * len(maps)
    null = [None] * len(maps)
    if not b:
        return nullity, null
    Qt = np.ascontiguousarray(np.reshape(M.basis, (b, -1)).T)
    support = (Qt != 0).any(axis=1)
    systems = []
    by_rows: dict[int, list[int]] = {}
    for i, g in enumerate(maps):
        outside = support.copy()
        outside[_pattern_indices(M.rbasis, g)] = False
        systems.append(np.flatnonzero(outside))
        by_rows.setdefault(len(systems[-1]), []).append(i)
    for rows, members in by_rows.items():
        for start in range(0, len(members), _SOLVE_BLOCK):
            block = members[start : start + _SOLVE_BLOCK]
            A = Qt[np.stack([systems[i] for i in block])]
            if vectors:
                _, svals, vh = np.linalg.svd(A, full_matrices=rows < b)
            else:
                svals = np.linalg.svd(A, compute_uv=False)
            for k, rank in enumerate((svals > tol).sum(axis=1).tolist()):
                nullity[block[k]] = b - rank
                if vectors and rank == b - 1:
                    v = Qt @ vh[k, -1].conj()
                    norm = np.sqrt(abs(np.vdot(v, v)))
                    if norm > tol:
                        null[block[k]] = v / norm
    return nullity, null


def _unimodular(vals, tol: float) -> bool:
    """Whether the entries share one modulus above tol, up to 1e-6 relative."""
    mods = np.abs(vals)
    return bool(mods.min() > tol and mods.max() - mods.min() <= 1e-6 * mods.max())


def _accepted_points(M: MatrixAlgebra) -> set:
    """The relation points (x, y) whose one-point map y -> x is implemented
    by a normalizer in M, from one stacked pattern solve with null vectors
    over every point.  A point is accepted when the elements of span(M)
    supported on its pattern, a single column group, form a one-dimensional
    space spanned by a vector with constant nonzero modulus across the whole
    group (the unimodular rephasing of the 0/1 transport matrix)."""
    rbasis = M.rbasis
    maps = [singleton(rbasis.atom_count, y, x) for x, y in rbasis.pairs]
    _, null = _pattern_solves(M, maps, vectors=True)
    return {
        p
        for p, g, v in zip(rbasis.pairs, maps, null)
        if v is not None and _unimodular(v[_pattern_indices(rbasis, g)], M.tol)
    }


def recover_extension(M: MatrixAlgebra, D: MatrixAlgebra, S: FiniteInverseMonoid):
    """Recover the base monoid from the generated pair and match it to S,
    deciding at M's tol, for at most ``RECOVER_GUARD`` atoms.

    Candidates are the partial bijections of atoms whose graph points are
    all accepted; a candidate g survives iff span(M) contains an element
    supported exactly on the transport pattern of g with unimodular entries
    (a groupoid normalizer implementing g).  Acceptance splits over graph
    points because the pattern's column groups are separated by right
    multiplication with D-projections; each surviving multi-point graph is
    still cross-checked by its full-pattern intersection dimension.  The
    points are read from one stacked solve with null vectors and the
    candidates' dimensions from another of singular values only
    (``_pattern_solves``), on the pattern indices kept on M's rbasis.  The
    survivors form S', returned with an isomorphism witness onto S (atom
    permutation search, deterministic first match) or None.
    """
    n = M.rbasis.atom_count
    if n > RECOVER_GUARD:
        raise SizeGuardError(n, RECOVER_GUARD, "atom count for recovery")
    if not M.holds(D):
        raise DomainError("D is not contained in M")

    points = _accepted_points(M)
    allowed = [[x for x in range(n) if (x, y) in points] for y in range(n)]
    zero, *candidates = _partial_injections(n, allowed)
    nullity, _ = _pattern_solves(M, candidates)
    accepted = [zero] + [g for g, k in zip(candidates, nullity) if k == g.domain.bit_count()]
    S_prime = FiniteInverseMonoid(n, accepted)
    perm = next((p for p, _ in relabelings(S_prime, S)), None)
    # S' relabels onto S, so it is closed iff S is, whose table the section built.
    if perm is None or S.closure_witness() is not None:
        witness = S_prime.closure_witness()
        if witness is not None:
            raise InvariantViolation(f"recovered set is not closed: {witness}")
    return S_prime, perm


class CartanReport:
    def __init__(
        self, dim_M, dim_D, dim_R, atom_count, masa, expectation, double_commutant_ok, regularity_ok,
        recovered_size, recovery_iso, closure_flags,
    ):
        self.dim_M = dim_M
        self.dim_D = dim_D
        self.dim_R = dim_R
        self.atom_count = atom_count
        self.masa = masa
        self.expectation = expectation
        self.double_commutant_ok = double_commutant_ok
        self.regularity_ok = regularity_ok
        self.recovered_size = recovered_size
        self.recovery_iso = recovery_iso
        self.closure_flags = closure_flags

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


def cartan_report(ext: Extension, tol: float = DEFAULT_TOL) -> CartanReport:
    """Run the whole oracle battery for one extension on the Cartan pair
    (M, D) of its ``RepSpace``, on the order-preserving section."""
    rs = RepSpace(ext, tol=tol)
    rbasis = rs.rbasis
    M, D = rs.algebra, rs.diagonal

    # D outside M (a tol below rounding) is no MASA and leaves no pair to recover from
    inside = M.holds(D)
    masa = masa_check(M, D) if inside else MasaReport(M.dimension, D.dimension, None, None, False)
    exp_rep = expectation_properties(rs)

    # von Neumann check: the span must equal its double commutant
    dim = len(rbasis)
    _, comm = commutant_dimension(M.basis, dim, tol)
    dc_dim, _ = commutant_dimension(comm, dim, tol)
    double_ok = dc_dim == M.dimension

    # a check over an empty span passes vacuously, so an empty M or D fails it
    spans = M.dimension > 0 and D.dimension > 0
    regularity = spans and all(_normalizes(L, D) for L in rs.blocks(ext.elements))

    S_prime, iso = recover_extension(M, D, ext.S) if inside else ((), None)

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
        closure_flags=(spans, M.product_closed, M.adjoint_closed, M.has_identity,
                       D.product_closed, D.adjoint_closed),
    )
