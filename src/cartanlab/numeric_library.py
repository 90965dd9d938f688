"""The numeric half's library: the functions of the package that no command
runs, kept public for callers that import the package.

- The projection-valued kernel K(t,s) = j(s^dag t ^ 1), which takes
  idempotent values and is handled exactly (bitmasks), its positivity
  certificate ``kernel_psd_check``, and ``abstract_gram_check``, the
  module picture behind the matrix picture of ``kernel_rep``.
- The join span of two spectral sets and the full Cartan inverse
  submonoids, read from ``spectral_bimodule``'s trace index, and the Aoi
  correspondence between those submonoids and the intermediate algebras
  of the Cartan pair (``aoi_correspondence``,
  ``intermediate_algebra_check``).  The intermediate-algebra check and the
  correspondence test D's basis for containment in one stacked residual.

The public path is the package (``from cartanlab import kernel``).  ``cli``
registers this module in ``sys.modules`` unexecuted; no command executes it.
"""

from __future__ import annotations

from ._lazy import np
from ._section import Section
from ._twist import Extension
from .errors import SPECTRAL_GUARD, InvariantViolation
from .exact_library import meet, sigma
from .kernel_rep import DEFAULT_TOL, RepSpace, _roots
from .semigroup_core import FiniteInverseMonoid, PartialBijection, compose, dagger, identity_map
from .spectral_bimodule import CLOSURE_NOTE, _trace_index, enumerate_spectral_sets, psi, theta
from .vn_oracle import MatrixAlgebra, _algebra_checks, _all_within

__all__ = [
    "AoiReport",
    "abstract_gram_check",
    "aoi_correspondence",
    "full_submonoids",
    "intermediate_algebra_check",
    "join_span",
    "kernel",
    "kernel_psd_check",
]


def kernel(j: Section, t: PartialBijection, s: PartialBijection) -> PartialBijection:
    """K(t,s): the idempotent part of j(s^dag t ^ 1).

    Equals the source idempotent of j(s ^ t), which is checked.
    """
    fix = meet(compose(dagger(s), t), identity_map(s.n))
    lifted = j[fix]
    m = j[meet(s, t)]
    source = compose(dagger(m.bij), m.bij)
    if lifted.bij != source:
        raise InvariantViolation("kernel disagrees with the source idempotent of j(s^t)")
    return lifted.bij


def kernel_psd_check(j: Section, s_list, atom_count: int | None = None, tol: float = DEFAULT_TOL):
    """Positivity certificate for the kernel on a finite element list.

    Per atom character rho, T(rho)[i, j] = rho(K(s_j, s_i)) must decompose
    as a sum of rank-one blocks over the classes of the agreement relation
    R_rho, which is checked together with symmetry/transitivity of R_rho on
    its support and a nonnegative minimum eigenvalue.  Any failure raises
    InvariantViolation: positivity is a theorem, not an input property.
    """
    s_list = list(s_list)
    if atom_count is None:
        atom_count = next(iter(j.values.values())).bij.n
    n = len(s_list)
    results = []
    for atom in range(atom_count):
        T = np.zeros((n, n))
        for a in range(n):
            for b in range(n):
                K_ab = kernel(j, s_list[b], s_list[a])  # rho(K(s_b, s_a)) at `atom`
                T[a, b] = 1.0 if (K_ab.domain >> atom) & 1 else 0.0
        rel = {(a, b) for a in range(n) for b in range(n) if T[a, b] == 1.0}
        for a, b in rel:
            if (b, a) not in rel:
                raise InvariantViolation(f"R_rho not symmetric at atom {atom}: {(a, b)}")
        for a, b in rel:
            for b2, c in rel:
                if b2 == b and (a, c) not in rel:
                    raise InvariantViolation(f"R_rho not transitive at atom {atom}")
        support = sorted({a for a, _ in rel})
        classes = []
        seen = set()
        for a in support:
            if a in seen:
                continue
            cls = sorted(b for b in support if (a, b) in rel)
            classes.append(cls)
            seen.update(cls)
        rebuilt = np.zeros_like(T)
        for cls in classes:
            zeta = np.zeros(n)
            zeta[cls] = 1.0
            rebuilt += np.outer(zeta, zeta)
        if not np.array_equal(rebuilt, T):
            raise InvariantViolation(f"rank-one class decomposition failed at atom {atom}")
        min_eig = float(np.linalg.eigvalsh(T).min()) if n else 0.0
        if min_eig < -tol:
            raise InvariantViolation(f"kernel matrix not PSD at atom {atom}: {min_eig}")
        results.append({"atom": atom, "classes": classes, "min_eig": min_eig})
    return results


def abstract_gram_check(ext: Extension, j: Section, tol: float = DEFAULT_TOL):
    """Consistency oracle for the module picture behind the matrix picture.

    Builds the scalar Gram matrix of the |S| x |X| vectors (column s tensor
    atom basis vector) with entries delta_xy [x in K(s,t)], the transport U
    sending column (s, y) to the point mass at (s(y), y), and checks:
    U preserves inner products, the Gram rank equals |R|, and U intertwines
    the abstract action lam(v): k_s -> k_{q(v)s} sigma(v,s) with the
    concrete matrices.  Returns a dict of the measured quantities.
    """
    S = ext.S
    rs = RepSpace(ext, j, tol)
    rbasis = rs.rbasis
    n = S.atom_count
    cols = [(s, y) for s in S.elements for y in range(n)]
    m = len(cols)

    gram = np.zeros((m, m))
    for a, (s, x) in enumerate(cols):
        for b, (t, y) in enumerate(cols):
            if x != y:
                continue
            K_st = kernel(j, s, t)
            gram[a, b] = 1.0 if (K_st.domain >> x) & 1 else 0.0

    U = np.zeros((len(rbasis), m))
    for a, (s, y) in enumerate(cols):
        if (s.domain >> y) & 1:
            U[rbasis.index[(s.apply(y), y)], a] = 1.0

    if not np.allclose(U.T @ U, gram, atol=tol):
        raise InvariantViolation("transport does not preserve the Gram structure")
    rank = int(np.linalg.matrix_rank(gram, tol=tol))
    if rank != len(rbasis):
        raise InvariantViolation(f"Gram rank {rank} != |R| = {len(rbasis)}")

    roots = _roots(ext.k)
    col_index = {c: i for i, c in enumerate(cols)}
    max_dev = 0.0
    for v in ext.elements:
        lam = rs.lam(v)
        for a, (s, y) in enumerate(cols):
            lhs = lam @ U[:, a]
            sig = sigma(ext, j, v, s)
            rhs = np.zeros(len(rbasis), dtype=complex)
            if (sig.bij.domain >> y) & 1:
                b = col_index[(compose(v.bij, s), y)]
                rhs = roots[sig.phase_at(y)] * U[:, b]
            max_dev = max(max_dev, float(np.abs(lhs - rhs).max()))
    if max_dev > tol:
        raise InvariantViolation(f"intertwining deviation {max_dev}")
    return {"rank": rank, "dim_R": len(rbasis), "intertwining_deviation": max_dev}


def join_span(S: FiniteInverseMonoid, A1, A2) -> frozenset:
    """Smallest spectral set containing both operands: A(X1 | X2)."""
    idx = _trace_index(S)
    return idx.members(idx.trace_of(A1) | idx.trace_of(A2))


def full_submonoids(S: FiniteInverseMonoid, guard: int = SPECTRAL_GUARD) -> list[frozenset]:
    """Spectral sets that are dagger-closed submonoids containing all
    idempotents (full Cartan inverse submonoids): X^dag is X."""
    idx = _trace_index(S)
    return [idx.members(X) for X in idx.monoid_masks(guard) if idx.dagger_of(X) == X]


class AoiReport:
    closure_note = CLOSURE_NOTE

    def __init__(self, submonoid_count: int, algebra_dims: list, bijective: bool):
        self.submonoid_count = submonoid_count
        self.algebra_dims = algebra_dims
        self.bijective = bijective

    def __eq__(self, other):
        return isinstance(other, AoiReport) and vars(self) == vars(other)

    def to_lines(self):
        return [
            f"full_submonoids: {self.submonoid_count}",
            f"intermediate_algebra_dims: {self.algebra_dims}",
            f"bijective: {'pass' if self.bijective else 'FAIL'}",
            f"note: {self.closure_note}",
        ]


def intermediate_algebra_check(rs: RepSpace, T) -> MatrixAlgebra:
    """Check that the span of one full submonoid is an intermediate algebra:
    unital, self-adjoint, product closed, containing the diagonal."""
    B = psi(rs, T)
    checks = _algebra_checks(B.basis, len(rs.rbasis), rs.tol)
    for ok, what in zip(checks, ("unital", "self-adjoint", "product closed")):
        if not ok:
            raise InvariantViolation(f"intermediate span is not {what}")
    if not _holds_diagonal(rs, B):
        raise InvariantViolation("intermediate span does not contain the diagonal")
    return B


def _holds_diagonal(rs: RepSpace, B: MatrixAlgebra) -> bool:
    """Whether B contains the diagonal: one stacked residual of the
    orthonormal basis of D, which spans every phased identity's lambda."""
    return _all_within(B.basis, np.asarray(rs.diagonal.basis), rs.tol)


def aoi_correspondence(rs: RepSpace, guard: int = SPECTRAL_GUARD) -> AoiReport:
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
        B = intermediate_algebra_check(rs, T)
        if theta(rs, B) != T:
            raise InvariantViolation("theta does not invert psi on a full submonoid")
        algebras.append(B)

    algebra_like = 0
    for A in enumerate_spectral_sets(S, guard):
        B = psi(rs, A)
        if all(_algebra_checks(B.basis, len(rs.rbasis), rs.tol)) and _holds_diagonal(rs, B):
            algebra_like += 1
    bijective = algebra_like == len(monoids)
    return AoiReport(len(monoids), sorted(b.dimension for b in algebras), bijective)
