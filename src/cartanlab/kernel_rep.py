"""The projection-valued kernel, its positivity certificate, and the concrete
matrix representation on the function space of the atom relation.

The kernel K(t,s) = j(s^dag t ^ 1) takes idempotent values and is handled
exactly (bitmasks).  Floats enter only here and downstream: matrices are
complex double, phases become exact roots of unity, and every numeric rank
or eigenvalue decision uses the module-wide default tolerance 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ._lazy import np
from .boolean_monoid import groupoid_relation
from .errors import DomainError, InvariantViolation
from .extension import Extension, Section, delta, sigma
from .semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    bits,
    compose,
    dagger,
    identity_map,
    meet,
    singleton,
)

__all__ = [
    "DEFAULT_TOL",
    "RBasis",
    "RepSpace",
    "kernel",
    "kernel_matrix",
    "kernel_psd_check",
    "lambda_matrix",
    "projection_P_and_V",
    "expectation",
    "abstract_gram_check",
    "dump_matrix",
    "phased_identity_diagonal",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class RBasis:
    """Canonically ordered basis of the relation: pairs (x, y), row-major."""

    atom_count: int
    pairs: tuple
    index: dict = field(compare=False, hash=False, default=None)

    @staticmethod
    def from_monoid(S: FiniteInverseMonoid) -> "RBasis":
        rel = groupoid_relation(S)
        pairs = tuple(sorted(rel.pairs))
        return RBasis(S.atom_count, pairs, {p: i for i, p in enumerate(pairs)})

    def __len__(self):
        return len(self.pairs)

    def diagonal_indices(self):
        return [self.index[(x, x)] for x in range(self.atom_count) if (x, x) in self.index]


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


def kernel_matrix(j: Section, S: FiniteInverseMonoid) -> dict:
    """The full idempotent-valued kernel, keyed by element pairs.

    Symmetry and the diagonal identity K(s,s) = s^dag s are checked.
    """
    out = {}
    for t in S:
        for s in S:
            out[(t, s)] = kernel(j, t, s)
    for t in S:
        for s in S:
            if out[(t, s)] != out[(s, t)]:
                raise InvariantViolation(f"kernel not symmetric at ({t}, {s})")
        if out[(t, t)] != compose(dagger(t), t):
            raise InvariantViolation(f"kernel diagonal wrong at {t}")
    return out


def _omega(k: int) -> complex:
    return np.exp(2j * np.pi / k)


def lambda_matrix(ext: Extension, j: Section, v: PhasedElement, rbasis: RBasis | None = None) -> np.ndarray:
    """The matrix of v on the relation's function space.

    Column (x, y) maps to (q(v)(x), y) with phase sigma(v, y->x) evaluated
    at y, and to zero when x is outside dom(q(v)).  Needs the one-point maps
    of the relation to be elements of S (downward closure).
    """
    if rbasis is None:
        rbasis = RBasis.from_monoid(ext.S)
    dim = len(rbasis)
    out = np.zeros((dim, dim), dtype=complex)
    omega = _omega(ext.k)
    qv = v.bij
    for col, (x, y) in enumerate(rbasis.pairs):
        if not (qv.domain >> x) & 1:
            continue
        s_xy = singleton(rbasis.atom_count, y, x)
        if s_xy not in ext.S:
            raise DomainError("relation pair has no one-point map in S")
        phase = sigma(ext, j, v, s_xy).phase_at(y)
        row = rbasis.index[(qv.apply(x), y)]
        out[row, col] = omega**phase
    return out


def projection_P_and_V(ext: Extension, j: Section, rbasis: RBasis | None = None, tol: float = DEFAULT_TOL):
    """The diagonal compression data: (P, V).

    P projects onto the span of the diagonal pairs; V isometrically includes
    the atom space along those pairs.  Verifies V*V = 1, VV* = P, and the
    compression identity P lam(v) P = lam(Delta(v)) P for every v.
    """
    if rbasis is None:
        rbasis = RBasis.from_monoid(ext.S)
    dim = len(rbasis)
    diag = rbasis.diagonal_indices()
    P = np.zeros((dim, dim), dtype=complex)
    for i in diag:
        P[i, i] = 1.0
    V = np.zeros((dim, rbasis.atom_count), dtype=complex)
    for x in range(rbasis.atom_count):
        V[rbasis.index[(x, x)], x] = 1.0
    if not np.allclose(V.conj().T @ V, np.eye(rbasis.atom_count), atol=tol):
        raise InvariantViolation("V is not an isometry")
    if not np.allclose(V @ V.conj().T, P, atol=tol):
        raise InvariantViolation("VV* != P")
    for v in ext.elements:
        lam = lambda_matrix(ext, j, v, rbasis)
        lhs = P @ lam @ P
        rhs = lambda_matrix(ext, j, delta(ext, j, v), rbasis) @ P
        if not np.allclose(lhs, rhs, atol=tol):
            raise InvariantViolation(f"P lam(v) P != lam(Delta(v)) P at {v}")
    return P, V


def phased_identity_diagonal(p: PhasedElement, k: int, atom_count: int) -> np.ndarray:
    """A member of P as a complex vector over atoms (zero off its support)."""
    if not p.is_phased_identity():
        raise DomainError("not a phased partial identity")
    omega = _omega(k)
    d = np.zeros(atom_count, dtype=complex)
    for y in bits(p.bij.domain):
        d[y] = omega ** p.phase_at(y)
    return d


def expectation(rbasis: RBasis, T: np.ndarray) -> np.ndarray:
    """Conditional expectation onto the diagonal subalgebra.

    Compress by V (read the diagonal-pair entries g(x) = T[(x,x),(x,x)]),
    then re-embed as the block-diagonal element acting by g(x) on every pair
    (x, y).  Unital, idempotent, positive; fixes the diagonal subalgebra.
    """
    dim = len(rbasis)
    out = np.zeros((dim, dim), dtype=complex)
    g = {}
    for x in range(rbasis.atom_count):
        i = rbasis.index[(x, x)]
        g[x] = T[i, i]
    for idx, (x, _y) in enumerate(rbasis.pairs):
        out[idx, idx] = g[x]
    return out


class RepSpace:
    """Cached representation context for one extension and section."""

    def __init__(self, ext: Extension, j: Section | None = None, tol: float = DEFAULT_TOL):
        from .extension import order_preserving_section

        self.ext = ext
        self.j = j if j is not None else order_preserving_section(ext)
        self.rbasis = RBasis.from_monoid(ext.S)
        self.tol = tol
        self._lam_cache: dict[PhasedElement, np.ndarray] = {}

    def lam(self, v: PhasedElement) -> np.ndarray:
        if v not in self._lam_cache:
            self._lam_cache[v] = lambda_matrix(self.ext, self.j, v, self.rbasis)
        return self._lam_cache[v]

    def lam_of(self, s: PartialBijection) -> np.ndarray:
        return self.lam(self.j[s])

    def all_lambdas(self):
        return [self.lam(v) for v in self.ext.elements]

    def diagonal_lambdas(self):
        return [self.lam(v) for v in self.ext.phased_identities]

    @cached_property
    def diagonal_basis(self) -> list:
        """Orthonormal basis of the diagonal (the span of the phased
        identities' lambdas), built once at the space's tol."""
        from .vn_oracle import subspace_basis

        return subspace_basis(self.diagonal_lambdas(), self.tol)

    @cached_property
    def algebra_dimension(self) -> int:
        """Dimension of the span of every lambda, built once at the
        space's tol."""
        from .vn_oracle import subspace_basis

        return len(subspace_basis(self.all_lambdas(), self.tol))

    def projection_and_isometry(self):
        return projection_P_and_V(self.ext, self.j, self.rbasis, self.tol)

    def expectation(self, T: np.ndarray) -> np.ndarray:
        return expectation(self.rbasis, T)


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
    rbasis = RBasis.from_monoid(S)
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

    omega = _omega(ext.k)
    col_index = {c: i for i, c in enumerate(cols)}
    max_dev = 0.0
    for v in ext.elements:
        lam = lambda_matrix(ext, j, v, rbasis)
        for a, (s, y) in enumerate(cols):
            lhs = lam @ U[:, a]
            sig = sigma(ext, j, v, s)
            rhs = np.zeros(len(rbasis), dtype=complex)
            if (sig.bij.domain >> y) & 1:
                b = col_index[(compose(v.bij, s), y)]
                rhs = (omega ** sig.phase_at(y)) * U[:, b]
            max_dev = max(max_dev, float(np.abs(lhs - rhs).max()))
    if max_dev > tol:
        raise InvariantViolation(f"intertwining deviation {max_dev}")
    return {"rank": rank, "dim_R": len(rbasis), "intertwining_deviation": max_dev}


def dump_matrix(rbasis: RBasis, k: int, T: np.ndarray) -> str:
    """Serialize one matrix: header, then one 'row,col,re,im' line per
    nonzero entry, rows/columns given as relation-pair indices."""
    lines = [f"atoms={rbasis.atom_count} k={k} dim={len(rbasis)}"]
    dim = len(rbasis)
    for i in range(dim):
        for jcol in range(dim):
            z = T[i, jcol]
            if z != 0:
                lines.append(f"{i},{jcol},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"
