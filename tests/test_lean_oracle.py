"""The lean numeric oracle against the implementations it replaced.

The references kept here are the earlier bodies: the full-SVD nullspace,
the loop-built commutant system, the per-element point checks of theta_gn,
the sequential Hilbert-Schmidt subtraction (also behind the deviation of
verify_subdiagonal), the msd/mtr filters over every enumerated spectral
set, the recovery loop over combinations and permutations with its own
closure check, mtr as a filter of msd, the spelled-out subspace
intersection, the spelled-out algebra checks of the AOI correspondence,
the pair-by-pair psi, theta and verify_subdiagonal that one stacked
residual or projection per condition replaced, the per-matrix closure,
regularity and phased-identity containment loops that one stacked residual
per family replaced, the coboundary path of point_coboundary_table, the
spectral command's sample of the full spectral-set list, the per-column
lambda_matrix through the element-level sigma, the commutant as one stacked
Kronecker system, the sequential expectation loops, and the per-lambda
regularity check, the one-system pattern solves per point and per element
that one stacked solve replaced, the modified Gram-Schmidt that CGS2
replaced, and the Cayley-table spectral-monoid test that the mask test on
the products of the minimal elements replaced.
"""

import itertools
import random

import numpy as np
import pytest

from cartanlab import cli, generators, kernel_rep, spectral_bimodule, vn_oracle
from cartanlab.errors import ClosureError, DomainError, InvariantViolation, SizeGuardError
from cartanlab.extension import (
    Extension,
    Section,
    delta,
    point_coboundary_table,
)
from cartanlab.generators import eqrel_monoid, product_monoid, rook_monoid
from cartanlab.kernel_rep import RBasis, RepSpace, _roots, dump_matrix, lambda_matrix
from cartanlab.numeric_library import (
    AoiReport,
    _holds_diagonal,
    aoi_correspondence,
    full_submonoids,
)
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    bits,
    conjugate,
    mask_of,
    partial_identity,
    singleton,
)
from cartanlab.spectral_bimodule import (
    SPECTRAL_GUARD,
    SubdiagonalReport,
    _TraceIndex,
    _subspace_intersection,
    enumerate_spectral_sets,
    msd,
    mtr,
    psi,
    theta,
    theta_gn,
    verify_subdiagonal,
)
from cartanlab.vn_oracle import (
    MatrixAlgebra,
    _accepted_points,
    _algebra_checks,
    _hs_projection,
    _normalizes,
    _nullspace_dimension,
    _pattern_positions,
    _residual_norms,
    cartan_report,
    contains_matrix,
    masa_check,
    recover_extension,
    span_basis,
    subspace_basis,
)

from exact_reference import coboundary_table, element_sigma, is_spectral_monoid, trivial_cocycle
from numeric_reference import _pattern_intersection, _point_accepted, hs_inner

TOL = 1e-9


def perturbed(S, k, seed):
    rng = random.Random(seed)
    pts = sorted({(x, y) for s in S for x, y in s.pairs() if x != y})
    return point_coboundary_table(S, k, {p: rng.randrange(k) for p in pts})


# -- references ------------------------------------------------------------


def reference_nullspace(A, tol):
    if A.size == 0:
        n = A.shape[1]
        return n, np.eye(n, dtype=complex)
    _, svals, vh = np.linalg.svd(A)
    rank = int(np.sum(svals > tol))
    return A.shape[1] - rank, vh[rank:].conj()


def commutant_system(basis, ambient_dim):
    """The stacked Kronecker system of X B = B X over the family, X
    row-major: the earlier commutant solved it in one thin SVD."""
    eye = np.eye(ambient_dim, dtype=complex)
    return np.vstack([np.kron(B, eye) - np.kron(eye, B.T) for B in basis])


def reference_commutant(basis, ambient_dim, tol):
    dim, null = _nullspace_dimension(commutant_system(basis, ambient_dim), tol)
    return dim, subspace_basis([c.reshape(ambient_dim, ambient_dim) for c in null], tol)


def reference_commutant_system(basis, ambient_dim):
    eye = np.eye(ambient_dim, dtype=complex)
    cols = []
    for a in range(ambient_dim):
        for b in range(ambient_dim):
            E = np.outer(eye[:, a], eye[b, :])
            cols.append(np.concatenate([(B @ E - E @ B).ravel() for B in basis]))
    return np.stack(cols, axis=1)


def reference_contains(basis, M, tol):
    v = M.astype(complex).copy()
    for b in basis:
        v -= hs_inner(b, v) * b
    return bool(np.sqrt(abs(hs_inner(v, v))) <= tol)


def reference_projection(basis, M):
    out = np.zeros_like(M)
    for b in basis:
        out += np.vdot(b, M) * b
    return out


def reference_theta_gn(rs, B, tol):
    rbasis = rs.rbasis
    alg = MatrixAlgebra(B.basis, rbasis, tol)

    def implemented(s):
        inter = _pattern_intersection(alg, _pattern_positions(rbasis, s))
        return len(inter) == s.domain.bit_count() and all(
            _point_accepted(alg, x, y) for x, y in s.pairs()
        )

    return frozenset(s for s in rs.ext.S if s.is_zero() or implemented(s))


def brute_force_filter(S, keep):
    idx = _TraceIndex(S)
    return [
        A
        for X, A in zip(idx.masks(SPECTRAL_GUARD), enumerate_spectral_sets(S))
        if keep(idx, X) and is_spectral_monoid(idx, X, A)
    ]


def reference_accepted_points(M):
    """One ``_point_accepted`` solve per relation point."""
    return {(x, y) for (x, y) in M.rbasis.pairs if _point_accepted(M, x, y)}


def reference_recover_extension(M, D, S):
    rbasis = M.rbasis
    n = rbasis.atom_count
    accepted_points = reference_accepted_points(M)

    accepted = []
    atoms = range(n)
    for d in range(n + 1):
        for dom in itertools.combinations(atoms, d):
            for image in itertools.permutations(atoms, d):
                if any((x, y) not in accepted_points for x, y in zip(image, dom)):
                    continue
                g = PartialBijection(n, mask_of(dom), tuple(image))
                if not g.is_zero():
                    inter = _pattern_intersection(M, _pattern_positions(rbasis, g))
                    if len(inter) != g.domain.bit_count():
                        continue
                accepted.append(g)

    S_prime = FiniteInverseMonoid(n, accepted)
    witness = S_prime.closure_witness()
    if witness is not None:
        raise InvariantViolation(f"recovered set is not closed: {witness}")

    target = set(S.elements)
    for perm in itertools.permutations(range(n)):
        if {conjugate(s, perm) for s in S_prime} == target:
            return S_prime, perm
    return S_prime, None


def reference_mtr(S):
    idx = _TraceIndex(S)
    out = []
    for A in msd(S):
        X = idx.trace_of(A)
        if X & idx.dagger_of(X) == idx.idempotent:
            out.append(A)
    return out


def reference_subspace_intersection(basis_a, basis_b, tol):
    if not basis_a or not basis_b:
        return []
    A = np.stack([m.ravel() for m in basis_a], axis=1)
    B = np.stack([m.ravel() for m in basis_b], axis=1)
    _, null = _nullspace_dimension(np.hstack([A, -B]), tol)
    shape = basis_a[0].shape
    out = [(A @ coeffs[: A.shape[1]]).reshape(shape) for coeffs in null]
    return subspace_basis(out, tol)


def reference_intermediate_algebra_check(rs, T):
    B = psi(rs, T)
    dim = len(rs.rbasis)
    if not B.contains(np.eye(dim, dtype=complex)):
        raise InvariantViolation("intermediate span is not unital")
    for b in B.basis:
        if not B.contains(b.conj().T):
            raise InvariantViolation("intermediate span is not self-adjoint")
    for a in B.basis:
        for b in B.basis:
            if not B.contains(a @ b):
                raise InvariantViolation("intermediate span is not product closed")
    for p in rs.ext.phased_identities:
        if not B.contains(rs.lam(p)):
            raise InvariantViolation("intermediate span does not contain the diagonal")
    return B


def reference_aoi_correspondence(rs):
    S = rs.ext.S
    monoids = full_submonoids(S)
    algebras = []
    for T in monoids:
        B = reference_intermediate_algebra_check(rs, T)
        if theta(rs, B) != T:
            raise InvariantViolation("theta does not invert psi on a full submonoid")
        algebras.append(B)

    dim = len(rs.rbasis)
    eye = np.eye(dim, dtype=complex)
    algebra_like = 0
    for A in enumerate_spectral_sets(S):
        B = psi(rs, A)
        if not B.contains(eye):
            continue
        if any(not B.contains(b.conj().T) for b in B.basis):
            continue
        if any(not B.contains(a @ b) for a in B.basis for b in B.basis):
            continue
        if any(not B.contains(rs.lam(p)) for p in rs.ext.phased_identities):
            continue
        algebra_like += 1
    bijective = algebra_like == len(monoids)
    return AoiReport(len(monoids), sorted(b.dimension for b in algebras), bijective)


def reference_psi(rs, A, tol):
    mats = [rs.lam_of(s) for s in sorted(A)]
    basis = subspace_basis(mats, tol)
    d_basis = [rs.lam(p) for p in rs.ext.phased_identities]
    left = all(contains_matrix(basis, d @ b, tol) for d in d_basis for b in basis)
    right = all(contains_matrix(basis, b @ d, tol) for d in d_basis for b in basis)
    if not (left and right):
        raise InvariantViolation("span of a spectral set is not diagonal-invariant")
    return MatrixAlgebra(basis, rs.rbasis, tol)


def reference_theta(rs, B):
    members = frozenset(s for s in rs.ext.S if B.contains(rs.lam_of(s)))
    if theta_gn(rs, B) != members:
        raise InvariantViolation("section-based and normalizer-based readings differ")
    return members


def reference_multiplicativity_defect(Q, gens, proj):
    return max(
        float(np.abs(_hs_projection(Q, X @ Y) - PX @ PY).max())
        for X, PX in zip(gens, proj)
        for Y, PY in zip(gens, proj)
    )


def reference_selfadjoint_part(rs, A, tol):
    alg = reference_psi(rs, A, tol)
    adj = [b.conj().T for b in alg.basis]
    return alg, adj, _subspace_intersection(alg.basis, adj, tol)


def reference_verify_subdiagonal(rs, A, tol):
    """Generators are the lambdas of every element, each condition is one
    projection per pair, and every member scans every mask."""
    A = frozenset(A)
    idx = _TraceIndex(rs.ext.S)
    trace = idx.trace_of(A)
    alg, adj, N = reference_selfadjoint_part(rs, A, tol)

    Q = np.asarray(N)
    dim = len(rs.rbasis)
    eye = np.eye(dim, dtype=complex)
    unital = bool(np.abs(_hs_projection(Q, eye) - eye).max() <= tol)

    gens = [rs.lam_of(s) for s in sorted(A)]
    proj = [_hs_projection(Q, X) for X in gens]
    dev = reference_multiplicativity_defect(Q, gens, proj)
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
    for trace2 in idx.masks(SPECTRAL_GUARD):
        if trace2 == trace or trace2 & trace != trace:
            continue
        A2 = idx.members(trace2)
        if not is_spectral_monoid(idx, trace2, A2):
            continue
        alg2, adj2, N2 = reference_selfadjoint_part(rs, A2, tol)
        if len(N2) != n_dim:
            continue
        if all(contains_matrix(N, m, tol) for m in N2):
            gens2 = [rs.lam_of(s) for s in A2]
            Q2 = np.asarray(N2)
            dev2 = reference_multiplicativity_defect(Q2, gens2, [_hs_projection(Q2, X) for X in gens2])
            dense2 = len(subspace_basis(alg2.basis + adj2, tol)) == M_dim
            if dev2 <= tol and dense2:
                maximal = False
    return SubdiagonalReport(alg.dimension, len(N), multiplicative, dense, unital, bimodular, maximal, dev)


# -- nullspaces ------------------------------------------------------------


def _complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _matrices():
    rng = np.random.default_rng(7)
    return {
        "tall": _complex(rng, 12, 5),
        "tall_rank_3": _complex(rng, 12, 3) @ _complex(rng, 3, 5),
        "square": _complex(rng, 6, 6),
        "square_rank_4": _complex(rng, 6, 4) @ _complex(rng, 4, 6),
        "wide": _complex(rng, 3, 7),
        "wide_rank_2": _complex(rng, 4, 2) @ _complex(rng, 2, 7),
        "real_tall_rank_2": rng.normal(size=(9, 2)) @ rng.normal(size=(2, 4)),
        "zero_tall": np.zeros((8, 3), dtype=complex),
        "no_rows": np.zeros((0, 5), dtype=complex),
        "no_columns": np.zeros((4, 0), dtype=complex),
    }


@pytest.mark.parametrize("name", sorted(_matrices()))
def test_nullspace_matches_full_svd_reference(name):
    A = _matrices()[name]
    dim, null = _nullspace_dimension(A, TOL)
    ref_dim, ref_null = reference_nullspace(A, TOL)
    assert dim == ref_dim == len(null)
    assert null.shape == ref_null.shape
    if dim == 0:
        return
    assert np.allclose(null @ null.conj().T, np.eye(dim), atol=1e-10)
    assert np.abs(A @ null.T).max(initial=0.0) <= 1e-9
    # same subspace: equal orthogonal projectors
    assert np.allclose(null.T @ null.conj(), ref_null.T @ ref_null.conj(), atol=1e-10)


def test_nullspace_ranks_of_the_named_shapes():
    dims = {name: _nullspace_dimension(A, TOL)[0] for name, A in _matrices().items()}
    assert dims == {
        "tall": 0,
        "tall_rank_3": 2,
        "square": 0,
        "square_rank_4": 2,
        "wide": 4,
        "wide_rank_2": 5,
        "real_tall_rank_2": 2,
        "zero_tall": 3,
        "no_rows": 5,
        "no_columns": 0,
    }


# -- the Kronecker commutant system ------------------------------------------


@pytest.mark.parametrize(
    "S, k",
    [
        (rook_monoid(2), 1),
        (rook_monoid(2), 2),
        (rook_monoid(3), 1),
        (eqrel_monoid([(0, 1), (2,)]), 1),
    ],
    ids=["rook2", "rook2_k2", "rook3", "eqrel_01_2"],
)
def test_kronecker_system_equals_loop_reference(S, k):
    rs = RepSpace(Extension(S, k, perturbed(S, k, 3) if k > 1 else None))
    M = span_basis(rs.stack(rs.ext.elements), rs.rbasis)
    dim = len(rs.rbasis)
    system = commutant_system(M.basis, dim)
    assert system.shape == (len(M.basis) * dim * dim, dim * dim)
    assert np.array_equal(system, reference_commutant_system(M.basis, dim))


# -- the whole report --------------------------------------------------------


def test_cartan_report_rook4():
    rep = cartan_report(Extension(rook_monoid(4), 1))
    assert rep.passed, rep.to_lines()
    assert (rep.dim_M, rep.dim_D, rep.recovered_size) == (16, 4, 209)


def test_no_full_svd_of_a_tall_matrix(i3, monkeypatch):
    """A full SVD of a tall system builds its rows-by-rows left factor
    (28 MB for the rook3 stacked Kronecker system); the thin one suffices,
    and the commutant solves are at most d^2 x d^2 (81 x 81 on rook3)."""
    real_svd = np.linalg.svd
    shapes, full_tall = [], []

    def guarded(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        rows, cols = a.shape[-2:]
        shapes.append((rows, cols))
        if compute_uv and full_matrices and rows > cols:
            full_tall.append((rows, cols))
        return real_svd(a, full_matrices, compute_uv, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", guarded)
    rep = cartan_report(Extension(i3, 3, perturbed(i3, 3, 5)))
    assert rep.passed, rep.to_lines()
    # the commutant solves went through the guard, none taller than d^2 x d^2
    assert (81, 81) in shapes
    assert [shape for shape in shapes if shape[1] == 81 and shape[0] > 81] == []
    assert full_tall == []


# -- Hilbert-Schmidt projection and membership ---------------------------------


def test_projection_and_membership_match_loop_reference(i3):
    rs = RepSpace(Extension(i3, 2, perturbed(i3, 2, 8)))
    rng = np.random.default_rng(1)
    sets = enumerate_spectral_sets(i3)
    lams = list(rs.stack(rs.ext.elements))
    for A in sets[::37]:
        B = psi(rs, A)
        probes = [lams[i] for i in rng.choice(len(lams), 12, replace=False)]
        coeffs = rng.normal(size=len(B.basis))
        probes.append(sum((c * b for c, b in zip(coeffs, B.basis)), np.zeros_like(lams[0])))
        for M in probes:
            P = _hs_projection(B.basis, M)
            assert np.allclose(P, reference_projection(B.basis, M), atol=1e-12)
            assert contains_matrix(B.basis, M, TOL) == reference_contains(B.basis, M, TOL)
    empty = _hs_projection([], lams[0])
    assert empty.shape == lams[0].shape and not empty.any()
    assert not contains_matrix([], lams[-1], TOL)


# -- theta_gn with one point-acceptance pass -------------------------------------


def _spectral_sample(S):
    """The sets the spectral command round-trips: every set when there are
    at most 64, else those of 64 masks drawn with seed 0, in increasing order."""
    idx = _TraceIndex(S)
    count = idx.full + 1
    if count <= 64:
        return enumerate_spectral_sets(S)
    return [idx.members(X) for X in sorted(random.Random(0).sample(range(count), 64))]


def test_theta_gn_matches_per_element_reference(i2, i3):
    cases = [
        (i2, 2, enumerate_spectral_sets(i2)),
        (i3, 1, enumerate_spectral_sets(i3)[::41]),
        (i3, 2, _spectral_sample(i3)),
    ]
    for S, k, sets in cases:
        rs = RepSpace(Extension(S, k, perturbed(S, k, 9) if k > 1 else None))
        for A in sets:
            B = psi(rs, A)
            got = theta_gn(rs, B)
            assert got == reference_theta_gn(rs, B, TOL)
            assert got == A


# -- msd / mtr / full submonoids from the masks ----------------------------------


@pytest.mark.parametrize(
    "S",
    [rook_monoid(3), eqrel_monoid([(0, 1), (2, 3)])],
    ids=["rook3", "eqrel_01_23"],
)
def test_mask_filters_match_brute_force(S):
    msd_ref = brute_force_filter(S, lambda idx, X: X | idx.dagger_of(X) == idx.full)
    full_ref = brute_force_filter(S, lambda idx, X: idx.dagger_of(X) == X)
    idx = _TraceIndex(S)
    mtr_ref = [
        A
        for A in msd_ref
        if (X := idx.trace_of(A)) & idx.dagger_of(X) == idx.idempotent
    ]
    assert msd(S) == msd_ref
    assert mtr(S) == mtr_ref
    assert full_submonoids(S) == full_ref
    assert msd_ref and mtr_ref and full_ref


MONOID_TEST_CASES = {
    "rook1": rook_monoid(1),
    "rook2": rook_monoid(2),
    "rook3": rook_monoid(3),
    "eqrel_01_23": eqrel_monoid([(0, 1), (2, 3)]),
    "eqrel_012_3_4": eqrel_monoid([(0, 1, 2), (3,), (4,)]),
    "product_rook2_rook2": product_monoid(rook_monoid(2), rook_monoid(2)),
    "idempotents_on_three": FiniteInverseMonoid(3, [partial_identity(3, m) for m in range(8)]),
    "swap_on_three": FiniteInverseMonoid(3, [PartialBijection(3, 0b111, (1, 0, 2))]),
}


@pytest.mark.parametrize("name", sorted(MONOID_TEST_CASES))
def test_mask_monoid_test_matches_cayley_reference(name):
    """Over every mask, the products of the minimals decide what the Cayley
    table decides; in a closed S each product is 0 or minimal."""
    S = MONOID_TEST_CASES[name]
    if name == "swap_on_three":  # no one-point map of 0 <-> 1: no index
        with pytest.raises(DomainError, match="relation pair has no one-point map in S"):
            _TraceIndex(S)
        return
    idx = _TraceIndex(S)
    got = [idx.is_monoid(X) for X in idx.masks(SPECTRAL_GUARD)]
    assert got == [is_spectral_monoid(idx, X, idx.members(X)) for X in idx.masks(SPECTRAL_GUARD)]
    assert any(got) and not all(got)
    assert all(product.bit_count() == 1 for _, product in idx.products)


def test_rook4_monoid_masks_match_cayley_reference():
    idx = _TraceIndex(rook_monoid(4))
    ref = [
        X
        for X in idx.masks(SPECTRAL_GUARD)
        if X & idx.idempotent == idx.idempotent and is_spectral_monoid(idx, X, idx.members(X))
    ]
    assert len(ref) == 355
    assert idx.monoid_masks(SPECTRAL_GUARD) == ref


def _avoiding_0_2():
    """The partial injections on 3 atoms whose graphs avoid 0 <-> 2."""
    points = {(x, y) for x in range(3) for y in range(3)} - {(0, 2), (2, 0)}
    maps = [
        PartialBijection(3, dom, image)
        for dom in range(8)
        for image in itertools.permutations(range(3), dom.bit_count())
        if points.issuperset(zip(image, bits(dom)))
    ]
    return FiniteInverseMonoid(3, maps)


def test_set_that_is_not_closed_keeps_its_errors(tmp_path, capsys):
    """Join- and dagger-closed but not closed: 1 -> 0 after 2 -> 1 is 2 -> 0.
    The spectral sets are still listed; the monoid searches raise with the
    Cayley table's witness, and the command line stops at the section."""
    S = _avoiding_0_2()
    witness = (singleton(3, 1, 0), singleton(3, 2, 1), singleton(3, 2, 0))
    assert len(S) == 22 and S.added == [] and S.closure_witness() == witness
    assert repr(witness) == "(<1>0 on 3>, <2>1 on 3>, <2>0 on 3>)"
    assert len(enumerate_spectral_sets(S)) == 128
    for search in (full_submonoids, msd, mtr):
        with pytest.raises(ClosureError) as exc:
            search(S)
        assert exc.value.witness == witness
    path = tmp_path / "not_closed.json"
    path.write_text(generators.emit(generators._document_of(S, 1, {})))
    assert cli.main(["msd", str(path)]) == 2


def test_subdiagonal_deviation_matches_loop_reference(i3):
    """verify_subdiagonal projects each generator once onto the stacked
    self-adjoint part; its deviation equals the per-pair loop's."""
    rs = RepSpace(Extension(i3, 2, perturbed(i3, 2, 6)))
    for A in mtr(i3):
        rep = verify_subdiagonal(rs, A)
        assert rep.passed, rep.to_lines()
        alg = psi(rs, A)
        N = _subspace_intersection(alg.basis, [b.conj().T for b in alg.basis], TOL)
        gens = [rs.lam_of(s) for s in sorted(A, key=lambda s: (s.domain, s.image))]
        dev = max(
            float(np.abs(reference_projection(N, X @ Y) - reference_projection(N, X) @ reference_projection(N, Y)).max())
            for X in gens
            for Y in gens
        )
        assert rep.max_deviation == pytest.approx(dev, abs=1e-12)


# -- recovery through the generator and the relabeling search --------------------


def _pair(S, k, seed):
    rs = RepSpace(Extension(S, k, perturbed(S, k, seed) if k > 1 else None))
    return rs, span_basis(rs.stack(rs.ext.elements), rs.rbasis), span_basis(rs.stack(rs.ext.phased_identities), rs.rbasis)


@pytest.mark.parametrize(
    "S, k",
    [
        (rook_monoid(2), 1),
        (rook_monoid(3), 1),
        (rook_monoid(3), 3),
        (eqrel_monoid([(0, 1), (2, 3)]), 1),
        (eqrel_monoid([(0, 1, 2), (3,), (4,)]), 1),
        (product_monoid(rook_monoid(2), rook_monoid(2)), 1),
    ],
    ids=["rook2", "rook3", "rook3_k3", "eqrel_01_23", "eqrel_012_3_4", "product_rook2_rook2"],
)
def test_recover_extension_matches_reference(S, k):
    _, M, D = _pair(S, k, 4)
    S_prime, perm = recover_extension(M, D, S)
    ref_S_prime, ref_perm = reference_recover_extension(M, D, S)
    assert S_prime == ref_S_prime and len(S_prime) == len(S)
    assert perm == ref_perm is not None


def test_recovered_set_not_closed_raises_with_its_witness(i3):
    """Span of the diagonal and the transports 0 -> 1 and 1 -> 2 only: the
    recovered set lacks their daggers and their product 0 -> 2."""
    rs, _, D = _pair(i3, 1, 0)
    transports = [rs.lam_of(singleton(3, 0, 1)), rs.lam_of(singleton(3, 1, 2))]
    M = MatrixAlgebra(subspace_basis(list(rs.stack(rs.ext.phased_identities)) + transports), rs.rbasis)
    with pytest.raises(InvariantViolation) as ref:
        reference_recover_extension(M, D, i3)
    with pytest.raises(InvariantViolation) as got:
        recover_extension(M, D, i3)
    assert str(got.value) == str(ref.value)
    assert "recovered set is not closed" in str(got.value)


# -- mtr on masks, the subspace intersection and the AOI correspondence --------


@pytest.mark.parametrize(
    "S",
    [rook_monoid(3), eqrel_monoid([(0, 1), (2, 3)]), eqrel_monoid([(0, 1, 2), (3,), (4,)])],
    ids=["rook3", "eqrel_01_23", "eqrel_012_3_4"],
)
def test_mtr_matches_msd_filter_reference(S):
    got = mtr(S)
    assert got == reference_mtr(S)
    assert got


def test_subspace_intersection_matches_reference(i3):
    rs = RepSpace(Extension(i3, 2, perturbed(i3, 2, 6)))
    for A in mtr(i3):
        basis = psi(rs, A).basis
        adj = [b.conj().T for b in basis]
        got = _subspace_intersection(basis, adj, TOL)
        ref = reference_subspace_intersection(basis, adj, TOL)
        assert len(got) == len(ref) == 3
        P, P_ref = (np.asarray(N).reshape(len(N), -1) for N in (got, ref))
        assert np.allclose(P.T @ P.conj(), P_ref.T @ P_ref.conj(), atol=1e-10)


@pytest.mark.parametrize(
    "S, k",
    [(rook_monoid(2), 2), (eqrel_monoid([(0, 1), (2,)]), 1)],
    ids=["rook2_k2", "eqrel_01_2"],
)
def test_aoi_correspondence_matches_reference(S, k):
    rs = RepSpace(Extension(S, k, perturbed(S, k, 2) if k > 1 else None))
    got = aoi_correspondence(rs)
    assert got == reference_aoi_correspondence(rs)
    assert got.bijective


# -- stacked residuals in psi, theta and verify_subdiagonal ----------------------

# (monoid, k, step through the spectral sets, step through the spectral
# monoids for the pair-by-pair verify_subdiagonal reference)
STACKED_CASES = [
    (rook_monoid(2), 2, 1, 1),
    (rook_monoid(3), 1, 37, 1),
    (rook_monoid(3), 3, 37, 2),
    (eqrel_monoid([(0, 1), (2, 3)]), 1, 17, 1),
    (eqrel_monoid([(0, 1, 2), (3,), (4,)]), 1, 97, 4),
]
STACKED_IDS = ["rook2_k2", "rook3", "rook3_k3", "eqrel_01_23", "eqrel_012_3_4"]


def _space(S, k):
    return RepSpace(Extension(S, k, perturbed(S, k, 3) if k > 1 else None))


def test_stacked_residuals_match_contains_matrix_loop(i3):
    rs = _space(i3, 2)
    basis = psi(rs, enumerate_spectral_sets(i3)[100]).basis
    lams = list(rs.stack(rs.ext.elements))
    # a unit matrix orthogonal to the span, then probes at tol(1 -+ 1e-3) off it
    off = next(M for M in lams if not contains_matrix(basis, M, TOL))
    off = off - _hs_projection(basis, off)
    off /= np.linalg.norm(off)
    probes = lams[::5] + [basis[0] + TOL * (1 + 1e-3) * off, basis[0] + TOL * (1 - 1e-3) * off]
    norms = _residual_norms(basis, np.asarray(probes))
    loop = [contains_matrix(basis, M, TOL) for M in probes]
    assert list(norms <= TOL) == loop
    assert loop[-2:] == [False, True]
    refs = [np.linalg.norm(M - reference_projection(basis, M)) for M in probes]
    assert np.allclose(norms, refs, atol=1e-12)
    assert list(_residual_norms([], np.asarray(probes[:3]))) == [np.linalg.norm(M) for M in probes[:3]]
    assert _residual_norms(basis, np.zeros((0, 9, 9))).shape == (0,)


@pytest.mark.parametrize("S, k, step, _", STACKED_CASES, ids=STACKED_IDS)
def test_stacked_psi_and_theta_match_pair_references(S, k, step, _):
    rs = _space(S, k)
    for A in enumerate_spectral_sets(S)[::step]:
        B, ref = psi(rs, A), reference_psi(rs, A, TOL)
        assert len(B.basis) == len(ref.basis)
        assert all(np.array_equal(b, r) for b, r in zip(B.basis, ref.basis))
        assert theta(rs, B) == reference_theta(rs, ref) == A


@pytest.mark.parametrize("S, k, _, ref_step", STACKED_CASES, ids=STACKED_IDS)
def test_stacked_subdiagonal_verdicts_match_pair_reference(S, k, _, ref_step):
    """Every spectral monoid holding the idempotents: exactly the msd
    members pass, the others fail density and maximality.  Every ref_step-th
    one is checked against the reference, members and others among them."""
    rs = _space(S, k)
    cases = brute_force_filter(S, lambda idx, X: True)
    idx = _TraceIndex(S)
    assert idx.monoid_masks(SPECTRAL_GUARD) == [idx.trace_of(A) for A in cases]
    verdicts = lambda rep: (
        rep.dim_algebra,
        rep.dim_selfadjoint_part,
        rep.multiplicative,
        rep.dense,
        rep.expectation_unital,
        rep.expectation_bimodular,
        rep.maximal,
    )
    reports = [verify_subdiagonal(rs, A) for A in cases]
    for A, got in list(zip(cases, reports))[::ref_step]:
        ref = reference_verify_subdiagonal(rs, A, TOL)
        assert verdicts(got) == verdicts(ref)
        assert got.max_deviation <= TOL and ref.max_deviation <= TOL
    members = msd(S)
    assert [A for A, rep in zip(cases, reports) if rep.passed] == members
    assert len(members) < len(cases)


def test_non_invariant_span_still_raises(i2, named2):
    """The span of the swap alone is not invariant: e0 swap is the
    one-point map 1 -> 0."""
    rs = _space(i2, 2)
    for build in (psi, lambda rs, A: reference_psi(rs, A, TOL)):
        with pytest.raises(InvariantViolation, match="not diagonal-invariant"):
            build(rs, frozenset([named2["swap"]]))


# -- the Cartan pair of a RepSpace; one stacked residual per family ---------------


def reference_algebra_checks(basis, dim, tol):
    yield contains_matrix(basis, np.eye(dim, dtype=complex), tol)
    yield all(contains_matrix(basis, a.conj().T, tol) for a in basis)
    yield all(contains_matrix(basis, a @ b, tol) for a in basis for b in basis)


def reference_regularity(lams, D):
    for lam in lams:
        for d in D.basis:
            if not D.contains(lam @ d @ lam.conj().T):
                return False
    return True


def reference_holds_diagonal(rs, B):
    return all(B.contains(rs.lam(p)) for p in rs.ext.phased_identities)


def reference_masa_containment(M, D):
    for d in D.basis:
        if not M.contains(d):
            raise DomainError("D is not contained in M")


def _flags(basis, dim):
    got = tuple(_algebra_checks(basis, dim, TOL))
    assert got == tuple(reference_algebra_checks(basis, dim, TOL))
    return got


@pytest.mark.parametrize("S, k, step, _", STACKED_CASES, ids=STACKED_IDS)
def test_family_checks_match_per_matrix_references(S, k, step, _):
    """The Cartan pair of the space passes every check, and the verdicts on
    psi of every step-th spectral set and of every full submonoid (the
    intermediate algebras) agree with the per-matrix loops."""
    rs = _space(S, k)
    M, D = rs.algebra, rs.diagonal
    dim = len(rs.rbasis)
    assert rs.algebra is M and rs.diagonal is D and (M.dimension, D.dimension) == (dim, S.atom_count)
    assert _flags(M.basis, dim) == _flags(D.basis, dim) == (True, True, True)
    assert _normalizes(list(rs.stack(rs.ext.elements)), D) and reference_regularity(list(rs.stack(rs.ext.elements)), D)
    assert masa_check(M, D).is_masa
    seen = set()
    for A in enumerate_spectral_sets(S)[::step] + full_submonoids(S):
        B = psi(rs, A)
        flags = _flags(B.basis, dim)
        holds = _holds_diagonal(rs, B)
        assert holds == reference_holds_diagonal(rs, B)
        seen.add(flags + (holds,))
    assert (True, True, True, True) in seen and len(seen) > 1


def test_family_checks_fail_on_spans_built_to_fail_each(i3):
    """rook3, k = 1 (real lambdas): each span fails the flag it names, and
    the stacked and per-matrix forms agree on all of them."""
    rs = _space(i3, 1)
    lam = lambda a, b: rs.lam_of(singleton(3, a, b))  # the one-point map a -> b
    eye = np.eye(len(rs.rbasis), dtype=complex)
    hermitian = lam(0, 1) + lam(1, 0)
    spans = {
        "identity": [lam(0, 1)],
        "adjoint": [eye, lam(0, 1)],
        "product": [eye, hermitian],
        "diagonal": [eye],
    }
    expected = {
        "identity": (False, False, True, False),
        "adjoint": (True, False, True, False),
        "product": (True, True, False, False),
        "diagonal": (True, True, True, False),
    }
    for name, mats in spans.items():
        B = MatrixAlgebra(subspace_basis(mats), rs.rbasis)
        holds = _holds_diagonal(rs, B)
        assert holds == reference_holds_diagonal(rs, B)
        assert _flags(B.basis, len(rs.rbasis)) + (holds,) == expected[name], name
    assert _flags([], len(rs.rbasis)) == (False, True, True)

    D = rs.diagonal
    one_atom = MatrixAlgebra(subspace_basis([rs.lam_of(PartialBijection(3, 0b001, (0,)))]), rs.rbasis)
    # a unitary that is not monomial: it does not normalize the diagonal
    mixing = (rs.lam_of(PartialBijection(3, 0b111, (0, 1, 2))) + rs.lam_of(PartialBijection(3, 0b111, (1, 0, 2)))) / np.sqrt(2)
    for lams, alg in ((list(rs.stack(rs.ext.elements)), one_atom), (list(rs.stack(rs.ext.elements)) + [mixing], D)):
        assert not _normalizes(lams, alg)
        assert not reference_regularity(lams, alg)

    not_M = MatrixAlgebra(subspace_basis(spans["product"]), rs.rbasis)
    for check in (masa_check, reference_masa_containment):
        with pytest.raises(DomainError, match="D is not contained in M"):
            check(not_M, D)
    with pytest.raises(DomainError, match="D is not contained in M"):
        recover_extension(not_M, D, i3)


@pytest.mark.parametrize(
    "S, k",
    [(rook_monoid(3), 1), (rook_monoid(3), 3), (eqrel_monoid([(0, 1, 2), (3,), (4,)]), 1)],
    ids=["rook3", "rook3_k3", "eqrel_012_3_4"],
)
def test_cartan_report_spans_every_lambda_once(S, k, monkeypatch):
    """One Gram-Schmidt of the whole lambda list per report (M of its
    RepSpace, which the expectation checks share) and one-matrix membership
    only for the identity of M and of D."""
    ext = Extension(S, k, perturbed(S, k, 5) if k > 1 else None)
    sizes, members = [], []
    real_basis, real_contains = vn_oracle.subspace_basis, vn_oracle.contains_matrix

    def counting_basis(matrices, tol=TOL):
        matrices = list(matrices)
        sizes.append(len(matrices))
        return real_basis(matrices, tol)

    def counting_contains(basis, M, tol=TOL):
        members.append(M.shape)
        return real_contains(basis, M, tol)

    monkeypatch.setattr(vn_oracle, "subspace_basis", counting_basis)
    monkeypatch.setattr(vn_oracle, "contains_matrix", counting_contains)
    rep = cartan_report(ext)
    assert rep.passed, rep.to_lines()
    assert sizes.count(len(ext.elements)) == 1
    assert len(members) == 2


@pytest.mark.parametrize(
    "S",
    [rook_monoid(2), rook_monoid(3), eqrel_monoid([(0, 1), (2, 3)])],
    ids=["rook2", "rook3", "eqrel_01_23"],
)
@pytest.mark.parametrize("k", [2, 3])
def test_point_coboundary_table_matches_coboundary_path(S, k):
    rng = random.Random(k)
    b_points = {(x, y): rng.randrange(k) for s in S for x, y in s.pairs() if x != y}
    b = {s: tuple(b_points.get((s.apply(y), y), 0) for y in bits(s.domain)) for s in S}
    ref = coboundary_table(S, k, trivial_cocycle(S, k), b)
    got = point_coboundary_table(S, k, b_points)
    assert list(got.entries.items()) == list(ref.entries.items())
    assert any(any(arr) for arr in got.entries.values())


@pytest.mark.parametrize("name", ["rook2", "rook3", "eqrel_01_23"])
def test_spectral_command_samples_the_enumerated_sets(name, tmp_path, monkeypatch, capsys):
    """The command counts the masks and round-trips every set when there are
    at most 64, in enumeration order, and otherwise the sets of 64 distinct
    masks drawn with seed 0, in increasing order: sets the full list holds."""
    S = {"rook2": rook_monoid(2), "rook3": rook_monoid(3), "eqrel_01_23": eqrel_monoid([(0, 1), (2, 3)])}[name]
    path = tmp_path / "doc.json"
    path.write_text(generators.emit(generators._document_of(S, 1, {})))
    sets = enumerate_spectral_sets(S)
    ref = _spectral_sample(S)
    assert len(ref) == min(len(sets), 64) and len(set(ref)) == len(ref) and set(ref) <= set(sets)
    sampled = []
    real_psi = spectral_bimodule.psi
    monkeypatch.setattr(spectral_bimodule, "psi", lambda rs, A: sampled.append(A) or real_psi(rs, A))
    assert cli.main(["spectral", str(path)]) == 0
    assert sampled == ref
    out = capsys.readouterr().out
    assert f"spectral_sets: {len(sets)}" in out and f"round_trip_checked: {len(ref)}" in out


# -- lambda matrices on element ids --------------------------------------------


def reference_lambda_matrix(ext, j, v, rbasis):
    """The per-column construction through the element-level sigma."""
    dim = len(rbasis)
    out = np.zeros((dim, dim), dtype=complex)
    omega = np.exp(2j * np.pi / ext.k)
    for col, (x, y) in enumerate(rbasis.pairs):
        if not (v.bij.domain >> x) & 1:
            continue
        s_xy = singleton(rbasis.atom_count, y, x)
        if s_xy not in ext.S:
            raise DomainError("relation pair has no one-point map in S")
        out[rbasis.index[(v.bij.apply(x), y)], col] = omega ** element_sigma(ext, j, v, s_xy).phase_at(y)
    return out


LADDER = {
    "rook2_k2": (rook_monoid(2), 2),
    "rook3_k3": (rook_monoid(3), 3),
    "eqrel_01_23_k2": (eqrel_monoid([(0, 1), (2, 3)]), 2),
    "eqrel_012_3_4": (eqrel_monoid([(0, 1, 2), (3,), (4,)]), 1),
    "product_rook2_rook2": (product_monoid(rook_monoid(2), rook_monoid(2)), 1),
}


def ladder_space(name):
    S, k = LADDER[name]
    return RepSpace(Extension(S, k, perturbed(S, k, 5) if k > 1 else None))


@pytest.mark.parametrize("name", sorted(LADDER))
def test_lambda_matrices_match_object_level_reference(name):
    rs = ladder_space(name)
    for v in rs.ext.elements:
        assert np.array_equal(rs.lam(v), reference_lambda_matrix(rs.ext, rs.j, v, rs.rbasis)), v
    # a section given as a bare dict builds its dense rows on first use
    j2 = Section(dict(rs.j.values))
    v = rs.ext.elements[-1]
    assert np.array_equal(lambda_matrix(rs.ext, j2, v, rs.rbasis), rs.lam(v))


def test_blocked_lambdas_match_object_level_reference_on_twisted_rook4():
    """Every lambda of twisted rook4 with k = 2, read from the stacks of 64
    that the span and the checks read, equals the object-level matrix."""
    S = rook_monoid(4)
    rs = RepSpace(Extension(S, 2, perturbed(S, 2, 5)))
    lams = [lam for block in rs.blocks(rs.ext.elements) for lam in block]
    assert len(lams) == len(rs.ext.elements)
    for v, lam in zip(rs.ext.elements, lams):
        assert np.array_equal(lam, reference_lambda_matrix(rs.ext, rs.j, v, rs.rbasis)), v


def test_lambda_matrix_keeps_its_errors(i2, monkeypatch):
    ext = Extension(i2, 2)
    rs = RepSpace(ext)
    v = next(v for v in ext.elements if v.bij.domain == 0b11 and not v.is_phased_identity())
    # a lift over the wrong map is not a section
    ident = next(s for s in i2 if s.domain == 0b11 and s.is_idempotent())
    with pytest.raises(DomainError, match="not a section at"):
        lambda_matrix(ext, Section(dict(rs.j.values) | {ident: v}), v, rs.rbasis)
    # sigma must be a phased identity: a dagger that forgets to invert breaks it
    one = (i2.index[i2.one], [0, 0])
    monkeypatch.setattr(ext, "_dagger", lambda i, a: one)
    with pytest.raises(InvariantViolation, match=r"^sigma\(.* is not a phased identity$"):
        lambda_matrix(ext, rs.j, v, rs.rbasis)
    monkeypatch.undo()
    points = FiniteInverseMonoid(2, [s for s in i2 if s.domain.bit_count() != 1])
    ext_no_points = Extension(points, 1)
    j0 = Section({s: PhasedElement(s, (0,) * s.domain.bit_count()) for s in points})
    with pytest.raises(DomainError, match="relation pair has no one-point map in S"):
        lambda_matrix(ext_no_points, j0, ext_no_points.elements[-1], RBasis.from_monoid(i2))


def _first_error(build, elements, exc):
    """The message of the first element whose build raises exc."""
    for v in elements:
        try:
            build(v)
        except exc as err:
            return str(err)
    return None


def test_space_raises_the_errors_of_lambda_matrix(i2, monkeypatch):
    """The columns a RepSpace builds once per element of S raise what
    lambda_matrix raises on the first element of G that fails."""
    ext = Extension(i2, 2)
    rs = RepSpace(ext)
    one_col = lambda j: lambda v: lambda_matrix(ext, j, v, rs.rbasis)
    # a section with a lift over the wrong map
    ident = next(s for s in i2 if s.domain == 0b11 and s.is_idempotent())
    swap = next(v for v in ext.elements if v.bij.domain == 0b11 and not v.is_phased_identity())
    broken = Section(dict(rs.j.values) | {ident: swap})
    with pytest.raises(DomainError, match="not a section at") as got:
        RepSpace(ext, broken).stack(ext.elements)
    assert str(got.value) == _first_error(one_col(broken), ext.elements, DomainError)
    # sigma must be a phased identity: a dagger that forgets to invert breaks it
    monkeypatch.setattr(ext, "_dagger", lambda i, a: (i2.index[i2.one], [0, 0]))
    with pytest.raises(InvariantViolation, match=r"^sigma\(.* is not a phased identity$") as got:
        RepSpace(ext, rs.j).stack(ext.elements)
    assert str(got.value) == _first_error(one_col(rs.j), ext.elements, InvariantViolation)
    monkeypatch.undo()
    # a monoid without its one-point maps
    points = FiniteInverseMonoid(2, [s for s in i2 if s.domain.bit_count() != 1])
    ext0 = Extension(points, 1)
    j0 = Section({s: PhasedElement(s, (0,) * s.domain.bit_count()) for s in points})
    rs0 = RepSpace(ext0, j0)
    with pytest.raises(DomainError, match="relation pair has no one-point map in S") as got:
        rs0.stack(ext0.elements)
    first = _first_error(lambda v: lambda_matrix(ext0, j0, v, rs0.rbasis), ext0.elements, DomainError)
    assert str(got.value) == first


def test_space_builds_columns_once_per_element_of_S(monkeypatch):
    """Every lambda the oracle reads comes from one column pass per element
    of S, never from lambda_matrix."""
    S, k = LADDER["rook3_k3"]
    rs = ladder_space("rook3_k3")
    passes = []
    real = kernel_rep._lambda_columns
    monkeypatch.setattr(kernel_rep, "_lambda_columns", lambda *a: passes.append(a[3]) or real(*a))
    monkeypatch.setattr(kernel_rep, "lambda_matrix", None)
    rs.stack(rs.ext.elements), rs.stack(rs.ext.phased_identities), rs.section_stack, rs.algebra, rs.diagonal
    assert sorted(passes) == list(range(len(S)))


def test_section_stack_is_read_only(i2):
    rs = RepSpace(Extension(i2, 2))
    L = rs.section_stack
    assert rs.section_stack is L and L.shape == (len(i2), 4, 4)
    for s in i2:
        assert np.array_equal(L[i2.index[s]], rs.lam_of(s))
    with pytest.raises(ValueError):
        L[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        L += 1
    assert np.array_equal(L[i2.index[i2.one]], np.eye(4))


def test_roots_match_numpy_bitwise():
    for k in range(1, 101):
        assert np.asarray(_roots(k)).tobytes() == (np.exp(2j * np.pi / k) ** np.arange(k)).tobytes(), k


def reference_dump(rbasis, k, T):
    """The dense scan: one line per nonzero entry of T in row-major order."""
    lines = [f"atoms={rbasis.atom_count} k={k} dim={len(rbasis)}"]
    dim = len(rbasis)
    for i in range(dim):
        for jcol in range(dim):
            z = T[i, jcol]
            if z != 0:
                lines.append(f"{i},{jcol},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(LADDER) + ["rook3_k5", "rook3_k7"])
def test_dump_matrix_matches_dense_scan(name):
    """The dump of each monomial lambda equals the dense scan of its matrix
    built through the object-level sigma with numpy's roots."""
    if name in LADDER:
        rs = ladder_space(name)
    else:
        S, k = rook_monoid(3), int(name[-1])
        rs = RepSpace(Extension(S, k, perturbed(S, k, 5)))
    for v in rs.ext.elements:
        dense = reference_lambda_matrix(rs.ext, rs.j, v, rs.rbasis)
        assert dump_matrix(rs.rbasis, rs.ext.k, rs.monomial(v)) == reference_dump(rs.rbasis, rs.ext.k, dense), v


# -- commutant by successive restriction ---------------------------------------


def projector(basis):
    V = np.stack([b.ravel() for b in basis], axis=1)
    return V @ V.conj().T


@pytest.mark.parametrize("name", ["rook2_k2", "rook3_k3", "eqrel_01_23_k2", "eqrel_012_3_4"])
def test_commutant_matches_stacked_system(name):
    rs = ladder_space(name)
    d = len(rs.rbasis)
    M = rs.algebra.basis
    rng = np.random.default_rng(2)
    families = {
        "M": M,
        "M_prime": vn_oracle.commutant_dimension(M, d, TOL)[1],
        "two_random": [_complex(rng, d, d) for _ in range(2)],
        "one_lambda": [rs.lam(rs.ext.elements[len(rs.ext.elements) // 2])],
    }
    for fam_name, family in families.items():
        dim, basis = vn_oracle.commutant_dimension(family, d, TOL)
        ref_dim, ref_basis = reference_commutant(family, d, TOL)
        assert dim == ref_dim == len(basis), fam_name
        assert np.allclose(projector(basis), projector(ref_basis), atol=1e-9), fam_name


def test_commutant_of_no_matrices_is_everything():
    dim, basis = vn_oracle.commutant_dimension([], 3, TOL)
    assert dim == len(basis) == 9
    assert np.allclose(projector(basis), np.eye(9))


# -- one stacked expectation pass ----------------------------------------------


def reference_expectation_properties(rs, samples=100):
    """The sequential sample loop and pair loops of the earlier body."""
    ext, tol, rbasis = rs.ext, rs.tol, rs.rbasis
    dev = 0.0
    for v in ext.elements:
        dev = max(dev, float(np.abs(rs.expectation(rs.lam(v)) - rs.lam(delta(ext, rs.j, v))).max()))
    M_basis = rs.algebra.basis
    dim = len(rbasis)
    rng = np.random.default_rng(0)
    idempotent = positive = True
    unital = bool(np.abs(rs.expectation(np.eye(dim, dtype=complex)) - np.eye(dim)).max() <= tol)
    for _ in range(samples):
        coeffs = rng.normal(size=len(M_basis)) + 1j * rng.normal(size=len(M_basis))
        x = sum(c * b for c, b in zip(coeffs, M_basis))
        Ex = rs.expectation(x)
        if np.abs(rs.expectation(Ex) - Ex).max() > tol:
            idempotent = False
        Exx = rs.expectation(x.conj().T @ x)
        if np.linalg.eigvalsh((Exx + Exx.conj().T) / 2).min() < -tol:
            positive = False
    diag_cols = rbasis.diagonal_indices()
    F = np.stack([b[:, diag_cols].ravel() for b in M_basis], axis=1)
    faithful = _nullspace_dimension(F, tol)[0] == 0
    bimodular = all(
        np.abs(rs.expectation(d @ b) - d @ rs.expectation(b)).max() <= tol
        and np.abs(rs.expectation(b @ d) - rs.expectation(b) @ d).max() <= tol
        for d in rs.diagonal.basis[:8]
        for b in M_basis[:12]
    )
    return vn_oracle.ExpectationReport(dev <= tol, idempotent, unital, positive, faithful, bimodular, dev)


def _expectation_flags(rep):
    return (rep.matches_diagonal_part, rep.idempotent, rep.unital, rep.positive, rep.faithful, rep.bimodular)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_expectation_flags_match_sequential_reference(name):
    rs = ladder_space(name)
    got, ref = vn_oracle.expectation_properties(rs), reference_expectation_properties(rs)
    assert _expectation_flags(got) == _expectation_flags(ref) and got.passed
    assert got.max_deviation == ref.max_deviation


def test_expectation_flags_match_reference_where_they_fail(i3):
    """A span that is not M (some lambdas left out, a non-diagonal
    'diagonal', or both) fails some flags; the verdicts still agree."""
    rs = RepSpace(Extension(i3, 1))
    lams = list(rs.stack(rs.ext.elements))
    half = span_basis(lams[: len(lams) // 2], rs.rbasis)
    shifted = span_basis([lams[-1], lams[1]], rs.rbasis)
    seen = set()
    for algebra, diagonal in [(half, rs.diagonal), (rs.algebra, shifted), (half, shifted)]:
        rs.__dict__.update(algebra=algebra, diagonal=diagonal)
        got, ref = vn_oracle.expectation_properties(rs, 20), reference_expectation_properties(rs, 20)
        assert _expectation_flags(got) == _expectation_flags(ref)
        seen.add(_expectation_flags(got))
    assert any(not all(flags) for flags in seen)


def test_expectation_deviation_is_the_largest_over_every_block(monkeypatch):
    """The diagonal-part check runs in blocks of 64 elements.  Twisted rook3
    with k = 3 has |G| = 352, six blocks; a wrong diagonal part in the second
    block, off by |1 - omega| = sqrt(3), outweighs one in the last block,
    off by 1, and the report agrees with the reference on both."""
    rs = ladder_space("rook3_k3")
    ext, G = rs.ext, rs.ext.elements
    nonzero = [i for i, v in enumerate(G) if not delta(ext, rs.j, v).is_zero()]
    early = next(i for i in nonzero if i >= 64)
    late = nonzero[-1]
    assert len(G) == 352 and early < 128 and late >= 320

    def wrong_delta(ext, j, v, delta=delta):
        d = delta(ext, j, v)
        if v == G[early]:
            return PhasedElement(d.bij, ((d.phases[0] + 1) % 3, *d.phases[1:]))
        return ext.zero if v == G[late] else d

    monkeypatch.setattr(vn_oracle, "delta", wrong_delta)
    monkeypatch.setitem(globals(), "delta", wrong_delta)
    got, ref = vn_oracle.expectation_properties(rs), reference_expectation_properties(rs)
    assert _expectation_flags(got) == _expectation_flags(ref) and not got.matches_diagonal_part
    assert got.max_deviation == ref.max_deviation == pytest.approx(3**0.5)


def test_sample_draws_match_sequential_draws():
    rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
    stacked = rng_a.normal(size=(100, 2, 11))
    sequential = [(rng_b.normal(size=11), rng_b.normal(size=11)) for _ in range(100)]
    assert np.array_equal(stacked, np.asarray(sequential))


def reference_normalizes(lams, D, tol):
    return all(all(contains_matrix(D.basis, lam @ d @ lam.conj().T, tol) for d in D.basis) for lam in lams)


def test_regularity_matches_pair_reference(i3):
    rs = RepSpace(Extension(i3, 3, perturbed(i3, 3, 2)))
    lams = list(rs.stack(rs.ext.elements))
    D_bad = span_basis([lams[-1], lams[0]], rs.rbasis)
    for D in (rs.diagonal, D_bad):
        assert _normalizes(lams, D) == reference_normalizes(lams, D, TOL)
    assert _normalizes(lams, rs.diagonal) and not _normalizes(lams, D_bad)


# -- spectral sampling by drawn masks -----------------------------------------


@pytest.mark.parametrize(
    "S",
    [rook_monoid(3), eqrel_monoid([(0, 1), (2, 3)]), rook_monoid(4)],
    ids=["rook3", "eqrel_01_23", "rook4"],
)
def test_drawn_sample_holds_the_sets_of_the_drawn_masks(S):
    """Every integer below 2^|minimals| is a mask of the enumeration, so a
    drawn integer is itself a mask: the sample is A(X) for each drawn X, and
    A(X) holds exactly the minimals in X."""
    idx = _TraceIndex(S)
    count = idx.full + 1
    assert sorted(idx.masks(SPECTRAL_GUARD)) == list(range(count))
    drawn = sorted(random.Random(0).sample(range(count), 64))
    assert [idx.trace_of(A) for A in _spectral_sample(S)] == drawn
    with pytest.raises(SizeGuardError):
        list(idx.masks(len(idx.minimals) - 1))


# -- stacked pattern solves and CGS2 ---------------------------------------------


def reference_subspace_basis(matrices, tol=TOL):
    """Modified Gram-Schmidt, two passes of one hs_inner per basis matrix."""
    basis = []
    for M in matrices:
        v = M.astype(complex).copy()
        for _ in range(2):
            for b in basis:
                v -= hs_inner(b, v) * b
        norm = np.sqrt(abs(hs_inner(v, v)))
        if norm > tol:
            basis.append(v / norm)
    return basis


def _near_dependent(rng, d, count=12):
    """Random matrices, each later one either a combination of earlier ones
    plus a perturbation (1e-4, kept, or 1e-13, dropped) or a fresh draw."""
    mats = [_complex(rng, d, d) for _ in range(3)]
    while len(mats) < count:
        kind = rng.integers(3)
        if kind == 2:
            mats.append(_complex(rng, d, d))
            continue
        coeffs = rng.normal(size=len(mats)) + 1j * rng.normal(size=len(mats))
        eps = 1e-4 if kind else 1e-13
        mats.append(np.tensordot(coeffs, mats, axes=1) + eps * _complex(rng, d, d))
    return mats


def _cgs2_families():
    rng = np.random.default_rng(12)
    spaces = {name: ladder_space(name) for name in sorted(LADDER)}
    spaces["rook3_k2"] = RepSpace(Extension(rook_monoid(3), 2, perturbed(rook_monoid(3), 2, 1)))
    families = {name: list(rs.stack(rs.ext.elements)) for name, rs in spaces.items()}
    for seed in range(4):
        families[f"near_dependent_{seed}"] = _near_dependent(rng, 3 + seed)
    families["zeros_and_repeats"] = [np.zeros((3, 3)), np.eye(3), np.eye(3), 2 * np.eye(3)]
    return families


def test_cgs2_matches_modified_gram_schmidt():
    for name, mats in _cgs2_families().items():
        got, ref = subspace_basis(mats, TOL), reference_subspace_basis(mats, TOL)
        assert len(got) == len(ref), name
        assert np.abs(projector(got) - projector(ref)).max() <= 1e-10, name
        Q = np.reshape(got, (len(got), -1))
        assert np.allclose(Q.conj() @ Q.T, np.eye(len(got)), atol=1e-12), name
    assert subspace_basis([]) == [] and subspace_basis(iter([np.zeros((2, 2))])) == []


def test_cgs2_keeps_the_input_order_and_is_deterministic():
    rng = np.random.default_rng(3)
    mats = _near_dependent(rng, 4, 20)
    first, again = subspace_basis(mats), subspace_basis(list(mats))
    assert all(np.array_equal(a, b) for a, b in zip(first, again)) and len(first) == len(again)
    # the first basis matrix is the first nonzero input, normalized
    assert np.allclose(first[0], mats[0] / np.linalg.norm(mats[0]), atol=1e-15)


def _pattern_cases():
    """(name, algebra) pairs: M and D of ladder spaces, bimodules of spectral
    sets, and a span built to accept only some points."""
    out = []
    for name in ("rook2_k2", "rook3_k3", "eqrel_01_23_k2", "eqrel_012_3_4"):
        rs = ladder_space(name)
        out += [(f"{name}_M", rs.algebra), (f"{name}_D", rs.diagonal)]
        for A in enumerate_spectral_sets(rs.ext.S, SPECTRAL_GUARD)[3::97][:4]:
            out.append((f"{name}_psi", psi(rs, A)))
    rs = ladder_space("rook3_k3")
    transports = [rs.lam_of(singleton(3, 0, 1)), rs.lam_of(singleton(3, 1, 2))]
    out.append(("rook3_partial", MatrixAlgebra(subspace_basis(list(rs.stack(rs.ext.phased_identities)) + transports), rs.rbasis)))
    out.append(("rook3_empty", MatrixAlgebra([], rs.rbasis)))
    return out


@pytest.mark.parametrize("block", [vn_oracle._SOLVE_BLOCK, 3])
def test_pattern_solves_match_one_system_forms(block, monkeypatch):
    monkeypatch.setattr(vn_oracle, "_SOLVE_BLOCK", block)
    for name, M in _pattern_cases():
        maps = [g for g in _partial_injections_of(M.rbasis) if not g.is_zero()]
        nullity, null = vn_oracle._pattern_solves(M, maps)
        assert null == [None] * len(maps)
        ref = [len(_pattern_intersection(M, _pattern_positions(M.rbasis, g))) for g in maps]
        assert list(nullity) == ref, name
        assert _accepted_points(M) == reference_accepted_points(M), name


def _partial_injections_of(rbasis):
    """Every partial injection whose graph lies in the relation."""
    n = rbasis.atom_count
    allowed = [[x for x in range(n) if (x, y) in rbasis.index] for y in range(n)]
    return list(vn_oracle._partial_injections(n, allowed))


def test_point_null_vectors_are_the_one_system_intersections():
    rs = ladder_space("rook3_k3")
    M = rs.algebra
    n = rs.rbasis.atom_count
    maps = [singleton(n, y, x) for x, y in rs.rbasis.pairs]
    nullity, null = vn_oracle._pattern_solves(M, maps, vectors=True)
    assert list(nullity) == [1] * len(maps)
    for g, v in zip(maps, null):
        (ref,) = _pattern_intersection(M, _pattern_positions(rs.rbasis, g))
        # equal up to a unimodular factor
        phase = np.vdot(ref.ravel(), v)
        assert abs(abs(phase) - 1) < 1e-12 and np.allclose(v, phase * ref.ravel(), atol=1e-12)


def test_pattern_indices_are_built_once_per_rbasis(i3):
    rs = RepSpace(Extension(i3, 1))
    B = psi(rs, i3.elements)
    theta_gn(rs, B)
    built = dict(rs.rbasis.patterns)
    assert len(built) == len(i3) - 1  # every nonzero element; the points are its one-point maps
    theta_gn(rs, B)
    recover_extension(rs.algebra, rs.diagonal, i3)
    assert all(rs.rbasis.patterns[g] is built[g] for g in built)
    for g, inside in built.items():
        d = len(rs.rbasis)
        assert sorted(inside) == sorted(r * d + c for r, c in _pattern_positions(rs.rbasis, g))
