"""The lean numeric oracle against the implementations it replaced.

The references kept here are the earlier bodies: the full-SVD nullspace,
the loop-built commutant system, the per-element point checks of theta_gn,
the sequential Hilbert-Schmidt subtraction (also behind the deviation of
verify_subdiagonal), the msd/mtr filters over every enumerated spectral
set, the recovery loop over combinations and permutations with its own
closure check, mtr as a filter of msd, the spelled-out subspace
intersection, the spelled-out algebra checks of the AOI correspondence,
and the pair-by-pair psi, theta and verify_subdiagonal that one stacked
residual or projection per condition replaced.
"""

import itertools
import random

import numpy as np
import pytest

from cartanlab.errors import InvariantViolation
from cartanlab.extension import Extension, point_coboundary_table
from cartanlab.generators import eqrel_monoid, product_monoid, rook_monoid
from cartanlab.kernel_rep import RepSpace
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    conjugate,
    mask_of,
    singleton,
)
from cartanlab.spectral_bimodule import (
    CLOSURE_NOTE,
    SPECTRAL_GUARD,
    AoiReport,
    Bimodule,
    SubdiagonalReport,
    _is_spectral_monoid,
    _subspace_intersection,
    _TraceIndex,
    aoi_correspondence,
    enumerate_spectral_sets,
    full_submonoids,
    msd,
    mtr,
    psi,
    theta,
    theta_gn,
    verify_members,
    verify_subdiagonal,
)
from cartanlab.vn_oracle import (
    MatrixAlgebra,
    _accepted_points,
    _commutant_system,
    _hs_projection,
    _nullspace_dimension,
    _pattern_intersection,
    _pattern_positions,
    _point_accepted,
    _residual_norms,
    cartan_report,
    contains_matrix,
    hs_inner,
    recover_extension,
    span_basis,
    subspace_basis,
)

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
    alg = MatrixAlgebra(B.basis, rbasis)

    def implemented(s):
        inter = _pattern_intersection(alg, _pattern_positions(rbasis, s), tol)
        return len(inter) == s.domain.bit_count() and all(
            _point_accepted(alg, x, y, tol) for x, y in s.pairs()
        )

    return frozenset(s for s in rs.ext.S if s.is_zero() or implemented(s))


def brute_force_filter(S, keep):
    idx = _TraceIndex(S)
    return [
        A
        for X, A in zip(idx.masks(SPECTRAL_GUARD), enumerate_spectral_sets(S))
        if keep(idx, X) and _is_spectral_monoid(idx, X, A)
    ]


def reference_recover_extension(M, D, S, tol):
    rbasis = M.rbasis
    n = rbasis.atom_count
    accepted_points = _accepted_points(M, tol)

    accepted = []
    atoms = range(n)
    for d in range(n + 1):
        for dom in itertools.combinations(atoms, d):
            for image in itertools.permutations(atoms, d):
                if any((x, y) not in accepted_points for x, y in zip(image, dom)):
                    continue
                g = PartialBijection(n, mask_of(dom), tuple(image))
                if not g.is_zero():
                    inter = _pattern_intersection(M, _pattern_positions(rbasis, g), tol)
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


def reference_intermediate_algebra_check(rs, T, tol):
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


def reference_aoi_correspondence(rs, tol):
    S = rs.ext.S
    monoids = full_submonoids(S)
    algebras = []
    for T in monoids:
        B = reference_intermediate_algebra_check(rs, T, tol)
        if theta(rs, B, tol) != T:
            raise InvariantViolation("theta does not invert psi on a full submonoid")
        algebras.append(B)

    dim = len(rs.rbasis)
    eye = np.eye(dim, dtype=complex)
    algebra_like = 0
    for A in enumerate_spectral_sets(S):
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


def reference_psi(rs, A, tol):
    mats = [rs.lam_of(s) for s in sorted(A)]
    basis = subspace_basis(mats, tol)
    d_basis = [rs.lam(p) for p in rs.ext.phased_identities]
    left = all(contains_matrix(basis, d @ b, tol) for d in d_basis for b in basis)
    right = all(contains_matrix(basis, b @ d, tol) for d in d_basis for b in basis)
    if not (left and right):
        raise InvariantViolation("span of a spectral set is not diagonal-invariant")
    return Bimodule(basis, rs.rbasis, CLOSURE_NOTE, left, right)


def reference_theta(rs, B, tol):
    members = frozenset(s for s in rs.ext.S if B.contains(rs.lam_of(s), tol))
    if theta_gn(rs, B, tol) != members:
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
        if not _is_spectral_monoid(idx, trace2, A2):
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
    M = span_basis(rs.all_lambdas(), rs.rbasis)
    dim = len(rs.rbasis)
    system = _commutant_system(M.basis, dim)
    assert system.shape == (len(M.basis) * dim * dim, dim * dim)
    assert np.array_equal(system, reference_commutant_system(M.basis, dim))


# -- the whole report --------------------------------------------------------


def test_cartan_report_rook4():
    rep = cartan_report(Extension(rook_monoid(4), 1))
    assert rep.passed, rep.to_lines()
    assert (rep.dim_M, rep.dim_D, rep.recovered_size) == (16, 4, 209)


def test_no_full_svd_of_a_tall_matrix(i3, monkeypatch):
    """A full SVD of a tall system builds its rows-by-rows left factor
    (28 MB for the rook3 commutant system); the thin one suffices."""
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
    assert (729, 81) in shapes  # the commutant system went through the guard
    assert full_tall == []


# -- Hilbert-Schmidt projection and membership ---------------------------------


def test_projection_and_membership_match_loop_reference(i3):
    rs = RepSpace(Extension(i3, 2, perturbed(i3, 2, 8)))
    rng = np.random.default_rng(1)
    sets = enumerate_spectral_sets(i3)
    lams = rs.all_lambdas()
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


def test_theta_gn_matches_per_element_reference(i2, i3):
    cases = [(i2, 2, enumerate_spectral_sets(i2)), (i3, 1, enumerate_spectral_sets(i3)[::41])]
    for S, k, sets in cases:
        rs = RepSpace(Extension(S, k, perturbed(S, k, 9) if k > 1 else None))
        for A in sets:
            B = psi(rs, A)
            got = theta_gn(rs, B, TOL)
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
    return rs, span_basis(rs.all_lambdas(), rs.rbasis), span_basis(rs.diagonal_lambdas(), rs.rbasis)


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
    S_prime, perm = recover_extension(M, D, S, TOL)
    ref_S_prime, ref_perm = reference_recover_extension(M, D, S, TOL)
    assert S_prime == ref_S_prime and len(S_prime) == len(S)
    assert perm == ref_perm is not None


def test_recovered_set_not_closed_raises_with_its_witness(i3):
    """Span of the diagonal and the transports 0 -> 1 and 1 -> 2 only: the
    recovered set lacks their daggers and their product 0 -> 2."""
    rs, _, D = _pair(i3, 1, 0)
    transports = [rs.lam_of(singleton(3, 0, 1)), rs.lam_of(singleton(3, 1, 2))]
    M = MatrixAlgebra(subspace_basis(rs.diagonal_lambdas() + transports), rs.rbasis)
    with pytest.raises(InvariantViolation) as ref:
        reference_recover_extension(M, D, i3, TOL)
    with pytest.raises(InvariantViolation) as got:
        recover_extension(M, D, i3, TOL)
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
    assert got == reference_aoi_correspondence(rs, TOL)
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
    lams = rs.all_lambdas()
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
        assert theta(rs, B) == reference_theta(rs, ref, TOL) == A


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
    reports = verify_members(rs, cases)
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
