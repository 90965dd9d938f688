"""The lean numeric oracle against the implementations it replaced.

The references kept here are the earlier bodies: the full-SVD nullspace,
the loop-built commutant system, the per-element point checks of theta_gn,
the sequential Hilbert-Schmidt subtraction (also behind the deviation of
verify_subdiagonal) and the msd/mtr filters over every enumerated spectral
set.
"""

import random

import numpy as np
import pytest

from cartanlab.extension import Extension, point_coboundary_table
from cartanlab.generators import eqrel_monoid, rook_monoid
from cartanlab.kernel_rep import RepSpace
from cartanlab.spectral_bimodule import (
    SPECTRAL_GUARD,
    _is_spectral_monoid,
    _subspace_intersection,
    _TraceIndex,
    enumerate_spectral_sets,
    full_submonoids,
    msd,
    mtr,
    psi,
    theta_gn,
    verify_subdiagonal,
)
from cartanlab.vn_oracle import (
    MatrixAlgebra,
    _commutant_system,
    _hs_projection,
    _nullspace_dimension,
    _pattern_intersection,
    _pattern_positions,
    _point_accepted,
    cartan_report,
    contains_matrix,
    hs_inner,
    span_basis,
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
