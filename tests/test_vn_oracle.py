import random

import numpy as np
import pytest

from cartanlab.errors import DomainError
from cartanlab.extension import Extension, point_coboundary_table
from cartanlab.kernel_rep import RepSpace
from cartanlab.vn_oracle import (
    cartan_report,
    commutant_dimension,
    expectation_properties,
    masa_check,
    recover_extension,
    span_basis,
)

TOL = 1e-9


def perturbed(S, k, seed):
    rng = random.Random(seed)
    pts = sorted({(x, y) for s in S for x, y in s.pairs() if x != y})
    return point_coboundary_table(S, k, {p: rng.randrange(k) for p in pts})


def test_span_basis_dimensions(i2):
    ext = Extension(i2, 1)
    rs = RepSpace(ext)
    eye = [np.eye(4, dtype=complex)]
    assert span_basis(eye, rs.rbasis).dimension == 1
    M = span_basis(rs.all_lambdas(), rs.rbasis)
    assert M.dimension == 4
    assert M.product_closed and M.adjoint_closed and M.has_identity
    D = span_basis(rs.diagonal_lambdas(), rs.rbasis)
    assert D.dimension == 2


def test_masa_check_rook2(i2):
    rs = RepSpace(Extension(i2, 1))
    M = span_basis(rs.all_lambdas(), rs.rbasis)
    D = span_basis(rs.diagonal_lambdas(), rs.rbasis)
    rep = masa_check(M, D)
    assert rep.is_masa
    assert rep.dim_relative_commutant == rep.dim_subalgebra == 2
    assert rep.center_dimension == 1
    # an algebra is trivially a masa of itself when abelian
    repDD = masa_check(D, D)
    assert repDD.is_masa


def test_masa_check_requires_containment(i2):
    rs = RepSpace(Extension(i2, 1))
    M = span_basis(rs.all_lambdas(), rs.rbasis)
    D = span_basis(rs.diagonal_lambdas(), rs.rbasis)
    with pytest.raises(DomainError):
        masa_check(D, M)


def test_two_block_center(twoblock):
    rs = RepSpace(Extension(twoblock, 1))
    M = span_basis(rs.all_lambdas(), rs.rbasis)
    D = span_basis(rs.diagonal_lambdas(), rs.rbasis)
    assert M.dimension == 5  # 2^2 + 1^2
    rep = masa_check(M, D)
    assert rep.center_dimension == 2
    assert rep.is_masa and rep.dim_relative_commutant == 3


def test_double_commutant_equals_span(i2):
    rs = RepSpace(Extension(i2, 2))
    M = span_basis(rs.all_lambdas(), rs.rbasis)
    dim, comm = commutant_dimension(M.basis, 4)
    dc_dim, _ = commutant_dimension(comm, 4)
    assert dc_dim == M.dimension == 4


def test_expectation_properties_exhaustive(i2, i3):
    for S, k, seed in ((i2, 2, 1), (i3, 1, 2)):
        table = perturbed(S, k, seed) if k > 1 else None
        rep = expectation_properties(RepSpace(Extension(S, k, table)))
        assert rep.passed, rep.to_lines()


def test_recover_rook2_all_ks(i2):
    for k in (1, 2):
        for seed in (None, 4):
            table = perturbed(i2, k, seed) if seed and k > 1 else None
            rs = RepSpace(Extension(i2, k, table))
            M = span_basis(rs.all_lambdas(), rs.rbasis)
            D = span_basis(rs.diagonal_lambdas(), rs.rbasis)
            S_prime, iso = recover_extension(M, D, i2)
            assert len(S_prime) == 7
            assert iso == (0, 1)


def test_recover_two_block(twoblock):
    rs = RepSpace(Extension(twoblock, 1))
    M = span_basis(rs.all_lambdas(), rs.rbasis)
    D = span_basis(rs.diagonal_lambdas(), rs.rbasis)
    S_prime, iso = recover_extension(M, D, twoblock)
    assert len(S_prime) == len(twoblock) == 14
    assert iso is not None


def test_cartan_report_battery(i2, i3, twoblock):
    configs = [
        (i2, 1, None),
        (i2, 2, 11),
        (i3, 1, None),
        (i3, 2, 12),
        (twoblock, 1, None),
        (twoblock, 2, 13),
    ]
    for S, k, seed in configs:
        table = perturbed(S, k, seed) if seed else None
        rep = cartan_report(Extension(S, k, table))
        assert rep.passed, rep.to_lines()
        assert rep.dim_M == rep.dim_R
        assert rep.dim_D == rep.atom_count
        assert rep.recovery_iso is not None


def test_cartan_report_abelian_case():
    from cartanlab.semigroup_core import FiniteInverseMonoid, partial_identity

    S = FiniteInverseMonoid(3, [partial_identity(3, m) for m in range(8)])
    rep = cartan_report(Extension(S, 1))
    assert rep.passed
    assert rep.dim_M == rep.dim_D == 3  # M_q = D_q, trivially a Cartan pair
