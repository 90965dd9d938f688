import itertools
import random

import numpy as np
import pytest

from cartanlab.exact_library import meet
from cartanlab.extension import Extension, order_preserving_section, point_coboundary_table
from cartanlab.kernel_rep import RBasis, RepSpace, dump_matrix, lambda_matrix
from cartanlab.numeric_library import abstract_gram_check, kernel, kernel_psd_check
from cartanlab.semigroup_core import compose, dagger, partial_identity

TOL = 1e-9


def perturbed(S, k, seed):
    rng = random.Random(seed)
    pts = sorted({(x, y) for s in S for x, y in s.pairs() if x != y})
    return point_coboundary_table(S, k, {p: rng.randrange(k) for p in pts})


def test_rbasis_row_major(i2):
    rb = RBasis.from_monoid(i2)
    assert rb.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert rb.diagonal_indices() == [0, 3]


def test_kernel_examples(i2, named2):
    ext = Extension(i2, 1)
    j = order_preserving_section(ext)
    for s in i2:
        assert kernel(j, s, s) == compose(dagger(s), s)
    assert kernel(j, named2["one"], named2["swap"]).is_zero()
    assert kernel(j, named2["one"], named2["e0"]) == named2["e0"]
    # symmetry and column products (K(t,r)K(t,s) = K(t, r^s) as supports)
    for r in i2:
        for s in i2:
            assert kernel(j, r, s) == kernel(j, s, r)
            for t in i2:
                lhs = kernel(j, t, r).domain & kernel(j, t, s).domain
                assert lhs == kernel(j, t, meet(r, s)).domain


def test_kernel_reproduces_restriction(i2):
    # k_{se} = k_s j(e): supports of K(t, se) = K(t,s) & supp(e)
    ext = Extension(i2, 2)
    j = order_preserving_section(ext)
    for s in i2:
        for e in i2.idempotents():
            se = compose(s, e)
            for t in i2:
                assert kernel(j, t, se).domain == kernel(j, t, s).domain & e.domain


def test_psd_trivial_cases(i2, named2):
    ext = Extension(i2, 1)
    j = order_preserving_section(ext)
    res = kernel_psd_check(j, [named2["one"], named2["swap"]], 2)
    for r in res:
        assert r["min_eig"] >= -TOL
    res2 = kernel_psd_check(j, [named2["one"], named2["e0"]], 2)
    assert res2[0]["classes"] == [[0, 1]]  # atom 0 fixed by both
    res3 = kernel_psd_check(j, list(i2), 2)
    assert all(r["min_eig"] >= -TOL for r in res3)


def test_psd_all_subsets_rook2(i2):
    ext = Extension(i2, 1)
    j = order_preserving_section(ext)
    for r in range(1, len(i2) + 1):
        for subset in itertools.combinations(i2.elements, r):
            kernel_psd_check(j, subset, 2)


def test_lambda_identity_and_swap(i2, named2):
    ext = Extension(i2, 1)
    rs = RepSpace(ext)
    assert np.allclose(rs.lam(ext.unit), np.eye(4))
    M = rs.lam_of(named2["swap"])
    expected = np.zeros((4, 4))
    # delta_(x,y) -> delta_(swap(x), y)
    for col, (x, y) in enumerate(rs.rbasis.pairs):
        expected[rs.rbasis.index[(1 - x, y)], col] = 1.0
    assert np.allclose(M, expected)


def test_lambda_homomorphism_dagger_isometry_injective(i2):
    ext = Extension(i2, 2)
    rs = RepSpace(ext)
    G = ext.elements
    mats = {v: rs.lam(v) for v in G}
    for v in G:
        for w in G:
            assert np.abs(mats[v] @ mats[w] - mats[ext.multiply(v, w)]).max() <= 1e-12
        assert np.abs(mats[v].conj().T - mats[ext.dagger(v)]).max() <= 1e-12
        T = mats[v]
        assert np.abs(T @ T.conj().T @ T - T).max() <= TOL
    for v, w in itertools.combinations(G, 2):
        assert np.abs(mats[v] - mats[w]).max() > 0.5


def test_expectation_behavior(i2, named2):
    ext = Extension(i2, 2)
    rs = RepSpace(ext)
    eye = np.eye(4, dtype=complex)
    assert np.allclose(rs.expectation(eye), eye)
    assert np.abs(rs.expectation(rs.lam_of(named2["swap"]))).max() <= TOL
    lam_e0 = rs.lam_of(named2["e0"])
    assert np.allclose(rs.expectation(lam_e0), lam_e0)
    # E is determined by the diagonal part on represented elements
    from cartanlab.extension import delta

    for v in ext.elements:
        assert np.abs(rs.expectation(rs.lam(v)) - rs.lam(delta(ext, rs.j, v))).max() <= TOL
    # bimodularity over represented conjugation on a spanning set
    rng = np.random.default_rng(1)
    basis = [rs.lam(v) for v in ext.elements]
    for _ in range(25):
        coeffs = rng.normal(size=len(basis))
        x = sum(c * b for c, b in zip(coeffs, basis))
        for v in ext.elements[:6]:
            lam = rs.lam(v)
            lhs = rs.expectation(lam.conj().T @ x @ lam)
            rhs = lam.conj().T @ rs.expectation(x) @ lam
            assert np.abs(lhs - rhs).max() <= 1e-8


def test_abstract_gram(i2):
    for k, seed in ((1, 0), (2, 7)):
        table = perturbed(i2, k, seed) if k > 1 else None
        ext = Extension(i2, k, table)
        j = order_preserving_section(ext)
        res = abstract_gram_check(ext, j)
        assert res["rank"] == 4
        assert res["intertwining_deviation"] <= TOL


def test_reproducing_property(i2):
    """Evaluation by inner product: with columns embedded concretely, the
    inner product against an embedded column reproduces function values,
    u(s) at an atom = <embedded k_s at that atom, embedded u>."""
    ext = Extension(i2, 1)
    j = order_preserving_section(ext)
    rb = RBasis.from_monoid(i2)

    def embed(s, x):  # the transported point mass of the column at one atom
        v = np.zeros(len(rb), dtype=complex)
        if (s.domain >> x) & 1:
            v[rb.index[(s.apply(x), x)]] = 1.0
        return v

    elements = i2.elements
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = rng.normal(size=len(elements)) + 1j * rng.normal(size=len(elements))
        for x in range(2):
            u_vec = sum(ci * embed(t, x) for ci, t in zip(c, elements))
            for s in elements:
                via_inner = np.vdot(embed(s, x), u_vec)
                direct = sum(
                    ci
                    for ci, t in zip(c, elements)
                    if (kernel(j, s, t).domain >> x) & 1
                )
                assert abs(via_inner - direct) <= 1e-9


def test_dump_matrix_format(i2):
    ext = Extension(i2, 1)
    rs = RepSpace(ext)
    text = dump_matrix(rs.rbasis, 1, rs.monomial(ext.unit))
    lines = text.strip().split("\n")
    assert lines[0] == "atoms=2 k=1 dim=4"
    assert lines[1:] == ["0,0,1,0", "1,1,1,0", "2,2,1,0", "3,3,1,0"]
    # byte stability
    assert text == dump_matrix(rs.rbasis, 1, rs.monomial(ext.unit))
