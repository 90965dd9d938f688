import itertools
import math
import random

import numpy as np
import pytest

from cartanlab.errors import DomainError
from cartanlab.extension import Extension
from cartanlab.generators import eqrel_monoid, rook_monoid
from cartanlab.kernel_rep import RepSpace
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    are_orthogonal,
    dagger,
    orthogonal_join,
    partial_identity,
    singleton,
)
from cartanlab.spectral_bimodule import (
    SubdiagonalReport,
    _subspace_intersection,
    aoi_correspondence,
    enumerate_spectral_sets,
    full_submonoids,
    is_spectral_set,
    join_span,
    msd,
    mtr,
    psi,
    spectral_closure,
    theta,
    verify_subdiagonal,
)
from cartanlab.vn_oracle import contains_matrix, subspace_basis

TOL = 1e-9


def test_spectral_closure_swap(i2, named2):
    cl = spectral_closure(i2, [named2["swap"]])
    assert cl == frozenset(
        {named2["zero"], named2["t01"], named2["t10"], named2["swap"]}
    )


def test_join_span_example(i2, named2):
    a1 = spectral_closure(i2, [named2["t01"]])
    a2 = spectral_closure(i2, [named2["t10"]])
    js = join_span(i2, a1, a2)
    assert named2["swap"] in js
    assert js == spectral_closure(i2, [named2["swap"]])


def test_is_spectral_set_partition_violation(i2, named2):
    # e0, e1 without their join 1 is not spectral
    A = frozenset({named2["zero"], named2["e0"], named2["e1"]})
    assert not is_spectral_set(i2, A)
    assert is_spectral_set(i2, A | {named2["one"]})


def test_enumerate_counts(i2, i3):
    sets2 = enumerate_spectral_sets(i2)
    assert len(sets2) == 16
    brute = {
        frozenset(c)
        for r in range(len(i2) + 1)
        for c in itertools.combinations(i2.elements, r)
        if is_spectral_set(i2, frozenset(c))
    }
    assert brute == set(sets2)
    assert len(enumerate_spectral_sets(i3)) == 512  # 2^|R|


def test_enumerate_idempotent_monoid():
    S = FiniteInverseMonoid(3, [partial_identity(3, m) for m in range(8)])
    assert len(enumerate_spectral_sets(S)) == 2**3


def test_theta_psi_inverse_exhaustive(i2):
    rs = RepSpace(Extension(i2, 2))
    for A in enumerate_spectral_sets(i2):
        B = psi(rs, A)
        assert theta(rs, B) == A


def test_psi_top_and_bottom(i2):
    rs = RepSpace(Extension(i2, 1))
    full = psi(rs, frozenset(i2.elements))
    assert full.dimension == 4
    bottom = psi(rs, frozenset({i2.zero}))
    assert bottom.dimension == 0
    assert theta(rs, full) == frozenset(i2.elements)


def test_theta_section_independent(i2):
    """Right-multiplying the section by phased identities leaves theta alone."""
    from cartanlab.extension import Section
    from cartanlab.semigroup_core import PhasedElement

    ext = Extension(i2, 2)
    rs = RepSpace(ext)
    rng = random.Random(3)
    other_values = {}
    for s in i2:
        phases = tuple(rng.randrange(2) for _ in range(s.domain.bit_count()))
        p_s = PhasedElement(partial_identity(2, s.domain), phases)
        other_values[s] = ext.multiply(rs.j[s], p_s)
    rs2 = RepSpace(ext, Section(other_values))
    for A in enumerate_spectral_sets(i2):
        B = psi(rs, A)
        assert theta(rs2, B, check_gn=False) == A


def test_theta_psi_samples_rook3(i3):
    rs = RepSpace(Extension(i3, 1))
    rng = random.Random(0)
    sets3 = enumerate_spectral_sets(i3)
    for A in rng.sample(sets3, 25):
        assert theta(rs, psi(rs, A)) == A


def test_lattice_correspondence(i3):
    rs = RepSpace(Extension(i3, 1))
    sets3 = enumerate_spectral_sets(i3)
    rng = random.Random(5)
    for _ in range(8):
        A1, A2 = rng.sample(sets3, 2)
        B1, B2 = psi(rs, A1), psi(rs, A2)
        sum_basis = subspace_basis(B1.basis + B2.basis)
        join_module = psi(rs, join_span(i3, A1, A2))
        assert len(sum_basis) == join_module.dimension
        assert all(contains_matrix(join_module.basis, m) for m in sum_basis)
        inter = _subspace_intersection(B1.basis, B2.basis, TOL)
        meet_module = psi(rs, A1 & A2)
        assert len(inter) == meet_module.dimension
        assert all(contains_matrix(meet_module.basis, m) for m in inter)


def test_full_submonoids_rook2(i2):
    subs = full_submonoids(i2)
    assert len(subs) == 2
    assert sorted(len(a) for a in subs) == [4, 7]
    rs = RepSpace(Extension(i2, 1))
    rep = aoi_correspondence(rs)
    assert rep.bijective
    assert rep.algebra_dims == [2, 4]


def test_full_submonoids_idempotent_monoid():
    S = FiniteInverseMonoid(2, [partial_identity(2, m) for m in range(4)])
    assert len(full_submonoids(S)) == 1


def test_full_submonoids_two_block(twoblock):
    subs = full_submonoids(twoblock)
    assert len(subs) == 2
    rs = RepSpace(Extension(twoblock, 1))
    rep = aoi_correspondence(rs)
    assert rep.bijective
    assert rep.algebra_dims == [3, 5]  # diagonal and the block algebra


def test_msd_mtr_rook2(i2, named2):
    m = msd(i2)
    t = mtr(i2)
    assert len(m) == 3 and len(t) == 2
    upper = frozenset(
        {named2["zero"], named2["e0"], named2["e1"], named2["one"], named2["t01"]}
    )
    lower = frozenset(
        {named2["zero"], named2["e0"], named2["e1"], named2["one"], named2["t10"]}
    )
    assert upper in t and lower in t
    assert frozenset(i2.elements) in m
    assert all(A in m for A in t)


def test_mtr_members_have_idempotent_selfadjoint_part(i2, i3):
    for S in (i2, i3):
        idem = frozenset(S.idempotents())
        for A in mtr(S):
            assert A & frozenset(dagger(s) for s in A) == idem


def test_verify_subdiagonal_rook2(i2):
    rs = RepSpace(Extension(i2, 2))
    for A in msd(i2):
        rep = verify_subdiagonal(rs, A)
        assert rep.passed, rep.to_lines()
        assert rep.max_deviation <= TOL
    # the full monoid corresponds to the whole algebra with identity map
    full_rep = verify_subdiagonal(rs, frozenset(i2.elements))
    assert full_rep.dim_algebra == full_rep.dim_selfadjoint_part == 4


def test_psi_product_closure_matches_monoid_closure(i2):
    from cartanlab.semigroup_core import compose

    rs = RepSpace(Extension(i2, 2))
    for A in enumerate_spectral_sets(i2):
        B = psi(rs, A)
        span_closed = all(
            contains_matrix(B.basis, a @ b, TOL) for a in B.basis for b in B.basis
        )
        monoid_closed = all(compose(s, t) in A for s in A for t in A)
        assert span_closed == monoid_closed


def test_msd_count_rook3(i3):
    # total preorders with symmetric closure equal to the full relation:
    # 13 on three points (6 orders, 6 single-tie, 1 all-tied)
    assert len(msd(i3)) == 13
    assert len(mtr(i3)) == 6


def _idempotent_monoid(n):
    return FiniteInverseMonoid(n, [partial_identity(n, m) for m in range(1 << n)])


@pytest.mark.parametrize(
    "S",
    [rook_monoid(2), eqrel_monoid([(0, 1), (2,)]), _idempotent_monoid(3)],
    ids=["rook2", "eqrel 0,1|2", "idempotents3"],
)
def test_enumeration_matches_brute_force(S):
    """The trace-index enumeration against filtering every subset with the
    element-level definition."""
    rest = [s for s in S if not s.is_zero()]
    brute = set()
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            A = frozenset(combo) | {S.zero}
            if is_spectral_set(S, A):
                brute.add(A)
    sets = enumerate_spectral_sets(S)
    assert len(sets) == len(set(sets))
    assert set(sets) == brute


def test_rook3_sets_are_spectral_and_closed(i3):
    sets3 = enumerate_spectral_sets(i3)
    assert len(set(sets3)) == len(sets3) == 512
    for A in sets3:
        assert is_spectral_set(i3, A)
        assert spectral_closure(i3, A) == A


def test_join_span_is_the_orthogonal_split_set(i3):
    sets3 = enumerate_spectral_sets(i3)
    rng = random.Random(11)
    for _ in range(40):
        A1, A2 = rng.sample(sets3, 2)
        split = {
            orthogonal_join([s1, s2]) for s1 in A1 for s2 in A2 if are_orthogonal(s1, s2)
        }
        assert join_span(i3, A1, A2) == frozenset(split)


def _set_partitions(atoms):
    if not atoms:
        yield []
        return
    first, rest = atoms[0], atoms[1:]
    for part in _set_partitions(rest):
        yield [(first,)] + part
        for i, block in enumerate(part):
            yield part[:i] + [tuple(sorted((first,) + block))] + part[i + 1 :]


FUBINI = {1: 1, 2: 3, 3: 13, 4: 75}


@pytest.mark.parametrize(
    "blocks",
    [p for n in range(1, 5) for p in _set_partitions(tuple(range(n)))],
    ids=lambda p: "|".join(",".join(map(str, b)) for b in p),
)
def test_eqrel_counts(blocks):
    """2^|R| spectral sets, prod Fubini(b) msd members, prod b! mtr members."""
    S = eqrel_monoid(blocks)
    sizes = [len(b) for b in blocks]
    assert len(enumerate_spectral_sets(S)) == 2 ** sum(b * b for b in sizes)
    assert len(msd(S)) == math.prod(FUBINI[b] for b in sizes)
    assert len(mtr(S)) == math.prod(math.factorial(b) for b in sizes)


def test_non_atomistic_monoid_is_rejected():
    """{0, id{0}, 1} on two atoms: 1 is not the join of the minimal elements
    below it, so masks over minimals cannot describe its spectral sets."""
    S = FiniteInverseMonoid(2, [partial_identity(2, 0b01)])
    assert len(S) == 3
    for call in (enumerate_spectral_sets, msd, mtr, full_submonoids):
        with pytest.raises(DomainError):
            call(S)
    with pytest.raises(DomainError):
        spectral_closure(S, [S.one])
