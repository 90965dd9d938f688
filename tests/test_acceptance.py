"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here (1e-9 for rank/eigen/commutant decisions,
1e-12 for exact root-of-unity matrix identities) and are not configurable.
"""

import itertools
import json
import pathlib
import random
from importlib import resources

import numpy as np
import pytest

from cartanlab.boolean_monoid import check_axioms
from cartanlab.cli import build_extension, main, parse
from cartanlab.exact_library import chop, meet, orthogonal_join
from cartanlab.extension import (
    CocycleTable,
    Extension,
    Section,
    cohomologous,
    order_preserving_section,
    point_coboundary_table,
    validate_cocycle,
    validate_section,
)
from cartanlab.generators import emit, eqrel_monoid, rook_monoid
from cartanlab.kernel_rep import RepSpace
from cartanlab.numeric_library import (
    abstract_gram_check,
    aoi_correspondence,
    full_submonoids,
    join_span,
    kernel,
    kernel_psd_check,
)
from cartanlab.semigroup_core import PhasedElement, compose, dagger, identity_map, natural_leq
from cartanlab.spectral_bimodule import (
    _subspace_intersection,
    enumerate_spectral_sets,
    msd,
    mtr,
    psi,
    theta,
    verify_subdiagonal,
)
from cartanlab.vn_oracle import (
    MatrixAlgebra,
    _pattern_positions,
    cartan_report,
    contains_matrix,
    recover_extension,
    span_basis,
    subspace_basis,
)

from exact_reference import coboundary_table, is_spectral_set, leech_idempotent, trivial_cocycle
from numeric_reference import _pattern_intersection

TOL = 1e-9
EXACT = 1e-12
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _report(number, name):
    print(f"\nACCEPTANCE {number:2d} ({name}): PASS")


def _offdiag(S):
    return sorted({(x, y) for s in S for x, y in s.pairs() if x != y})


def _perturbed(S, k, seed):
    rng = random.Random(seed)
    return point_coboundary_table(S, k, {p: rng.randrange(k) for p in _offdiag(S)})


def test_criterion_01_axioms():
    i2, i3, tb = rook_monoid(2), rook_monoid(3), eqrel_monoid([(0, 1), (2,)])
    for S in (i2, i3, tb):
        rep = check_axioms(S)
        assert rep.passed and rep.cartan
    swap = next(s for s in i2 if s.domain == 0b11 and s.image == (1, 0))
    from cartanlab.semigroup_core import FiniteInverseMonoid

    broken = FiniteInverseMonoid(2, [s for s in i2 if s != swap])
    rep = check_axioms(broken)
    assert not rep.complete_d.passed
    t01, t10 = sorted(set(rep.complete_d.witness), key=lambda s: s.domain)
    assert {t01.image, t10.image} == {(1,), (0,)}
    _report(1, "axioms with witnesses")


def test_criterion_02_leech_meet_suite():
    i3 = rook_monoid(3)
    ext = Extension(i3, 1)
    j = order_preserving_section(ext)
    one = identity_map(3)
    violations = 0
    for s in i3:
        below = [t for t in i3 if natural_leq(t, s)]
        src = compose(dagger(s), s)
        tau = {t: compose(dagger(s), t) for t in below}
        if len(set(tau.values())) != len(below):
            violations += 1
        if set(tau.values()) != {e for e in i3.idempotents() if natural_leq(e, src)}:
            violations += 1
        for t in i3:
            e = leech_idempotent(s, t)
            if meet(s, t) != compose(s, e) or meet(s, t) != compose(t, e):
                violations += 1
            if e != meet(compose(dagger(s), t), one):
                violations += 1
        for t1 in below:
            for t2 in below:
                if tau[t1].restrict(tau[t2].domain) != tau[meet(t1, t2)]:
                    violations += 1
    for r in i3:
        for s in i3:
            for t in i3:
                lhs = kernel(j, t, r).domain & kernel(j, t, s).domain
                if lhs != kernel(j, t, meet(r, s)).domain:
                    violations += 1
    assert violations == 0
    _report(2, "Leech/meet suite on 34 elements")


def _chop_contract(inputs, output):
    assert all(not a.is_zero() for a in output)
    for a, b in itertools.combinations(output, 2):
        assert meet(a, b).is_zero()
    for a in output:
        assert any(meet(a, s) == a for s in inputs)
        for s in inputs:
            assert meet(a, s) in (a,) or meet(a, s).is_zero()
    for s in inputs:
        parts = [a for a in output if natural_leq(a, s)]
        assert orthogonal_join(parts) == s


def test_criterion_03_chop():
    i2, i3 = rook_monoid(2), rook_monoid(3)
    nonzero2 = [s for s in i2 if not s.is_zero()]
    for r in (1, 2, 3):
        for inputs in itertools.product(nonzero2, repeat=r):
            _chop_contract(list(inputs), chop(list(inputs)))
    rng = random.Random(1009)
    nonzero3 = [s for s in i3 if not s.is_zero()]
    for _ in range(500):
        inputs = [rng.choice(nonzero3) for _ in range(rng.randint(1, 4))]
        _chop_contract(inputs, chop(inputs))
    _report(3, "chop refinement contract")


def test_criterion_04_sections():
    i2, i3 = rook_monoid(2), rook_monoid(3)
    for S, seed in ((i2, 61), (i3, 67)):
        for k in (1, 2, 4):
            for table in (trivial_cocycle(S, k), _perturbed(S, k, seed + k)):
                assert validate_cocycle(S, k, table).passed
                ext = Extension(S, k, table)
                j = order_preserving_section(ext)
                rep = validate_section(ext, j)
                assert rep.cond_a and rep.cond_b and rep.cond_c
                for s in S:
                    assert ext.dagger(j[s]) == j[dagger(s)]
    # mutation detectability on the doubled extension
    ext = Extension(i2, 2)
    j = order_preserving_section(ext)
    rng = random.Random(71)
    nonzero = [s for s in i2 if not s.is_zero()]
    for _ in range(25):
        mutated = dict(j.values)
        s = rng.choice(nonzero)
        phases = list(mutated[s].phases)
        idx = rng.randrange(len(phases))
        phases[idx] ^= 1
        mutated[s] = PhasedElement(s, tuple(phases))
        assert not validate_section(ext, Section(mutated)).cond_b
    _report(4, "order-preserving sections, all k and cocycles")


def test_criterion_05_kernel_positivity():
    i2, i3 = rook_monoid(2), rook_monoid(3)
    j2 = order_preserving_section(Extension(i2, 1))
    for r in range(1, len(i2) + 1):
        for subset in itertools.combinations(i2.elements, r):
            for res in kernel_psd_check(j2, subset, 2, tol=TOL):
                assert res["min_eig"] >= -TOL
    j3 = order_preserving_section(Extension(i3, 1))
    rng = random.Random(1013)
    for _ in range(1000):
        subset = rng.sample(i3.elements, rng.randint(1, 6))
        for res in kernel_psd_check(j3, subset, 3, tol=TOL):
            assert res["min_eig"] >= -TOL
    _report(5, "kernel positivity with rank-one decompositions")


def test_criterion_06_representation():
    i2 = rook_monoid(2)
    ext = Extension(i2, 2)
    rs = RepSpace(ext)
    G = ext.elements
    assert len(G) == 17
    mats = {v: rs.lam(v) for v in G}
    for v in G:
        for w in G:
            assert np.abs(mats[v] @ mats[w] - mats[ext.multiply(v, w)]).max() <= EXACT
        assert np.abs(mats[v].conj().T - mats[ext.dagger(v)]).max() <= EXACT
        T = mats[v]
        assert np.abs(T @ T.conj().T @ T - T).max() <= TOL
    for v, w in itertools.combinations(G, 2):
        assert np.abs(mats[v] - mats[w]).max() > 0.5
    res = abstract_gram_check(ext, rs.j, tol=TOL)
    assert res["rank"] == 4 == res["dim_R"]
    assert res["intertwining_deviation"] <= TOL
    _report(6, "matrix representation of the 17-element extension")


def _oracle_configs():
    i2, i3, tb = rook_monoid(2), rook_monoid(3), eqrel_monoid([(0, 1), (2,)])
    out = []
    for S, name in ((i2, "rook2"), (i3, "rook3"), (tb, "two-block")):
        out.append((name, Extension(S, 1)))
        out.append((name, Extension(S, 2)))
        out.append((name, Extension(S, 2, _perturbed(S, 2, hash(name) % 997))))
    return out


def test_criterion_07_cartan_verification():
    for name, ext in _oracle_configs():
        rep = cartan_report(ext, tol=TOL)
        assert rep.passed, (name, rep.to_lines())
        assert rep.dim_M == rep.dim_R
        assert rep.dim_D == rep.atom_count
        assert rep.masa.is_masa
        assert rep.expectation.matches_diagonal_part
        assert rep.expectation.faithful
        assert rep.regularity_ok
    _report(7, "Cartan pair verification battery")


def test_criterion_08_recovery_independent_of_cocycle():
    recovered = {}
    for name, ext in _oracle_configs():
        rs = RepSpace(ext, tol=TOL)
        M = span_basis(rs.stack(rs.ext.elements), rs.rbasis, TOL)
        D = span_basis(rs.stack(rs.ext.phased_identities), rs.rbasis, TOL)
        S_prime, iso = recover_extension(M, D, ext.S)
        assert iso is not None
        recovered.setdefault(name, set()).add(
            tuple((s.domain, s.image) for s in S_prime)
        )
    assert all(len(variants) == 1 for variants in recovered.values())
    _report(8, "base monoid recovery, cocycle independent")


def test_criterion_09_spectral_theorem():
    i2 = rook_monoid(2)
    rs = RepSpace(Extension(i2, 2))
    sets2 = enumerate_spectral_sets(i2)
    assert len(sets2) == 16
    for A in sets2:
        assert theta(rs, psi(rs, A)) == A
    # bimodules built directly from relation subsets: psi(theta(B)) = B
    from cartanlab.semigroup_core import singleton

    full = span_basis(rs.stack(rs.ext.elements), rs.rbasis, TOL)
    for r in range(len(rs.rbasis) + 1):
        for points in itertools.combinations(range(len(rs.rbasis)), r):
            vecs = []
            for pi in points:
                x, y = rs.rbasis.pairs[pi]
                g = singleton(2, y, x)
                vecs.extend(
                    _pattern_intersection(full, _pattern_positions(rs.rbasis, g))
                )
            basis = subspace_basis(vecs, TOL)
            B = MatrixAlgebra(basis, rs.rbasis)
            A = theta(rs, B)
            back = psi(rs, A)
            assert back.dimension == B.dimension
            assert all(contains_matrix(back.basis, m, TOL) for m in B.basis)

    i3 = rook_monoid(3)
    rs3 = RepSpace(Extension(i3, 1))
    sets3 = enumerate_spectral_sets(i3)
    assert len(sets3) == 512 == 2 ** len(rs3.rbasis)
    rng = random.Random(1021)
    for A in rng.sample(sets3, 50):
        assert theta(rs3, psi(rs3, A)) == A
    for _ in range(8):
        A1, A2 = rng.sample(sets3, 2)
        B1, B2 = psi(rs3, A1), psi(rs3, A2)
        sum_basis = subspace_basis(B1.basis + B2.basis, TOL)
        join_module = psi(rs3, join_span(i3, A1, A2))
        assert len(sum_basis) == join_module.dimension
        inter = _subspace_intersection(B1.basis, B2.basis, TOL)
        meet_module = psi(rs3, A1 & A2)
        assert len(inter) == meet_module.dimension
    _report(9, "spectral sets <-> bimodules, both directions")


def test_criterion_10_aoi_correspondence():
    i2, tb = rook_monoid(2), eqrel_monoid([(0, 1), (2,)])
    rep2 = aoi_correspondence(RepSpace(Extension(i2, 1)))
    assert rep2.submonoid_count == 2
    assert rep2.algebra_dims == [2, 4]
    assert rep2.bijective
    repb = aoi_correspondence(RepSpace(Extension(tb, 1)))
    assert repb.submonoid_count == 2
    assert repb.algebra_dims == [3, 5]
    assert repb.bijective
    _report(10, "intermediate algebra correspondence")


def test_criterion_11_msd_mtr():
    i2 = rook_monoid(2)
    rs = RepSpace(Extension(i2, 2))
    m, t = msd(i2), mtr(i2)
    assert len(m) == 3 and len(t) == 2
    assert all(A in m for A in t)
    for A in m:
        rep = verify_subdiagonal(rs, A)
        assert rep.passed, rep.to_lines()
        assert rep.max_deviation <= TOL
        assert rep.dense
    _report(11, "maximal subdiagonal/triangular classification")


def test_criterion_12_cohomology():
    i2 = rook_monoid(2)
    nonidem = [s for s in i2 if not s.is_idempotent()]
    free = []
    for s in nonidem:
        for t in nonidem:
            st = compose(s, t)
            if st.domain:
                free.append(((s, t), st.domain.bit_count()))
    width = sum(w for _, w in free)
    base = trivial_cocycle(i2, 2)
    valid_count = 0
    for assignment in itertools.product((0, 1), repeat=width):
        entries = dict(base.entries)
        pos = 0
        for (s, t), w in free:
            entries[(s, t)] = tuple(assignment[pos : pos + w])
            pos += w
        table = CocycleTable(2, entries)
        if validate_cocycle(i2, 2, table).passed:
            valid_count += 1
            witness = cohomologous(i2, 2, None, table)
            assert witness is not None
            rebuilt = coboundary_table(i2, 2, base, witness)
            assert rebuilt.entries == table.entries
    assert valid_count >= 1
    # round-trip: coboundary of a random b is recognized with a matching witness
    rng = random.Random(1031)
    for k in (2, 4):
        pts = {p: rng.randrange(k) for p in _offdiag(i2)}
        c2 = point_coboundary_table(i2, k, pts)
        witness = cohomologous(i2, k, trivial_cocycle(i2, k), c2)
        assert witness is not None
        assert coboundary_table(i2, k, trivial_cocycle(i2, k), witness).entries == c2.entries
    _report(12, f"cohomology (valid k=2 tables on rook2: {valid_count}, all trivial)")


def test_criterion_13_cli(tmp_path, capsys):
    text = (resources.files("cartanlab") / "data" / "rook2.json").read_text()
    doc = parse(text)
    canonical = emit(doc)
    assert emit(parse(canonical)) == canonical
    assert parse(canonical) == doc

    malformed = sorted((FIXTURES / "malformed").glob("*.json"))
    assert len(malformed) >= 10
    for path in malformed:
        assert main(["validate", str(path)]) == 2, path.name
    target = tmp_path / "rook2.json"
    target.write_text(text)
    assert main(["validate", str(target)]) == 0
    assert main(["validate", str(FIXTURES / "missing_swap.json")]) == 1
    capsys.readouterr()
    _report(13, f"CLI byte stability and exit codes ({len(malformed)} bad fixtures)")
