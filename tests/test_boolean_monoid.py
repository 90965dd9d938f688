import itertools
import random

import pytest

from cartanlab.boolean_monoid import check_axioms, groupoid_relation, idempotent_atoms
from cartanlab.errors import DomainError, InvariantViolation
from cartanlab.exact_library import (
    are_orthogonal,
    chop,
    meet,
    orthogonal_join,
    rebase_to_idempotent_atoms,
)
from cartanlab.generators import eqrel_monoid, product_monoid, rook_monoid
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    compose,
    dagger,
    identity_map,
    natural_leq,
    partial_identity,
    zero_map,
)

from exact_reference import beta


def test_axioms_pass_on_standard_monoids(i2, i3, twoblock):
    for S in (i2, i3, twoblock):
        rep = check_axioms(S)
        assert rep.passed and rep.cartan


def test_axioms_two_point_lattice():
    S = FiniteInverseMonoid(1, [zero_map(1), identity_map(1)])
    rep = check_axioms(S)
    assert rep.passed


def test_axioms_missing_join_witness(i2, named2):
    S = FiniteInverseMonoid(2, [s for s in i2 if s != named2["swap"]])
    rep = check_axioms(S)
    assert not rep.boolean_c.passed
    assert set(rep.boolean_c.witness) == {named2["t01"], named2["t10"]}
    assert not rep.complete_d.passed
    assert set(rep.complete_d.witness) == {named2["t01"], named2["t10"]}
    assert not rep.cartan


def _point_idempotents_only():
    """{0, e0, e1, e2, 1} on three atoms: closed, but the orthogonal pair
    {e0, e1} has no join in it, though the maximal family {e0, e1, e2} has."""
    return FiniteInverseMonoid(3, [zero_map(3), *(partial_identity(3, 1 << i) for i in range(3)), identity_map(3)])


def test_axioms_missing_pair_join_fails_c_and_d():
    S = _point_idempotents_only()
    e = [partial_identity(3, 1 << i) for i in range(3)]
    assert S.closure_witness() is None
    rep = check_axioms(S)
    assert not rep.boolean_c.passed
    assert rep.boolean_c.witness == (e[0], e[1])
    assert not rep.complete_d.passed
    assert rep.complete_d.witness == (e[0], e[1])
    assert not rep.cartan


def _orthogonal_families(S):
    """Every pairwise-orthogonal family of at least two nonzero elements."""
    nonzero = [s for s in S if not s.is_zero()]

    def extend(family, start):
        for i in range(start, len(nonzero)):
            if all(are_orthogonal(nonzero[i], f) for f in family):
                grown = family + [nonzero[i]]
                if len(grown) >= 2:
                    yield grown
                yield from extend(grown, i + 1)

    return extend([], 0)


def _brute_force_d(S) -> bool:
    return all(orthogonal_join(family) in S for family in _orthogonal_families(S))


def _closed_submonoid(n, generators):
    """The inverse submonoid of the rook monoid on n atoms generated by
    ``generators``, 0 and 1."""
    pool = {zero_map(n), identity_map(n)}
    todo = list(generators) + [dagger(g) for g in generators]
    while todo:
        pool.update(todo)
        todo = {compose(s, t) for s in pool for t in pool} - pool
    return FiniteInverseMonoid(n, pool)


def _seeded_rook3_submonoids(count=40, seed=2017):
    rng = random.Random(seed)
    nonzero = [s for s in rook_monoid(3) if not s.is_zero()]
    return [_closed_submonoid(3, rng.sample(nonzero, rng.randint(1, 4))) for _ in range(count)]


def _parity_inputs():
    i2 = rook_monoid(2)
    swap = PartialBijection(2, 0b11, (1, 0))
    return [
        i2,
        rook_monoid(3),
        eqrel_monoid([(0, 1), (2,)]),
        eqrel_monoid([(0, 1), (2, 3)]),
        product_monoid(i2, i2),
        FiniteInverseMonoid(2, [s for s in i2 if s != swap]),
        _point_idempotents_only(),
    ] + _seeded_rook3_submonoids()


def test_complete_d_equals_brute_force_over_every_orthogonal_family():
    inputs = _parity_inputs()
    failing = []
    for S in inputs:
        assert S.closure_witness() is None
        rep = check_axioms(S)
        brute = _brute_force_d(S)
        assert rep.complete_d.passed == brute
        assert rep.complete_d.witness == rep.boolean_c.witness
        if not brute:
            assert orthogonal_join(rep.complete_d.witness) not in S
            failing.append(S)
    assert 0 < len(failing) < len(inputs)
    # a check on maximal families alone passes some of the failing inputs
    assert any(
        all(orthogonal_join(f) in S for f in maximal_orthogonal_families(S) if len(f) >= 2) for S in failing
    )


def test_axioms_non_boolean_idempotents():
    # E = {0, e0, 1} on two atoms: no complement for e0
    S = FiniteInverseMonoid(2, [zero_map(2), partial_identity(2, 0b01), identity_map(2)])
    rep = check_axioms(S)
    assert not rep.boolean_a.passed


def test_rebase_onto_blocks():
    # idempotents form a proper subalgebra: {0, e01, e2, 1} on three atoms
    e01 = partial_identity(3, 0b011)
    e2 = partial_identity(3, 0b100)
    S = FiniteInverseMonoid(3, [zero_map(3), e01, e2, identity_map(3)])
    assert len(idempotent_atoms(S)) == 2
    assert check_axioms(S).boolean_a.passed
    rebased, supports = rebase_to_idempotent_atoms(S)
    assert rebased.atom_count == 2
    assert sorted(supports) == [0b011, 0b100]


def reference_idempotent_atoms(S):
    """The earlier body: |E|^2 ``natural_leq`` calls."""
    idem = [e for e in S.idempotents() if not e.is_zero()]
    return [e for e in idem if not any(f != e and natural_leq(f, e) for f in idem)]


ATOM_CASES = {
    "rook3": rook_monoid(3),
    "rook4": rook_monoid(4),
    "eqrel_01_2": eqrel_monoid([(0, 1), (2,)]),
    "blocks_01_2": FiniteInverseMonoid(3, [partial_identity(3, 0b011), partial_identity(3, 0b100)]),
    "not_boolean": FiniteInverseMonoid(2, [partial_identity(2, 0b01)]),
    "chain": FiniteInverseMonoid(3, [partial_identity(3, 0b001), partial_identity(3, 0b011)]),
}


@pytest.mark.parametrize("name", sorted(ATOM_CASES))
def test_check_axioms_reads_idempotent_atoms_once_from_domains(name, monkeypatch):
    """The same atoms, in the same order, as the natural_leq reference, and
    the same report from one idempotent_atoms call and no natural_leq call."""
    import cartanlab.boolean_monoid as boolean_module
    import cartanlab.semigroup_core as core_module

    S = ATOM_CASES[name]
    assert idempotent_atoms(S) == reference_idempotent_atoms(S)
    expected = check_axioms(S)
    calls = []
    original = boolean_module.idempotent_atoms

    def counted(S):
        calls.append(S)
        return original(S)

    def forbidden(*args):
        raise AssertionError("natural_leq called")

    monkeypatch.setattr(boolean_module, "idempotent_atoms", counted)
    assert "natural_leq" not in vars(boolean_module)  # its one route is through semigroup_core
    monkeypatch.setattr(core_module, "natural_leq", forbidden)
    rep = check_axioms(S)
    assert rep.to_lines() == expected.to_lines()
    assert len(calls) == 1


def test_beta_examples(i2, named2):
    for e in i2.idempotents():
        assert beta(i2, e) == e
    assert beta(i2, named2["swap"]) == named2["swap"]
    for s in i2:
        for t in i2:
            assert compose(beta(i2, s), beta(i2, t)) == beta(i2, compose(s, t))
        assert dagger(beta(i2, s)) == beta(i2, dagger(s))


def _assert_chop_contract(inputs, output):
    assert all(not a.is_zero() for a in output)
    for a, b in itertools.combinations(output, 2):
        assert meet(a, b).is_zero()
    for a in output:
        hits = [s for s in inputs if meet(a, s) == a]
        assert hits, f"{a} lies below no input"
        for s in inputs:
            m = meet(a, s)
            assert m == a or m.is_zero()
    for s in inputs:
        parts = [a for a in output if natural_leq(a, s)]
        assert orthogonal_join(parts) == s


def test_chop_examples(i2, named2):
    s = named2["t01"]
    assert chop([s]) == [s]
    out = chop([named2["one"], named2["e0"]])
    assert sorted(out) == sorted([named2["e0"], named2["e1"]])
    out2 = chop([named2["swap"], named2["one"]])
    assert sorted(out2) == sorted([named2["swap"], named2["one"]])
    for r in (1, 2, 3):
        for inputs in itertools.product([s for s in i2 if not s.is_zero()], repeat=r):
            _assert_chop_contract(list(inputs), chop(list(inputs)))


def test_chop_rejects_zero(i2):
    with pytest.raises(DomainError):
        chop([i2.zero])


def test_chop_random_lists(i3):
    rng = random.Random(11)
    nonzero = [s for s in i3 if not s.is_zero()]
    for _ in range(200):
        inputs = [rng.choice(nonzero) for _ in range(rng.randint(1, 4))]
        out = chop(inputs)
        _assert_chop_contract(inputs, out)
        assert len(out) <= 2 ** len(inputs) * len(inputs)


def test_groupoid_relation_counts(i2, i3, twoblock):
    assert len(groupoid_relation(i2)) == 4
    assert len(groupoid_relation(i3)) == 9
    rel = groupoid_relation(twoblock)
    assert len(rel) == 5
    assert rel.blocks == [(0, 1), (2,)]


def test_groupoid_relation_diagonal():
    S = FiniteInverseMonoid(
        3, [partial_identity(3, m) for m in range(8)]
    )  # idempotents only
    rel = groupoid_relation(S)
    assert len(rel) == 3
    assert all(x == y for x, y in rel.pairs)


def test_groupoid_relation_rejects_non_equivalence():
    from cartanlab.semigroup_core import singleton

    S = FiniteInverseMonoid(2, [singleton(2, 0, 1)])  # dagger missing
    with pytest.raises(InvariantViolation):
        groupoid_relation(S)


def test_gelfand_supports_cover_power_set(i3):
    supports = {e.domain for e in i3.idempotents()}
    assert supports == set(range(8))


def maximal_orthogonal_families(S: FiniteInverseMonoid):
    """All maximal pairwise-orthogonal families of nonzero elements.

    The reference for the maximal-family search that axiom (d) once ran."""
    nonzero = [s for s in S if not s.is_zero()]
    out = []

    def extend(family, start):
        extended = False
        for i in range(start, len(nonzero)):
            cand = nonzero[i]
            if all(are_orthogonal(cand, f) for f in family):
                extend(family + [cand], i + 1)
                extended = True
        if not extended:
            # maximal w.r.t. elements after `start`; confirm global maximality
            if all(
                not all(are_orthogonal(c, f) for f in family)
                for c in nonzero
                if c not in family
            ):
                out.append(family)

    extend([], 0)
    return out


def test_maximal_orthogonal_families_against_brute_force(i2):
    nonzero = [s for s in i2 if not s.is_zero()]
    orthogonal_sets = [
        set(c)
        for r in range(1, len(nonzero) + 1)
        for c in itertools.combinations(nonzero, r)
        if all(are_orthogonal(a, b) for a, b in itertools.combinations(c, 2))
    ]
    brute_maximal = [
        fam
        for fam in orthogonal_sets
        if not any(fam < other for other in orthogonal_sets)
    ]
    found = [set(f) for f in maximal_orthogonal_families(i2)]
    assert len(found) == len(brute_maximal)
    for fam in brute_maximal:
        assert fam in found
