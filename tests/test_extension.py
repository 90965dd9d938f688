import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab import _equiv
from cartanlab.errors import DomainError, FormatError
from cartanlab.exact_library import meet
from cartanlab.extension import (
    CocycleTable,
    Extension,
    Section,
    cohomologous,
    delta,
    extensions_equivalent,
    lausch_alpha,
    order_preserving_section,
    point_coboundary_table,
    point_cocycle_table,
    sigma,
    validate_cocycle,
    validate_section,
)
from cartanlab.generators import eqrel_monoid, product_monoid, rook_monoid
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    compose,
    dagger,
    natural_leq,
    with_zero_phases,
)

from exact_reference import (
    coboundary_table,
    element_delta,
    element_sigma,
    g_meet,
    g_natural_leq,
    patch_extension,
    trivial_cocycle,
)


def offdiag_points(S):
    return sorted({(x, y) for s in S for x, y in s.pairs() if x != y})


def random_coboundary(S, k, seed):
    rng = random.Random(seed)
    return point_coboundary_table(S, k, {p: rng.randrange(k) for p in offdiag_points(S)})


def test_trivial_cocycle_valid(i2, i3):
    for S in (i2, i3):
        for k in (1, 2):
            assert validate_cocycle(S, k, trivial_cocycle(S, k)).passed


def test_flipped_entry_fails_with_witness(i2, named2):
    table = trivial_cocycle(i2, 2)
    swap = named2["swap"]
    entries = dict(table.entries)
    entries[(swap, swap)] = (1, 0)  # flip one atom of c(swap, swap)
    bad = CocycleTable(2, entries)
    rep = validate_cocycle(i2, 2, bad)
    assert not rep.identity_holds
    assert any(v[0] == "identity" and v[1:] == (swap, swap, swap) for v in rep.violations)


def test_missing_entry_raises(i2, named2):
    entries = dict(trivial_cocycle(i2, 2).entries)
    del entries[(named2["swap"], named2["swap"])]
    bad = CocycleTable(2, entries)
    with pytest.raises(FormatError):
        validate_cocycle(i2, 2, bad)


def test_g_multiply_unit_and_phase_addition(i2, named2):
    ext = Extension(i2, 2)
    for w in ext.elements:
        assert ext.multiply(ext.unit, w) == w
        assert ext.multiply(w, ext.unit) == w
    v = PhasedElement(named2["t01"], (1,))
    w = PhasedElement(named2["t10"], (1,))
    prod = ext.multiply(v, w)
    assert prod.bij == named2["e1"]
    assert prod.phases == (0,)  # 1 + 1 mod 2


def test_g_multiply_associative_exhaustive(i2):
    ext = Extension(i2, 2)
    G = ext.elements
    assert len(G) == 17
    for v in G:
        for w in G:
            vw = ext.multiply(v, w)
            for u in G:
                assert ext.multiply(vw, u) == ext.multiply(v, ext.multiply(w, u))


def test_g_order_and_meet(i2):
    ext = Extension(i2, 2)
    G = ext.elements
    for v in G:
        for w in G:
            m = g_meet(v, w)
            assert g_natural_leq(m, v) and g_natural_leq(m, w)
            # greatest: any common lower bound lies below m
            for u in G:
                if g_natural_leq(u, v) and g_natural_leq(u, w):
                    assert g_natural_leq(u, m)
            # Leech in the extension: v ^ w = v (v^dag w ^ 1)
            f = g_meet(ext.multiply(ext.dagger(v), w), ext.unit)
            assert m == ext.multiply(v, f)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_section_trivial_cocycle_is_zero_lift(i2, i3, k):
    for S in (i2, i3):
        ext = Extension(S, k)
        j = order_preserving_section(ext)
        assert all(j[s] == with_zero_phases(s) for s in S)
        assert validate_section(ext, j).passed


@pytest.mark.parametrize("k", [2, 4])
def test_section_perturbed_cocycle(i2, i3, k):
    for S, seed in ((i2, 5), (i3, 6)):
        ext = Extension(S, k, random_coboundary(S, k, seed))
        j = order_preserving_section(ext)
        rep = validate_section(ext, j)
        assert rep.passed, rep.witnesses
        for s in S:
            assert ext.dagger(j[s]) == j[dagger(s)]
            for t in S:
                assert j[meet(s, t)] == g_meet(j[s], j[t])


def test_section_mutation_breaks_condition_b(i2, named2):
    ext = Extension(i2, 2)
    j = order_preserving_section(ext)
    mutated = dict(j.values)
    mutated[named2["t01"]] = PhasedElement(named2["t01"], (1,))
    rep = validate_section(ext, Section(mutated))
    assert not rep.cond_b
    assert "b" in rep.witnesses


def test_section_rejects_non_cocycle_table(i2, named2):
    """A table that fails the cocycle identity on a downward-closed monoid
    has no coboundary witness, so no section is built from it."""
    entries = dict(trivial_cocycle(i2, 2).entries)
    key = (named2["t01"], named2["swap"])
    entries[key] = tuple((p + 1) % 2 for p in entries[key])
    ext = Extension(i2, 2, CocycleTable(2, entries))
    assert not validate_cocycle(i2, 2, ext.cocycle).identity_holds
    with pytest.raises(DomainError, match="cartanlab validate"):
        order_preserving_section(ext)


def test_tri_equivalence_on_random_mutations(i2):
    """(a) <=> (b) <=> (c) across sparse random phase mutations."""
    rng = random.Random(23)
    for k in (2, 3, 4):
        ext = Extension(i2, k)
        j = order_preserving_section(ext)
        for _ in range(67):
            mutated = dict(j.values)
            for _ in range(rng.randint(1, 3)):
                s = rng.choice([t for t in i2.elements if not t.is_zero()])
                phases = list(mutated[s].phases)
                idx = rng.randrange(len(phases))
                phases[idx] = (phases[idx] + rng.randrange(1, k)) % k
                mutated[s] = PhasedElement(s, tuple(phases))
            rep = validate_section(ext, Section(mutated))
            assert rep.cond_a == rep.cond_b == rep.cond_c, rep.witnesses


def test_alpha_sigma_delta_basics(i2, named2):
    ext = Extension(i2, 2, random_coboundary(i2, 2, 9))
    j = order_preserving_section(ext)
    for s in i2:
        src = compose(dagger(s), s)
        a = lausch_alpha(ext, j, s, src)
        assert a.bij == src and not any(a.phases)
    assert delta(ext, j, j[named2["swap"]]).is_zero()
    for v in ext.elements:
        dv = delta(ext, j, v)
        assert delta(ext, j, dv) == dv  # idempotent as a map
        if v.is_phased_identity():
            assert dv == v
        for s in i2:
            assert sigma(ext, j, j[s], s) is not None
            assert lausch_alpha(ext, j, v.bij, s) == sigma(ext, j, j[v.bij], s)
            assert ext.multiply(v, j[s]) == ext.multiply(
                j[compose(v.bij, s)], sigma(ext, j, v, s)
            )


def test_sigma_multiplicative(i2):
    ext = Extension(i2, 2, random_coboundary(i2, 2, 13))
    j = order_preserving_section(ext)
    G = ext.elements
    for v1 in G:
        for v2 in G:
            for s in i2:
                lhs = ext.multiply(
                    sigma(ext, j, v1, compose(v2.bij, s)), sigma(ext, j, v2, s)
                )
                assert lhs == sigma(ext, j, ext.multiply(v1, v2), s)


def test_delta_conjugation(i2):
    ext = Extension(i2, 2, random_coboundary(i2, 2, 17))
    j = order_preserving_section(ext)
    G = ext.elements
    for v in G:
        for w in G:
            wd = ext.dagger(w)
            lhs = delta(ext, j, ext.multiply(ext.multiply(wd, v), w))
            rhs = ext.multiply(ext.multiply(wd, delta(ext, j, v)), w)
            assert lhs == rhs


def test_sigma_matches_point_cocycle_formula(i2):
    """The phase correction against a zero-phase section coincides with the
    point-cocycle expression h_v(s(y)) + c(q(v)(s(y)), s(y), y)."""
    rng = random.Random(31)
    k = 4
    u = {}
    for x in range(2):
        for y in range(2):
            u[(x, y)] = 0 if x == y else rng.randrange(k)

    def c_points(x, z, y):
        return (u[(x, z)] + u[(z, y)] - u[(x, y)]) % k

    table = point_cocycle_table(i2, k, c_points)
    assert validate_cocycle(i2, k, table).passed
    ext = Extension(i2, k, table)
    j0 = Section({s: with_zero_phases(s) for s in i2})
    assert validate_section(ext, j0).passed
    for v in ext.elements:
        r = v.bij
        h_v = ext.multiply(ext.dagger(j0[r]), v)
        for s in i2:
            sig = sigma(ext, j0, v, s)
            expected_support = {
                y for _, y in s.pairs() if (r.domain >> s.apply(y)) & 1
            }
            assert set(y for _, y in sig.bij.pairs()) == expected_support
            for y in expected_support:
                want = (h_v.phase_at(s.apply(y)) + c_points(r.apply(s.apply(y)), s.apply(y), y)) % k
                assert sig.phase_at(y) == want


def test_cohomologous_reflexive(i2):
    c = random_coboundary(i2, 2, 41)
    b = cohomologous(i2, 2, c, c)
    assert b is not None
    assert all(not any(v) for v in b.values())


def test_all_valid_cocycles_on_rook2_are_coboundaries(i2):
    """Exhaustive: the valid k=2 tables are exactly the coboundary tables."""
    nonidem = [s for s in i2 if not s.is_idempotent()]
    free = []
    for s in nonidem:
        for t in nonidem:
            st = compose(s, t)
            if st.domain:
                free.append(((s, t), st.domain.bit_count()))
    width = sum(w for _, w in free)
    assert width == 8

    def freeze(table):
        return tuple(
            (i2.index[s], i2.index[t], table.entry(s, t))
            for s in i2
            for t in i2
            if compose(s, t).domain
        )

    valid = set()
    base = trivial_cocycle(i2, 2)
    for assignment in itertools.product((0, 1), repeat=width):
        entries = dict(base.entries)
        pos = 0
        for (s, t), w in free:
            entries[(s, t)] = tuple(assignment[pos : pos + w])
            pos += w
        table = CocycleTable(2, entries)
        rep = validate_cocycle(i2, 2, table)
        if rep.passed:
            witness = cohomologous(i2, 2, None, table)
            assert witness is not None, "valid table must be a coboundary"
            valid.add(freeze(table))

    coboundaries = set()
    pts = offdiag_points(i2)
    for vals in itertools.product((0, 1), repeat=len(pts)):
        table = point_coboundary_table(i2, 2, dict(zip(pts, vals)))
        coboundaries.add(freeze(table))
    assert valid == coboundaries


def test_coboundary_round_trip(i3):
    rng = random.Random(47)
    for k in (2, 4):
        b = {}
        for s in i3:
            b[s] = tuple(
                0 if s.is_idempotent() else rng.randrange(k)
                for _ in range(s.domain.bit_count())
            )
        # force restriction compatibility by going through point values
        pts = {p: rng.randrange(k) for p in offdiag_points(i3)}
        c2 = point_coboundary_table(i3, k, pts)
        witness = cohomologous(i3, k, trivial_cocycle(i3, k), c2)
        assert witness is not None
        assert coboundary_table(i3, k, trivial_cocycle(i3, k), witness).entries == c2.entries


def test_extensions_equivalent_reflexive(i2):
    ext = Extension(i2, 2, random_coboundary(i2, 2, 53))
    w = extensions_equivalent(ext, ext)
    assert w is not None
    perm, theta, alpha = w
    assert perm == (0, 1)
    assert all(theta[s] == s for s in i2)


def test_extensions_equivalent_trivial_vs_perturbed(i2):
    ext1 = Extension(i2, 2)
    ext2 = Extension(i2, 2, random_coboundary(i2, 2, 59))
    w = extensions_equivalent(ext1, ext2)
    assert w is not None
    perm, theta, alpha = w
    for v in ext1.elements:
        for u in ext1.elements:
            assert alpha[ext1.multiply(v, u)] == ext2.multiply(alpha[v], alpha[u])
    assert all(alpha[v].is_phased_identity() == v.is_phased_identity() for v in ext1.elements)


def test_extensions_not_equivalent_size(i2, i3):
    assert extensions_equivalent(Extension(i2, 1), Extension(i3, 1)) is None
    assert extensions_equivalent(Extension(i2, 1), Extension(i2, 2)) is None


@pytest.mark.parametrize("S, k", [(rook_monoid(2), 3), (rook_monoid(3), 2)], ids=["rook2_k3", "rook3_k2"])
def test_alpha_is_an_equivalence_when_the_relabeling_moves_block_minima(S, k, monkeypatch):
    """With the relabelings taken last first, perm sends atom 0, the block's
    minimum, to the last atom, so b1 o theta^-1 - b2 is not gauged at the
    block minima as a witness solved on the transported table would be;
    alpha must still respect the product, the dagger and the quotient, and
    fix the phased identities through the relabeling."""
    patch_extension(monkeypatch, "relabelings", lambda real: lambda S1, S2: reversed(list(real(S1, S2))))
    ext1, ext2 = Extension(S, k, random_coboundary(S, k, 61)), Extension(S, k, random_coboundary(S, k, 67))
    perm, theta, alpha = extensions_equivalent(ext1, ext2)
    assert perm[0] == S.atom_count - 1
    G1 = ext1.elements
    assert len(set(alpha.values())) == len(G1) and set(alpha.values()) == set(ext2.elements)
    for v in G1:
        s2 = theta[v.bij]
        assert alpha[v].bij == s2
        assert alpha[ext1.dagger(v)] == ext2.dagger(alpha[v])
        if v.is_phased_identity():
            moved = tuple(v.phase_at(perm.index(y)) for y in range(S.atom_count) if s2.domain >> y & 1)
            assert alpha[v] == PhasedElement(s2, moved)
        for w in G1:
            assert alpha[ext1.multiply(v, w)] == ext2.multiply(alpha[v], alpha[w])


def _tampered(table):
    """The table with the first phase of one entry bumped: an entry of two
    non-idempotents over at least two atoms, which the identity at (s, t, e)
    for e the identity on one of them ties to another entry."""
    entries = dict(table.entries)
    key = min(
        (key for key, arr in entries.items() if len(arr) >= 2 and not (key[0].is_idempotent() or key[1].is_idempotent())),
        key=lambda key: (key[0].domain, key[0].image, key[1].domain, key[1].image),
    )
    entries[key] = ((entries[key][0] + 1) % table.k,) + entries[key][1:]
    return CocycleTable(table.k, entries)


def test_tables_that_are_not_coboundaries_are_equivalent_to_none(i3):
    bad = _tampered(random_coboundary(i3, 3, 71))
    assert not validate_cocycle(i3, 3, bad).passed
    ext = Extension(i3, 3, bad)
    assert ext.coboundary is None
    assert extensions_equivalent(ext, ext) is None
    assert extensions_equivalent(ext, Extension(i3, 3, bad)) is None
    assert extensions_equivalent(Extension(i3, 3, random_coboundary(i3, 3, 71)), ext) is None


def test_tables_that_are_not_cocycles_are_cohomologous_to_none(i3):
    """cohomologous takes b2 - b1 from the two tables' coboundary witnesses:
    two tables that are not cocycles are cohomologous to no table, even when
    they differ by a coboundary, as equivalence reads them."""
    bad = _tampered(random_coboundary(i3, 3, 71))
    b = cohomologous(i3, 3, None, random_coboundary(i3, 3, 83))
    assert b is not None and any(any(v) for v in b.values())
    shifted = coboundary_table(i3, 3, bad, b)  # bad + delta b
    assert shifted.entries != bad.entries and not validate_cocycle(i3, 3, shifted).passed
    assert cohomologous(i3, 3, bad, shifted) is None
    assert cohomologous(i3, 3, bad, bad) is None
    assert cohomologous(i3, 3, None, bad) is None and cohomologous(i3, 3, bad, None) is None
    assert extensions_equivalent(Extension(i3, 3, bad), Extension(i3, 3, shifted)) is None


def test_equivalence_solves_each_witness_once(i3, monkeypatch):
    """At most two point passes per call, though rook3 has six relabelings;
    a second call solves nothing."""
    passes = []
    patch_extension(monkeypatch, "_point_pass", lambda real: lambda *args: passes.append(args) or real(*args))
    assert len(list(_equiv.relabelings(i3, i3))) == 6
    c1, c2 = random_coboundary(i3, 3, 73), random_coboundary(i3, 3, 79)
    ext1, ext2 = Extension(i3, 3, c1), Extension(i3, 3, c2)
    assert extensions_equivalent(ext1, ext2) is not None
    assert [sum(args[2] is c for args in passes) for c in (c1, c2)] == [1, 1]
    assert extensions_equivalent(ext2, ext1) is not None
    assert len(passes) == 2
    assert extensions_equivalent(Extension(i3, 3), Extension(i3, 3)) is not None
    assert len(passes) == 2


SIGMA_LADDER = {
    "rook2": lambda: (rook_monoid(2), 2, False),
    "rook3": lambda: (rook_monoid(3), 2, False),
    "eqrel_01_23": lambda: (eqrel_monoid([(0, 1), (2, 3)]), 2, False),
    "product_rook2_rook2": lambda: (product_monoid(rook_monoid(2), rook_monoid(2)), 2, False),
    "rook3_twisted_k3": lambda: (rook_monoid(3), 3, True),
}


@pytest.mark.parametrize("name", sorted(SIGMA_LADDER))
def test_id_level_sigma_alpha_delta_match_element_level_reference(name, monkeypatch):
    """sigma on every (v, s) in G x S, alpha on every (s, t) in S x S and
    Delta on every v equal the element-level references (compose or meet,
    then the extension's multiply and dagger), and form no composition."""
    S, k, twisted = SIGMA_LADDER[name]()
    ext = Extension(S, k, random_coboundary(S, k, 3) if twisted else None)
    j = order_preserving_section(ext)
    ref_sigma = {(v, s): element_sigma(ext, j, v, s) for v in ext.elements for s in S}
    ref_delta = {v: element_delta(ext, j, v) for v in ext.elements}

    def forbidden(*args):
        raise AssertionError("compose called")

    patch_extension(monkeypatch, "compose", lambda real: forbidden)
    for v in ext.elements:
        assert delta(ext, j, v) == ref_delta[v], v
        for s in S:
            assert sigma(ext, j, v, s) == ref_sigma[(v, s)], (v, s)
    for s in S:
        for t in S:
            assert lausch_alpha(ext, j, s, t) == ref_sigma[(j[s], t)], (s, t)


@st.composite
def twisted_eqrel(draw):
    """An eqrel monoid on at most 5 atoms, in blocks of at most 3 (so |S|
    is at most 34 * 7 = 238), a phase order k and a random point
    coboundary table on it."""
    n = draw(st.integers(1, 5))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(3, n - sum(sizes)))))
    atoms = draw(st.permutations(range(n)))
    cuts = list(itertools.accumulate(sizes, initial=0))
    S = eqrel_monoid([tuple(sorted(atoms[a:b])) for a, b in zip(cuts, cuts[1:])])
    k = draw(st.integers(2, 3))
    pts = offdiag_points(S)
    phases = draw(st.lists(st.integers(0, k - 1), min_size=len(pts), max_size=len(pts)))
    return S, k, point_coboundary_table(S, k, dict(zip(pts, phases)))


@settings(max_examples=20, deadline=None)
@given(twisted_eqrel())
def test_point_coboundaries_are_trivial_and_equivalent(case):
    """cohomologous finds a witness for a point coboundary, the coboundary of
    that witness is the table again, and the twisted extension is
    equivalent to the untwisted one."""
    S, k, table = case
    witness = cohomologous(S, k, None, table)
    assert witness is not None
    assert coboundary_table(S, k, None, witness).entries == table.entries
    assert extensions_equivalent(Extension(S, k), Extension(S, k, table), guard=len(S)) is not None


def test_cocycle_check_keeps_only_the_composable_point_triples(i2):
    """On rook2 padded to 64 atoms, R has 66 points and a few dozen
    composable triples: validate_cocycle's peak stays below the 2 MB that a
    dense list of 64³ phase slots alone takes."""
    n = 64
    S = FiniteInverseMonoid(n, [PartialBijection(n, s.domain, s.image) for s in i2])
    table = point_coboundary_table(S, 3, {(0, 1): 1, (1, 0): 2})
    assert S.mul and S.images and S.domain_atoms  # the monoid's views, built before the measurement
    tracemalloc.start()
    try:
        report = validate_cocycle(S, 3, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < n**3 * 8
