import itertools
import random

import pytest

from cartanlab.errors import DomainError, FormatError
from cartanlab.extension import (
    CocycleTable,
    Extension,
    Section,
    cohomologous,
    coboundary_table,
    delta,
    extensions_equivalent,
    g_meet,
    g_natural_leq,
    is_trivial_cocycle,
    lausch_alpha,
    order_preserving_section,
    point_coboundary_table,
    point_cocycle_table,
    sigma,
    trivial_cocycle,
    validate_cocycle,
    validate_section,
)
from cartanlab.generators import rook_monoid
from cartanlab.semigroup_core import (
    PhasedElement,
    compose,
    dagger,
    meet,
    natural_leq,
    with_zero_phases,
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
            witness = is_trivial_cocycle(i2, 2, table)
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
