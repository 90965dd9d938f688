import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab.errors import ClosureError, OrthogonalityError, StructuralError
from cartanlab.exact_library import meet, meet_complement, orthogonal_join
from cartanlab.extension import Extension
from cartanlab.generators import eqrel_monoid, rook_monoid
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    classify,
    compose,
    dagger,
    identity_map,
    natural_leq,
    partial_identity,
    singleton,
    zero_map,
)

from exact_reference import leech_idempotent, munn_quotient


@st.composite
def partial_bijections(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4))
    atoms = list(range(n))
    dom = draw(st.lists(st.sampled_from(atoms), unique=True, max_size=n))
    image = draw(st.permutations(atoms))
    dom = sorted(dom)
    img = tuple(image[: len(dom)])
    mask = 0
    for a in dom:
        mask |= 1 << a
    return PartialBijection(n, mask, img)


@st.composite
def triples(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return tuple(draw(partial_bijections(n=n)) for _ in range(3))


@settings(max_examples=200, deadline=None)
@given(triples())
def test_compose_associative_and_dagger_antihomomorphism(sts):
    s, t, u = sts
    assert compose(compose(s, t), u) == compose(s, compose(t, u))
    assert dagger(compose(s, t)) == compose(dagger(t), dagger(s))
    assert dagger(dagger(s)) == s


@settings(max_examples=200, deadline=None)
@given(triples())
def test_leech_identity(sts):
    s, t, _ = sts
    f = leech_idempotent(s, t)
    m = meet(s, t)
    assert m == compose(s, f) == compose(t, f)
    assert compose(dagger(m), m) == f
    # f is the fixed-point idempotent of s^dag t
    sdt = compose(dagger(s), t)
    assert f == meet(sdt, identity_map(s.n))


@settings(max_examples=200, deadline=None)
@given(triples())
def test_natural_order_is_restriction(sts):
    s, t, _ = sts
    leq = natural_leq(s, t)
    as_restriction = s == t.restrict(s.domain)
    assert leq == as_restriction
    if leq:
        # s = t.e for the source idempotent of s
        e = compose(dagger(s), s)
        assert s == compose(t, e)


@settings(max_examples=150, deadline=None)
@given(triples())
def test_meet_complement_partition(sts):
    s, t, _ = sts
    m = meet(s, t)
    rest = meet_complement(s, t)
    assert meet(m, rest).is_zero()
    if not (m.is_zero() and rest.is_zero()):
        parts = [p for p in (m, rest) if not p.is_zero()]
        assert orthogonal_join(parts) == s


def test_compose_examples(named2):
    assert compose(identity_map(2), named2["swap"]) == named2["swap"]
    assert compose(named2["t01"], named2["t10"]) == named2["e1"]
    assert compose(named2["t01"], named2["t01"]).is_zero()


def test_compose_atom_mismatch():
    with pytest.raises(StructuralError):
        compose(identity_map(2), identity_map(3))


def test_dagger_examples(named2):
    for e in ("zero", "e0", "e1", "one"):
        assert dagger(named2[e]) == named2[e]
    assert dagger(named2["t01"]) == named2["t10"]
    assert dagger(named2["swap"]) == named2["swap"]


def test_natural_leq_examples(named2):
    assert all(natural_leq(named2["zero"], t) for t in named2.values())
    assert natural_leq(named2["e0"], named2["one"])
    assert natural_leq(named2["t01"], named2["swap"])
    assert not natural_leq(named2["swap"], named2["t01"])


def test_meet_examples(named2):
    for s in named2.values():
        assert meet(s, s) == s
    assert meet(named2["one"], named2["swap"]).is_zero()
    assert meet(named2["t01"], named2["swap"]) == named2["t01"]


def test_orthogonal_join_examples(named2):
    assert orthogonal_join([named2["e0"], named2["e1"]]) == named2["one"]
    assert orthogonal_join([named2["t01"], named2["t10"]]) == named2["swap"]
    with pytest.raises(OrthogonalityError):
        orthogonal_join([named2["t01"], named2["e0"]])


def test_order_isomorphism_below_element(i3):
    """t -> s^dag t is an order bijection of {t <= s} onto {e <= s^dag s},
    preserving meets and existing joins."""
    for s in i3:
        below = [t for t in i3 if natural_leq(t, s)]
        src = compose(dagger(s), s)
        idems_below = [e for e in i3.idempotents() if natural_leq(e, src)]
        tau = {t: compose(dagger(s), t) for t in below}
        assert sorted(tau.values(), key=lambda e: e.domain) == sorted(
            idems_below, key=lambda e: e.domain
        )
        assert len(set(tau.values())) == len(below)
        for t1, t2 in itertools.combinations(below, 2):
            assert tau[t1].restrict(tau[t2].domain) == meet(tau[t1], tau[t2])
            assert meet(tau[t1], tau[t2]) == tau[meet(t1, t2)]


def test_meet_distributes_over_restriction(i2):
    for s in i2:
        for e1 in i2.idempotents():
            for e2 in i2.idempotents():
                lhs = meet(compose(s, e1), compose(s, e2))
                rhs = compose(s, meet(e1, e2))
                assert lhs == rhs


def test_monoid_materializes_constants():
    S = FiniteInverseMonoid(2, [partial_identity(2, 0b01)])
    assert len(S.added) == 2
    assert zero_map(2) in S and identity_map(2) in S


def test_canonical_ordering(i2):
    keys = [(s.domain, s.image) for s in i2]
    assert keys == sorted(keys)


def test_classify_rook2(i2):
    rep = classify(i2)
    assert rep.inverse_monoid and rep.fundamental and not rep.clifford
    assert len(rep.idempotents) == 4


def test_classify_two_element_monoid():
    S = FiniteInverseMonoid(1, [zero_map(1), identity_map(1)])
    rep = classify(S)
    assert rep.fundamental and rep.clifford


def test_classify_idempotent_chain_is_fundamental():
    # {0, e0, 1} on two atoms: E(S) = S, centralizer of E within S equals E
    S = FiniteInverseMonoid(2, [zero_map(2), partial_identity(2, 0b01), identity_map(2)])
    rep = classify(S)
    assert rep.fundamental and rep.clifford


def test_classify_closure_error():
    swap = PartialBijection(2, 0b11, (1, 0))
    t01 = singleton(2, 0, 1)
    S = FiniteInverseMonoid(2, [swap, t01])  # not closed: t01 dagger missing
    with pytest.raises(ClosureError):
        classify(S)


def test_munn_quotient_trivial_phases(i2):
    ext = Extension(i2, 1)
    S, q = munn_quotient(ext.elements, ext.multiply, ext.dagger)
    assert S == i2
    assert all(q[v] == v.bij for v in ext.elements)


def test_munn_quotient_of_doubled_extension(i2):
    ext = Extension(i2, 2)
    G = ext.elements
    assert len(G) == 17  # 1 + 4*2 + 2*4
    S, q = munn_quotient(G, ext.multiply, ext.dagger)
    assert len(S) == 7
    fibers = {}
    for v in G:
        fibers.setdefault(q[v], []).append(v)
    for s, fib in fibers.items():
        assert len(fib) == 2 ** s.domain.bit_count()
    # q is a homomorphism, exhaustively
    for v in G:
        for w in G:
            assert q[ext.multiply(v, w)] == compose(q[v], q[w])


def test_munn_quotient_output_fundamental(i2, i3):
    for S0, k in ((i2, 2), (i3, 2)):
        ext = Extension(S0, k)
        S, _ = munn_quotient(ext.elements, ext.multiply, ext.dagger)
        assert classify(S).fundamental


def test_rook_sizes(i2, i3):
    # independent enumeration: sum over domain sizes of C(n,d)^2 d!
    import math

    def count(n):
        return sum(
            math.comb(n, d) ** 2 * math.factorial(d) for d in range(n + 1)
        )

    assert len(i2) == count(2) == 7
    assert len(i3) == count(3) == 34
    brute = set()
    for d in range(4):
        for dom in itertools.combinations(range(3), d):
            for img in itertools.permutations(range(3), d):
                mask = 0
                for a in dom:
                    mask |= 1 << a
                brute.add(PartialBijection(3, mask, img))
    assert brute == set(rook_monoid(3).elements)


def test_hash_is_cached_and_value_semantics_unchanged(i3):
    for s in i3:
        twin = PartialBijection(s.n, s.domain, tuple(s.image))
        assert twin is not s and twin == s and hash(twin) == hash(s)
        assert hash(s) == hash((s.n, s.domain, s.image))
        assert not (twin < s) and not (s < twin)
        assert repr(twin) == repr(s)
        phases = tuple(range(s.domain.bit_count()))
        v, w = PhasedElement(s, phases), PhasedElement(twin, tuple(phases))
        assert v is not w and v == w and hash(v) == hash(w) == hash((s, phases))
        assert repr(v) == repr(w)
        if phases:
            assert v != PhasedElement(s, (1,) + phases[1:])
    assert {PartialBijection(3, 0b011, (1, 0))} == {PartialBijection(3, 0b011, (1, 0))}
    assert PartialBijection(3, 0b011, (1, 0)) != (3, 0b011, (1, 0))


@pytest.mark.parametrize("field", ["n", "domain", "image", "graph"])
def test_partial_bijection_fields_are_read_only(field):
    s = PartialBijection(3, 0b011, (1, 0))
    with pytest.raises(AttributeError):
        setattr(s, field, getattr(s, field))
    with pytest.raises(AttributeError):
        delattr(s, field)
    assert s == PartialBijection(3, 0b011, (1, 0)) and s.graph == 0b000_001_010


@pytest.mark.parametrize("field", ["bij", "phases"])
def test_phased_element_fields_are_read_only(field):
    v = PhasedElement(singleton(2, 0, 1), (1,))
    with pytest.raises(AttributeError):
        setattr(v, field, getattr(v, field))
    assert v == PhasedElement(singleton(2, 0, 1), (1,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: PartialBijection(0, 0, ()),
        lambda: PartialBijection(2, 0b100, (0,)),
        lambda: PartialBijection(2, 0b11, (0,)),
        lambda: PartialBijection(2, 0b01, (2,)),
        lambda: PartialBijection(2, 0b11, (1, 1)),
        lambda: PhasedElement(identity_map(2), (0,)),
    ],
    ids=["no_atoms", "domain_too_wide", "image_too_short", "image_out_of_range", "not_injective", "phase_count"],
)
def test_invalid_elements_raise_structural_error(build):
    with pytest.raises(StructuralError):
        build()


def test_rook3_element_order_unchanged(i3):
    els = i3.elements
    assert len(els) == 34
    assert els == sorted(els) == sorted(els, key=lambda s: (s.domain, s.image))
    assert FiniteInverseMonoid(3, reversed(els)).elements == els
    assert [repr(s) for s in els[:5]] == [
        "<0 on 3>", "<0>0 on 3>", "<0>1 on 3>", "<0>2 on 3>", "<1>0 on 3>"
    ]


def test_meet_identities(i3):
    for S in (i3, eqrel_monoid([(0, 1), (2, 3)])):
        for s in S:
            for t in S:
                m = meet(s, t)
                f = leech_idempotent(s, t)
                assert m == compose(s, f) == compose(t, f)
                assert compose(dagger(m), m) == f
