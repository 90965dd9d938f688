"""The id-indexed cocycle loops against element-level reference versions.

``ref_validate_cocycle``, ``ref_cohomologous`` and ``ref_closure_witness``
are the compose-based implementations that the Cayley-table versions
replaced, kept here verbatim as oracles.  Reports must be equal, including
the order of ``violations``, and witnesses must be equal dicts.
"""

import random

import pytest

from cartanlab.errors import ClosureError, DomainError, FormatError
from cartanlab.extension import (
    CocycleReport,
    CocycleTable,
    _related_points,
    cohomologous,
    point_coboundary_table,
    trivial_cocycle,
    validate_cocycle,
)
from cartanlab.generators import eqrel_monoid, product_monoid, rook_monoid
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    bits,
    compose,
    dagger,
    singleton,
)


def ref_closure_witness(S):
    for s in S.elements:
        if dagger(s) not in S.index:
            return (s, "dagger", dagger(s))
    for s in S.elements:
        for t in S.elements:
            st = compose(s, t)
            if st not in S.index:
                return (s, t, st)
    return None


def ref_validate_cocycle(S, k, c):
    if c.k != k:
        raise FormatError(f"cocycle table has k={c.k}, expected {k}")
    violations = []
    supported = True
    for s in S:
        for t in S:
            st = compose(s, t)
            if not st.domain:
                if (s, t) in c.entries and c.entries[(s, t)]:
                    supported = False
                    violations.append(("support", s, t))
                continue
            arr = c.entry(s, t)
            if len(arr) != st.domain.bit_count() or any(not 0 <= p < k for p in arr):
                supported = False
                violations.append(("support", s, t))

    normalized = True
    for s in S:
        for t in S:
            if not (s.is_idempotent() or t.is_idempotent()):
                continue
            st = compose(s, t)
            if st.domain and any(c.entry(s, t)):
                normalized = False
                violations.append(("normalization", s, t))

    identity_holds = True
    for s in S:
        for t in S:
            for u in S:
                stu = compose(compose(s, t), u)
                if not stu.domain:
                    continue
                for y in bits(stu.domain):
                    lhs = c.entry_at(t, u, y) + c.entry_at(s, compose(t, u), y)
                    rhs = c.entry_at(s, t, u.apply(y)) + c.entry_at(compose(s, t), u, y)
                    if (lhs - rhs) % k:
                        identity_holds = False
                        violations.append(("identity", s, t, u))
                        break
    return CocycleReport(supported, normalized, identity_holds, violations)


def ref_cohomologous(S, k, c1, c2):
    pts = _related_points(S)
    singles = {}
    for x, y in pts:
        m = singleton(S.atom_count, y, x)
        if m not in S:
            raise DomainError("cohomologous needs a downward-closed monoid (singletons present)")
        singles[(x, y)] = m

    def diff(x, z, y):
        sa, sb = singles[(x, z)], singles[(z, y)]
        return (c2.entry_at(sa, sb, y) - c1.entry_at(sa, sb, y)) % k

    root = {}
    for x, y in pts:
        root.setdefault(y, min(z for (w, z) in pts if w == y))
    b_pts = {}
    for x, z in pts:
        r = root[z]
        b_pts[(x, z)] = diff(x, z, r)

    def b_at(s, atom):
        return b_pts[(s.apply(atom), atom)]

    for s in S:
        for t in S:
            st = compose(s, t)
            for y in bits(st.domain):
                want = (c2.entry_at(s, t, y) - c1.entry_at(s, t, y)) % k
                got = (b_at(s, t.apply(y)) + b_at(t, y) - b_at(st, y)) % k
                if want != got:
                    return None
    if any(b_pts[(x, y)] for x, y in pts if x == y):
        return None
    return {s: tuple(b_at(s, y) for y in bits(s.domain)) for s in S}


MONOIDS = {
    "rook2": lambda: rook_monoid(2),
    "rook3": lambda: rook_monoid(3),
    "eqrel 0,1|2": lambda: eqrel_monoid([(0, 1), (2,)]),
    "eqrel 0,1|2,3": lambda: eqrel_monoid([(0, 1), (2, 3)]),
    "eqrel 0,1|2|3": lambda: eqrel_monoid([(0, 1), (2,), (3,)]),
    "product rook2 rook2": lambda: product_monoid(rook_monoid(2), rook_monoid(2)),
}
# The element-level reference validator costs |S|^3 compose calls: a few
# seconds per table at |S| = 34 and more at |S| = 49.  So the many-table
# validate comparisons run on the small monoids, and each larger one is
# validated on one twisted table (and a tampered copy below |S| = 49).
SMALL = ("rook2", "eqrel 0,1|2")


@pytest.fixture(scope="module")
def monoids():
    return {name: build() for name, build in MONOIDS.items()}


def random_coboundary(S, k, rng):
    pts = sorted({(x, y) for s in S for x, y in s.pairs() if x != y})
    return point_coboundary_table(S, k, {p: rng.randrange(k) for p in pts})


def tampered(table, S, rng):
    """Bump the first phase of one entry whose factors are both non-idempotent."""
    entries = dict(table.entries)
    keys = [key for key in entries if not (key[0].is_idempotent() or key[1].is_idempotent())]
    key = rng.choice(keys)
    arr = entries[key]
    entries[key] = ((arr[0] + 1) % table.k,) + arr[1:]
    return CocycleTable(table.k, entries)


def twenty_coboundaries(monoids):
    """20 random point coboundaries spread over the ladder, k in {2, 3, 4}."""
    rng = random.Random(1409)
    names = list(MONOIDS)
    out = []
    for i in range(20):
        name = names[i % len(names)]
        k = rng.choice((2, 3, 4))
        out.append((name, k, random_coboundary(monoids[name], k, rng)))
    return out


def assert_same_report(S, k, table):
    new = validate_cocycle(S, k, table)
    old = ref_validate_cocycle(S, k, table)
    assert new == old
    return new


@pytest.mark.parametrize("name", SMALL)
def test_validate_parity_trivial(monoids, name):
    S = monoids[name]
    for k in (1, 2, 3):
        assert assert_same_report(S, k, trivial_cocycle(S, k)).passed


def test_product_rook2_rook2_is_eqrel_0_1_2_3(monoids):
    assert monoids["product rook2 rook2"] == monoids["eqrel 0,1|2,3"]


@pytest.mark.parametrize("name", [n for n in MONOIDS if n != "product rook2 rook2"])
def test_validate_parity_twisted_and_tampered(monoids, name):
    S = monoids[name]
    rng = random.Random(name)
    k = 3
    c = random_coboundary(S, k, rng)
    assert assert_same_report(S, k, c).passed
    if len(S) < 49:
        rep = assert_same_report(S, k, tampered(c, S, rng))
        assert not rep.identity_holds and rep.violations


def test_validate_parity_random_coboundaries(monoids):
    for name, k, c in twenty_coboundaries(monoids):
        if name in SMALL:
            assert assert_same_report(monoids[name], k, c).passed


def test_validate_parity_flipped_and_tampered_rook2(i2, named2):
    swap, t01 = named2["swap"], named2["t01"]
    flipped = dict(trivial_cocycle(i2, 2).entries)
    flipped[(swap, swap)] = (1, 0)
    rep = assert_same_report(i2, 2, CocycleTable(2, flipped))
    assert ("identity", swap, swap, swap) in rep.violations

    bumped = dict(trivial_cocycle(i2, 2).entries)
    bumped[(t01, swap)] = tuple((p + 1) % 2 for p in bumped[(t01, swap)])
    assert not assert_same_report(i2, 2, CocycleTable(2, bumped)).identity_holds


def test_validate_parity_support_and_normalization(monoids):
    S = monoids["eqrel 0,1|2"]
    entries = dict(trivial_cocycle(S, 3).entries)
    entries[(S.zero, S.one)] = (1,)  # phases on an empty product
    entries[(S.one, S.one)] = (0, 4, 1)  # out of range, and not normalized
    rep = assert_same_report(S, 3, CocycleTable(3, entries))
    assert not rep.supported and not rep.normalized


def test_missing_entry_raises_like_reference(i3):
    entries = dict(trivial_cocycle(i3, 2).entries)
    del entries[max(entries, key=lambda st: (i3.index[st[0]], i3.index[st[1]]))]
    table = CocycleTable(2, entries)
    with pytest.raises(FormatError) as new:
        validate_cocycle(i3, 2, table)
    with pytest.raises(FormatError) as old:
        ref_validate_cocycle(i3, 2, table)
    assert str(new.value) == str(old.value)


def test_cohomologous_parity(monoids):
    rng = random.Random(47)
    cobs = twenty_coboundaries(monoids)
    for name, k, c in cobs:
        S = monoids[name]
        zero = trivial_cocycle(S, k)
        witness = cohomologous(S, k, zero, c)
        assert witness is not None
        assert witness == ref_cohomologous(S, k, zero, c)
        assert list(witness) == S.elements
        other = random_coboundary(S, k, rng)
        assert cohomologous(S, k, other, c) == ref_cohomologous(S, k, other, c)
        bad = tampered(c, S, rng)
        assert cohomologous(S, k, zero, bad) is None
        assert ref_cohomologous(S, k, zero, bad) is None


def test_cohomologous_parity_trivial_and_rook2_tables(monoids, i2, named2):
    for S in monoids.values():
        for k in (1, 2, 3):
            zero = trivial_cocycle(S, k)
            assert cohomologous(S, k, zero, zero) == ref_cohomologous(S, k, zero, zero)
    swap, t01 = named2["swap"], named2["t01"]
    zero = trivial_cocycle(i2, 2)
    for key, arr in (((swap, swap), (1, 0)), ((t01, swap), (1,))):
        entries = dict(zero.entries)
        entries[key] = arr
        bad = CocycleTable(2, entries)
        assert cohomologous(i2, 2, zero, bad) is None
        assert ref_cohomologous(i2, 2, zero, bad) is None


def test_cayley_table_matches_compose(monoids):
    for S in monoids.values():
        els = S.elements
        for i, s in enumerate(els):
            assert els[S.inv[i]] == dagger(s)
            for j, t in enumerate(els):
                assert els[S.mul[i][j]] == compose(s, t)
        assert ref_closure_witness(S) is None and S.closure_witness() is None


def test_mul_on_non_closed_monoid_raises_with_reference_witness():
    swap = PartialBijection(2, 0b11, (1, 0))
    t01 = singleton(2, 0, 1)
    S = FiniteInverseMonoid(2, [swap, t01])  # the test_classify_closure_error monoid
    assert S.closure_witness() == ref_closure_witness(S) == (t01, "dagger", dagger(t01))
    first_product = next(
        (s, t, compose(s, t)) for s in S for t in S if compose(s, t) not in S
    )
    with pytest.raises(ClosureError) as exc:
        S.mul
    assert exc.value.witness == first_product

    # dagger closed, not product closed: the product witness comes first
    S = FiniteInverseMonoid(2, [singleton(2, 0, 1), singleton(2, 1, 0)])
    with pytest.raises(ClosureError) as exc:
        S.mul
    assert exc.value.witness == ref_closure_witness(S) == S.closure_witness()
