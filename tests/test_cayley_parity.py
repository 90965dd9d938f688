"""The id-indexed cocycle loops against element-level reference versions.

``ref_validate_cocycle``, ``ref_cohomologous``, ``ref_closure_witness``,
``ref_multiply``, ``ref_dagger``, ``ref_mul``, ``ref_order_preserving_section``,
``ref_validate_section`` and ``ref_extensions_equivalent`` are the
compose-based implementations that the id-level versions replaced, kept
here as oracles (the section references call ``ref_multiply``/``ref_dagger``
where the originals called the extension's methods).  Reports must be
equal, including the order of ``violations``, and witnesses must be equal
dicts.  The last tests pin the point decisions: passing inputs never enter
the id-level loops, and each failing point condition enters them and gets
the reference's report.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab._twist import _rank
from cartanlab.cli import main
from cartanlab.errors import ClosureError, DomainError, FormatError, InvariantViolation
from cartanlab.exact_library import meet
from cartanlab.extension import (
    CocycleReport,
    CocycleTable,
    Extension,
    Section,
    SectionReport,
    cohomologous,
    extensions_equivalent,
    order_preserving_section,
    point_coboundary_table,
    point_cocycle_table,
    validate_cocycle,
    validate_section,
)
from cartanlab.generators import eqrel_monoid, product_monoid, rook_monoid
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    bits,
    compose,
    conjugate,
    dagger,
    natural_leq,
    partial_identity,
    relabelings,
    singleton,
    with_zero_phases,
)

from exact_reference import g_meet, g_natural_leq, inflated, inverse_apply, patch_extension, trivial_cocycle


def ref_mul(S):
    """The Cayley table built through compose, raising the first missing
    product (s, t, st) in element order."""
    out = []
    for s in S.elements:
        row = []
        for t in S.elements:
            st = compose(s, t)
            if st not in S.index:
                raise ClosureError((s, t, st))
            row.append(S.index[st])
        out.append(row)
    return out


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
    pts = sorted({(x, y) for s in S for x, y in s.pairs()})
    singles = {}
    for x, y in pts:
        m = singleton(S.atom_count, y, x)
        if m not in S:
            raise DomainError(
                f"the coboundary needs a downward-closed monoid, but the one-point map {m} "
                f"(point {(x, y)} of R) is not an element"
            )
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


@functools.lru_cache(maxsize=8)
def _zero_table(S, k):
    return trivial_cocycle(S, k)


def ref_table(ext):
    """The extension's cocycle table, materialized: the trivial twist
    (``ext.cocycle is None``) reads as ``trivial_cocycle``."""
    return _zero_table(ext.S, ext.k) if ext.cocycle is None else ext.cocycle


def ref_multiply(ext, v, w):
    st = compose(v.bij, w.bij)
    if not st.domain:
        return PhasedElement(st, ())
    c_arr = ref_table(ext).entry(v.bij, w.bij)
    phases = tuple(
        (v.phase_at(w.bij.apply(y)) + w.phase_at(y) + c) % ext.k
        for y, c in zip(bits(st.domain), c_arr)
    )
    return PhasedElement(st, phases)


def ref_dagger(ext, v):
    s = v.bij
    sd = dagger(s)
    c_ssd = ref_table(ext).entry(s, sd)  # over dom(s s^dag) = range(s)
    phases = tuple(
        (-v.phase_at(inverse_apply(s, z)) - c_ssd[_rank(s.range_mask, z)]) % ext.k
        for z in bits(sd.domain)
    )
    return PhasedElement(sd, phases)


def ref_order_preserving_section(ext):
    S, k = ext.S, ext.k
    try:
        witness = ref_cohomologous(S, k, trivial_cocycle(S, k), ref_table(ext))
    except DomainError:
        witness = None
    else:
        if witness is None:
            raise DomainError("cocycle table is not a coboundary")

    def base_lift(s):
        if witness is None:
            return with_zero_phases(s)
        return PhasedElement(s, tuple((-p) % k for p in witness[s]))

    j = {}
    for e in S.idempotents():
        j[e] = with_zero_phases(e)

    B = [S.one]
    for s in S:
        if s.is_zero() or s == S.one:
            continue
        if all(meet(s, b).is_zero() for b in B):
            B.append(s)

    for s in B:
        src = compose(dagger(s), s)
        lift = base_lift(s)
        for e in S.idempotents():
            if natural_leq(e, src):
                se = compose(s, e)
                val = ref_multiply(ext, lift, j[e])
                if se in j and j[se] != val:
                    raise DomainError(f"inconsistent section assignment at {se}")
                j[se] = val

    for t in S:
        if t in j:
            continue
        w = with_zero_phases(t)
        w_dag = ref_dagger(ext, w)
        phase_by_atom = {}
        for s in B:
            m = meet(t, s)
            if m.is_zero():
                continue
            h_s = ref_multiply(ext, w_dag, j[m])
            for y in bits(h_s.bij.domain):
                if y in phase_by_atom:
                    raise InvariantViolation(f"glued supports overlap at atom {y} for {t}")
                phase_by_atom[y] = h_s.phase_at(y)
        if set(phase_by_atom) != set(bits(t.domain)):
            raise InvariantViolation(f"glued supports do not cover dom({t})")
        h = PhasedElement(
            partial_identity(S.atom_count, t.domain),
            tuple(phase_by_atom[y] % k for y in bits(t.domain)),
        )
        j[t] = ref_multiply(ext, w, h)

    return Section(j)


def ref_validate_section(ext, j):
    S = ext.S
    for s in S:
        if s not in j.values or j[s].bij != s:
            raise DomainError(f"not a section at {s}")

    witnesses = {}
    unit_ok = j[S.one] == ext.unit

    cond_a = unit_ok
    if cond_a:
        for s in S:
            for t in S:
                if natural_leq(s, t) and not g_natural_leq(j[s], j[t]):
                    cond_a = False
                    witnesses["a"] = (s, t)
                    break
            if not cond_a:
                break

    cond_b = True
    idem = S.idempotents()
    els, mul = S.elements, S.mul
    for e in idem:
        mul_e = mul[S.index[e]]
        left = [ref_multiply(ext, j[e], j[s]) for s in els]  # j(e) j(s), reused for every f
        for f in idem:
            i_f = S.index[f]
            for i, s in enumerate(els):
                lhs = j[els[mul[mul_e[i]][i_f]]]
                rhs = ref_multiply(ext, left[i], j[f])
                if lhs != rhs:
                    cond_b = False
                    witnesses["b"] = (e, s, f)
                    break
            if not cond_b:
                break
        if not cond_b:
            break

    cond_c = unit_ok
    if cond_c:
        for s in S:
            for t in S:
                if j[meet(s, t)] != g_meet(j[s], j[t]):
                    cond_c = False
                    witnesses["c"] = (s, t)
                    break
            if not cond_c:
                break

    return SectionReport(True, cond_a, cond_b, cond_c, witnesses)


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
    assert rep != CocycleReport(rep.supported, rep.normalized, rep.identity_holds, rep.violations[1:])

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


def ref_extensions_equivalent(ext1, ext2):
    """The search that ``extensions_equivalent`` replaced: per relabeling,
    the first table transported onto S2 and a coboundary solved from the
    second table to it; the first relabeling with one gives the witness."""
    S1, S2, k = ext1.S, ext2.S, ext1.k
    c1, c2 = ref_table(ext1), ref_table(ext2)
    for perm, theta in relabelings(S1, S2):
        inv = [perm.index(i) for i in range(S1.atom_count)]
        moved = {}
        for (s, t), arr in c1.entries.items():
            dom1, dom2 = compose(s, t).domain, compose(theta[s], theta[t]).domain
            moved[(theta[s], theta[t])] = tuple(arr[_rank(dom1, inv[y])] for y in bits(dom2))
        beta = ref_cohomologous(S2, k, c2, CocycleTable(k, moved))
        if beta is None:
            continue
        alpha = {}
        for v in ext1.elements:
            s2 = theta[v.bij]
            alpha[v] = PhasedElement(
                s2, tuple((v.phase_at(inv[y]) + beta[s2][_rank(s2.domain, y)]) % k for y in bits(s2.domain))
            )
        return perm, theta, alpha
    return None


def test_equivalence_witness_parity(monoids):
    """On the ladder's pairs (twisted against twisted, against its relabeled
    twin and against the trivial twist, and rook2 x rook2 against eqrel
    0,1|2,3) the witnesses' difference gives the search's verdict,
    permutation and alpha; against a tampered table both find none."""
    rng = random.Random(23)
    pairs = []
    for name, k, perm in (("rook2", 3, (1, 0)), ("rook3", 3, (2, 0, 1)), ("eqrel 0,1|2,3", 2, (2, 0, 3, 1))):
        S = monoids[name]
        twin = FiniteInverseMonoid(S.atom_count, [conjugate(s, perm) for s in S])
        a, b = Extension(S, k, random_coboundary(S, k, rng)), Extension(twin, k, random_coboundary(twin, k, rng))
        pairs += [(a, b), (b, a), (a, Extension(S, k)), (Extension(S, k), a), (a, a)]
        pairs.append((a, Extension(S, k, tampered(a.cocycle, S, rng))))
    pairs.append((Extension(monoids["product rook2 rook2"], 1), Extension(monoids["eqrel 0,1|2,3"], 1)))
    verdicts = []
    for ext1, ext2 in pairs:
        want = ref_extensions_equivalent(ext1, ext2)
        assert extensions_equivalent(ext1, ext2, guard=len(ext1.S)) == want
        verdicts.append(want is not None)
    assert verdicts == ([True] * 5 + [False]) * 3 + [True]


def test_cayley_table_matches_compose(monoids):
    for S in monoids.values():
        els = S.elements
        for i, s in enumerate(els):
            assert els[S.inv[i]] == dagger(s)
            for j, t in enumerate(els):
                assert els[S.mul[i][j]] == compose(s, t)
        assert ref_closure_witness(S) is None and S.closure_witness() is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: rook_monoid(2),
        lambda: rook_monoid(3),
        lambda: rook_monoid(4),
        lambda: eqrel_monoid([(0, 1), (2, 3)]),
        lambda: eqrel_monoid([(0, 1, 2), (3,), (4,)]),
        lambda: product_monoid(rook_monoid(2), rook_monoid(2)),
        # the test_classify_closure_error monoid, then a dagger-closed one
        # that is not product closed
        lambda: FiniteInverseMonoid(2, [PartialBijection(2, 0b11, (1, 0)), singleton(2, 0, 1)]),
        lambda: FiniteInverseMonoid(3, [singleton(3, 0, 1), singleton(3, 1, 0), singleton(3, 1, 2), singleton(3, 2, 1)]),
    ],
    ids=["rook2", "rook3", "rook4", "eqrel_01_23", "eqrel_012_3_4", "product_rook2_rook2", "not_closed", "not_closed_3"],
)
def test_mul_matches_compose_built_reference(build):
    S = build()
    try:
        ref = ref_mul(S)
    except ClosureError as exc:
        with pytest.raises(ClosureError) as got:
            S.mul
        assert got.value.witness == exc.witness
    else:
        assert S.mul == ref


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


def section_cases(monoids):
    """(label, extension): rook2 k=2, twisted rook3 k=3, eqrel 0,1|2,3 k=2
    and product(rook2, rook2), each once trivial and once twisted."""
    rng = random.Random(1982)
    out = []
    for name, k in (("rook2", 2), ("rook3", 3), ("eqrel 0,1|2,3", 2), ("product rook2 rook2", 2)):
        S = monoids[name]
        out.append((f"{name} trivial", Extension(S, k)))
        out.append((f"{name} twisted", Extension(S, k, random_coboundary(S, k, rng))))
    return out


def test_section_parity(monoids):
    for label, ext in section_cases(monoids):
        j = order_preserving_section(ext)
        assert j == ref_order_preserving_section(ext), label
        rep = validate_section(ext, j)
        assert rep == ref_validate_section(ext, j), label
        assert rep.passed, label


def test_section_is_minus_the_witness_and_the_glued_section(monoids):
    """The section read off the coboundary witness, j(s) = (s, -b(s)), is
    the one the paper's gluing construction returns: on the section cases,
    and on random point coboundaries over rook2, rook3 and eqrel 0,1|2.
    Inflated by blocks of 2 and 3, the monoids hold no one-point map, where
    the reference falls back to zero lifts; the section is still -b, and
    homomorphic.  The check of each gives the reference's report."""
    cases = [(label, ext, 1) for label, ext in section_cases(monoids)]
    rng = random.Random(1409)
    for name in ("rook2", "rook3", "eqrel 0,1|2"):
        for m in (1, 2, 3):
            S = inflated(monoids[name], m)
            for _ in range(2 if m == 1 else 5):
                k = rng.choice((2, 3, 4))
                cases.append((f"{name} inflated by {m}, k={k}", Extension(S, k, random_coboundary(S, k, rng)), m))
    assert sum(m > 1 for *_, m in cases) == 30
    for label, ext, m in cases:
        j = order_preserving_section(ext)
        if m == 1:
            assert j == ref_order_preserving_section(ext), label
        b = ext.coboundary
        lifts = {s: PhasedElement(s, tuple(-b[i][y] % ext.k for y in bits(s.domain))) for i, s in enumerate(ext.S)}
        assert j.values == lifts, label
        rep = validate_section(ext, j)
        assert rep == ref_validate_section(ext, j) and rep.passed, label


@st.composite
def inflated_twists(draw):
    """An eqrel monoid on at most 4 atoms, in blocks of at most 3, inflated
    by blocks of 1 to 3 points (none of its one-point maps for 2 and 3), a
    phase order k, a random point coboundary table on it and a seeded
    random source."""
    n = draw(st.integers(1, 4))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(3, n - sum(sizes)))))
    atoms = draw(st.permutations(range(n)))
    cuts = list(itertools.accumulate(sizes, initial=0))
    S = inflated(eqrel_monoid([tuple(sorted(atoms[a:b])) for a, b in zip(cuts, cuts[1:])]), draw(st.integers(1, 3)))
    k = draw(st.integers(2, 3))
    pts = [p for p in S.points if p[0] != p[1]]
    phases = draw(st.lists(st.integers(0, k - 1), min_size=len(pts), max_size=len(pts)))
    return S, k, point_coboundary_table(S, k, dict(zip(pts, phases))), draw(st.randoms(use_true_random=False))


@settings(max_examples=20, deadline=None)
@given(inflated_twists())
def test_inflated_point_coboundaries(case):
    """A point coboundary on an inflated eqrel monoid passes the cocycle
    check and has a coboundary witness b; the section is -b and passes with
    the reference's report; the extension is equivalent to the untwisted
    one; and the product and inverse agree with the references on sampled
    elements."""
    S, k, table, rng = case
    ext = Extension(S, k, table)
    assert validate_cocycle(S, k, table).passed
    b = ext.coboundary
    assert b is not None
    j = order_preserving_section(ext)
    assert j.values == {s: PhasedElement(s, tuple(-b[i][y] % k for y in bits(s.domain))) for i, s in enumerate(S)}
    rep = validate_section(ext, j)
    assert rep == ref_validate_section(ext, j) and rep.passed
    assert extensions_equivalent(Extension(S, k), ext, guard=len(S)) is not None

    def sample():
        s = rng.choice(S.elements)
        return PhasedElement(s, tuple(rng.randrange(k) for _ in bits(s.domain)))

    for _ in range(20):
        v, w = sample(), sample()
        assert ext.multiply(v, w) == ref_multiply(ext, v, w)
        assert ext.dagger(v) == ref_dagger(ext, v)


def test_section_parity_bumped_lifts(monoids):
    """Bumping the first phase of one non-idempotent lift breaks all three
    conditions, with the reference's witnesses."""
    S = monoids["rook3"]
    ext = Extension(S, 3, random_coboundary(S, 3, random.Random(3)))
    j = order_preserving_section(ext)
    bumped = 0
    for s in S:
        if s.is_idempotent():
            continue
        values = dict(j.values)
        v = values[s]
        values[s] = PhasedElement(s, ((v.phases[0] + 1) % 3,) + v.phases[1:])
        mutated = Section(values)
        rep = validate_section(ext, mutated)
        assert rep == ref_validate_section(ext, mutated), s
        assert not (rep.cond_a or rep.cond_b or rep.cond_c), s
        assert set(rep.witnesses) == {"a", "b", "c"}
        assert rep != SectionReport(True, False, False, False), s  # the witnesses compare too
        bumped += 1
    assert bumped == len(S) - len(S.idempotents())


def test_section_parity_unit_and_wrong_bijection(monoids):
    S = monoids["rook2"]
    ext = Extension(S, 2)
    j = order_preserving_section(ext)
    values = dict(j.values)
    values[S.one] = PhasedElement(S.one, (1, 0))
    rep = validate_section(ext, Section(values))
    assert rep == ref_validate_section(ext, Section(values))
    assert not rep.cond_a and not rep.cond_c

    swap = PartialBijection(2, 0b11, (1, 0))
    values = dict(j.values)
    values[swap] = with_zero_phases(S.one)  # a lift with the wrong bijection
    for check in (validate_section, ref_validate_section):
        with pytest.raises(DomainError, match="not a section"):
            check(ext, Section(values))


def test_section_check_needs_meets_in_the_monoid(tmp_path, capsys):
    """{0, 1, (0 1)} on three atoms is closed but lacks the meet of (0 1)
    and 1 (the identity on atom 2): checking a section raises DomainError,
    where the references fail with a KeyError, and the section command
    exits 2 naming the missing meet."""
    swap = PartialBijection(3, 0b111, (1, 0, 2))
    S = FiniteInverseMonoid(3, [swap])
    ext = Extension(S, 2)
    j = Section({s: with_zero_phases(s) for s in S})
    with pytest.raises(DomainError, match="meet"):
        validate_section(ext, j)
    with pytest.raises(KeyError):
        ref_validate_section(ext, j)
    with pytest.raises(KeyError):
        ref_order_preserving_section(ext)
    doc = tmp_path / "swap.json"
    doc.write_text('{"atoms": 3, "k": 2, "elements": [{"name": "swap", "map": {"0": 1, "1": 0, "2": 2}}]}')
    assert main(["section", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: the meet of ") and "is not an element" in err


@pytest.mark.parametrize("name", ["rook2", "rook3"])
def test_products_and_daggers_match_reference(monoids, name):
    S = monoids[name]
    for ext in (Extension(S, 2), Extension(S, 2, random_coboundary(S, 2, random.Random(name)))):
        G = ext.elements
        for v in G:
            assert ext.dagger(v) == ref_dagger(ext, v)
            for w in G:
                assert ext.multiply(v, w) == ref_multiply(ext, v, w)


def test_zero_table_section_skips_search_and_keeps_closure_error(monkeypatch):
    """All-zero tables take the zero witness without the coboundary search;
    a monoid that is not closed still raises ClosureError with the first
    missing product."""
    S = rook_monoid(3)
    ext = Extension(S, 3)
    expected = ref_order_preserving_section(ext)

    def no_search(*args):
        raise AssertionError("cohomologous called on an all-zero table")

    for name in ("cohomologous", "_point_pass"):
        patch_extension(monkeypatch, name, lambda real: no_search)
    assert order_preserving_section(ext) == expected
    assert all(not any(v.phases) for _, v in expected.items())

    dropped = PartialBijection(3, 0b111, (1, 0, 2))
    T = FiniteInverseMonoid(3, [s for s in S if s != dropped])
    assert ref_closure_witness(T)[2] == dropped
    ext = Extension(T, 2)
    with pytest.raises(ClosureError) as exc:
        order_preserving_section(ext)
    assert exc.value.witness == ref_closure_witness(T)


# The point decisions: validate_cocycle and validate_section pass from
# point-level checks and run their id-level loops only to list witnesses.


def _forbid(monkeypatch, *names):
    """Make the module functions ``names`` raise when called, in every part
    of the extension API that binds them."""

    def refuse(*args):
        raise AssertionError(f"one of {names} was called")

    for name in names:
        patch_extension(monkeypatch, name, lambda real: refuse)


def _spy(monkeypatch, name):
    """Record each call of the module function ``name``, from every part of
    the extension API that binds it, and run it."""
    calls = []

    def make(real):
        def spy(*args):
            calls.append(args)
            return real(*args)

        return spy

    patch_extension(monkeypatch, name, make)
    return calls


def test_passing_tables_and_sections_skip_the_id_loops(monoids, monkeypatch):
    rook4 = rook_monoid(4)
    cases = section_cases(monoids)
    cases.append(("rook4 twisted", Extension(rook4, 2, random_coboundary(rook4, 2, random.Random(4)))))
    sections = [(label, ext, order_preserving_section(ext)) for label, ext in cases]
    _forbid(monkeypatch, "_identity_violations", "_section_loops")
    for label, ext, j in sections:
        assert validate_cocycle(ext.S, ext.k, ext.cocycle).passed, label
        assert validate_section(ext, j) == SectionReport(True, True, True, True), label


def _local_non_cocycle(S, k):
    """A normalized point cocycle that fails the point identity on rook2:
    c(x, z, y) = x + 1 when x != z and z != y, else 0."""
    return point_cocycle_table(S, k, lambda x, z, y: (x + 1) * (x != z) * (z != y))


def test_cocycle_fallbacks_match_reference(monoids, monkeypatch):
    """Each failing check sends validate_cocycle to the id-level loop, and
    the report equals the reference's, violation order included."""
    S = monoids["eqrel 0,1|2"]
    twisted = random_coboundary(S, 3, random.Random(15))
    bumped = tampered(twisted, S, random.Random(15))  # not local
    unnormalized = dict(twisted.entries)
    t = next(t for t in S if not t.is_idempotent())
    unnormalized[(S.one, t)] = tuple((p + 1) % 3 for p in unnormalized[(S.one, t)])
    cases = [
        ("bumped", S, 3, bumped),
        ("unnormalized", S, 3, CocycleTable(3, unnormalized)),
        ("local, identity fails", monoids["rook2"], 3, _local_non_cocycle(monoids["rook2"], 3)),
    ]
    calls = _spy(monkeypatch, "_identity_violations")
    flags = []
    for label, T, k, table in cases:
        rep = assert_same_report(T, k, table)
        assert rep.violations, label
        flags.append((rep.supported, rep.normalized, rep.identity_holds))
    assert len(calls) == len(cases)
    assert flags == [(True, True, False), (True, False, False), (True, True, False)]


def test_section_fallbacks_match_reference(monoids, monkeypatch):
    """Each failing point condition sends validate_section to its loops,
    and the report equals the reference's, witnesses included.  A monoid
    without the idempotents of the atom set but with every meet is decided
    on the points; one without a meet raises before any loop."""
    S = monoids["rook3"]
    ext = Extension(S, 3, random_coboundary(S, 3, random.Random(5)))
    values = dict(order_preserving_section(ext).values)
    e = partial_identity(3, 0b011)
    values[e] = PhasedElement(e, (0, 1))  # disagrees with the other lifts at the point 1 -> 1

    R2 = monoids["rook2"]
    zero_lifts = Section({s: with_zero_phases(s) for s in R2})
    # phases that depend only on the point, but are 1 at the diagonal point 0 -> 0
    diagonal = Section({s: PhasedElement(s, tuple(int(x == y == 0) for x, y in s.pairs())) for s in R2})
    unreduced = Section({s: PhasedElement(s, tuple(2 * ((x, y) == (1, 0)) for x, y in s.pairs())) for s in R2})
    # local, but c(e0, e0)(0) = cp[0, 0, 0] = 1 is not zero
    unnormalized = point_cocycle_table(R2, 3, lambda x, z, y: int(x == z == y == 0))

    swap = PartialBijection(2, 0b11, (1, 0))
    T = FiniteInverseMonoid(2, [swap])  # {0, 1, (0 1)}: no idempotent on one atom, but every meet
    ext_T = Extension(T, 2)

    cases = [
        ("one idempotent lift bumped", ext, Section(values), False),
        ("nonzero phase on the diagonal", Extension(R2, 2), diagonal, False),
        ("phase 2 at the point 0 -> 1, k = 2", Extension(R2, 2), unreduced, False),
        ("table not normalized", Extension(R2, 3, unnormalized), zero_lifts, False),
        ("idempotents missing", ext_T, order_preserving_section(ext_T), True),
    ]
    calls = _spy(monkeypatch, "_section_loops")
    for label, x, j, passed in cases:
        rep = validate_section(x, j)
        assert rep == ref_validate_section(x, j), label
        assert rep.passed == passed, label
    failing = sum(not passed for *_, passed in cases)
    assert len(calls) == failing == 4

    # {0, 1, (0 1)} on 3 atoms: (0 1) ^ 1, the identity on atom 2, is missing
    three = FiniteInverseMonoid(3, [PartialBijection(3, 0b111, (1, 0, 2))])
    assert three.missing_meet == (three.one, three.elements[-1])
    with pytest.raises(DomainError) as got:
        validate_section(Extension(three, 2), Section({s: with_zero_phases(s) for s in three}))
    assert str(got.value) == "the meet of <0>0,1>1,2>2 on 3> and <0>1,1>0,2>2 on 3> is not an element of the monoid"
    assert len(calls) == failing

    # a table that is not local defines no product: c(e0, t10) at the point
    # 0 <- 1 is 1, c(1, t10) there is 0
    entries = dict(trivial_cocycle(R2, 2).entries)
    e0, t10 = partial_identity(2, 0b01), singleton(2, 1, 0)
    entries[(e0, t10)] = (1,)
    not_local = Extension(R2, 2, CocycleTable(2, entries))
    v = with_zero_phases(t10)
    uses = (lambda: validate_section(not_local, zero_lifts), lambda: not_local.multiply(v, v), lambda: not_local.dagger(v))
    for use in uses:
        with pytest.raises(DomainError, match="not supported and local"):
            use()
    assert len(calls) == failing + 1


def test_cohomologous_of_two_trivial_twists_reads_no_pair(monoids, monkeypatch):
    ladder = list(monoids.values()) + [rook_monoid(4), eqrel_monoid([(0, 1, 2), (3,), (4,)])]
    expected = {(i, k): ref_cohomologous(S, k, _zero_table(S, k), _zero_table(S, k)) for i, S in enumerate(ladder) for k in (1, 2, 3)}
    three = FiniteInverseMonoid(3, [PartialBijection(3, 0b111, (1, 0, 2))])
    _forbid(monkeypatch, "_point_pass")
    for (i, k), want in expected.items():
        assert cohomologous(ladder[i], k, None, None) == want
        assert cohomologous(ladder[i], k, None, None) == want
    assert cohomologous(three, 2, None, None) == {s: (0,) * s.domain.bit_count() for s in three}


def test_one_point_pass_per_table(monoids, monkeypatch):
    """section and equiv make one point pass per table, and equiv none per
    relabeling it tries."""
    S = monoids["rook2"]
    c = random_coboundary(S, 2, random.Random(8))
    passes = _spy(monkeypatch, "_point_pass")
    ext = Extension(S, 2, c)
    validate_section(ext, order_preserving_section(ext))
    assert sum(args[2] is c for args in passes) == 1

    bad = tampered(c, S, random.Random(8))
    a, b = Extension(S, 2, c), Extension(S, 2, bad)
    assert len(list(relabelings(S, S))) == 2
    assert extensions_equivalent(a, b) is None
    assert sum(args[2] is bad for args in passes) == 1
    assert sum(args[2] is c for args in passes) == 2
