"""Graph bitmasks against the element-level operations they replaced.

``check_axioms`` reads axioms (b) and (c) from the monoid's graph views
``missing_meet`` and ``missing_join``, and ``_TraceIndex`` each trace from
the graph points of an element, over the one-point maps.  The references
kept here are the earlier bodies: the ``meet`` and ``orthogonal_join``
loops over ``itertools.combinations``, which decide (b) and name (c)'s
witness, the fixed-point rule, which names (b)'s, and the table of |S|^2
``natural_leq`` calls, which finds the minimal elements of any monoid.
"""

import itertools
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartanlab.boolean_monoid import check_axioms
from cartanlab.cli import main
from cartanlab.errors import ClosureError, DomainError
from cartanlab.exact_library import are_orthogonal, meet, orthogonal_join
from cartanlab.extension import Extension, order_preserving_section, point_coboundary_table, validate_section
from cartanlab.generators import _document_of, emit, eqrel_monoid, product_monoid, rook_monoid
from cartanlab.kernel_rep import RepSpace
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    bits,
    compose,
    conjugate,
    dagger,
    identity_map,
    mask_of,
    natural_leq,
    partial_identity,
    singleton,
    zero_map,
)
from cartanlab.spectral_bimodule import _TraceIndex

from exact_reference import inflated, is_spectral_monoid, leech_idempotent
from test_cayley_parity import ref_validate_section

LADDER = {
    "rook1": rook_monoid(1),
    "rook2": rook_monoid(2),
    "rook3": rook_monoid(3),
    "eqrel_01_23": eqrel_monoid([(0, 1), (2, 3)]),
    "eqrel_012_3_4": eqrel_monoid([(0, 1, 2), (3,), (4,)]),
    "product_rook2_rook2": product_monoid(rook_monoid(2), rook_monoid(2)),
}


def reference_meet_and_join_witnesses(S):
    b = next(((s, t) for s, t in itertools.combinations(S.elements, 2) if meet(s, t) not in S), None)
    c = next(
        (
            (s, t)
            for s, t in itertools.combinations(S.elements, 2)
            if not (s.is_zero() or t.is_zero()) and are_orthogonal(s, t) and orthogonal_join([s, t]) not in S
        ),
        None,
    )
    return b, c


def fixed_point_meet_witness(S):
    """The pair {u, 1}, in element order, for the first u such that S lacks
    the fixed-point idempotent 1^dag u ^ 1, which is u ^ 1."""
    for u in S:
        if leech_idempotent(S.one, u) not in S:
            return tuple(sorted((u, S.one), key=S.index.__getitem__))
    return None


def closed_submonoid(S, gens):
    """The closure of gens under compose and dagger (with 0 and 1)."""
    out = {zero_map(S.atom_count), identity_map(S.atom_count), *gens}
    while True:
        grown = out | {dagger(s) for s in out} | {compose(s, t) for s in out for t in out}
        if grown == out:
            return FiniteInverseMonoid(S.atom_count, out)
        out = grown


def _three_atoms():
    return [partial_identity(3, 1 << a) for a in range(3)]


AXIOM_CASES = dict(
    LADDER,
    three_atoms=FiniteInverseMonoid(3, _three_atoms()),
    swap_on_three=FiniteInverseMonoid(3, [PartialBijection(3, 0b111, (1, 0, 2))]),
    rook2_without_swap=FiniteInverseMonoid(2, [s for s in rook_monoid(2) if s != PartialBijection(2, 0b11, (1, 0))]),
    swap_on_three_of_four=closed_submonoid(rook_monoid(4), [PartialBijection(4, 0b0111, (1, 0, 2))]),
)
AXIOM_CASES.update(
    {
        f"rook3_random_{seed}": closed_submonoid(
            rook_monoid(3), random.Random(seed).sample(rook_monoid(3).elements, 2 + seed % 3)
        )
        for seed in range(12)
    }
)


@pytest.mark.parametrize("name", sorted(AXIOM_CASES))
def test_axioms_b_and_c_match_meet_and_join_reference(name):
    """(b) passes iff the pair scan finds every meet, and names the
    fixed-point rule's pair; (c) and (d) name the pair scan's first pair."""
    S = AXIOM_CASES[name]
    b, c = reference_meet_and_join_witnesses(S)
    rep = check_axioms(S)
    assert (rep.boolean_b.passed, rep.boolean_b.witness) == (b is None, fixed_point_meet_witness(S))
    assert (rep.boolean_c.passed, rep.boolean_c.witness) == (c is None, c)
    assert (rep.complete_d.passed, rep.complete_d.witness) == (c is None, c)


def test_axiom_cases_fail_where_they_should():
    reps = {name: check_axioms(AXIOM_CASES[name]) for name in ("three_atoms", "swap_on_three", "rook2_without_swap")}
    e0, e1, _ = _three_atoms()
    assert reps["three_atoms"].boolean_b and reps["three_atoms"].boolean_c.witness == (e0, e1)
    assert reps["swap_on_three"].boolean_b.witness == (identity_map(3), PartialBijection(3, 0b111, (1, 0, 2)))
    assert reps["rook2_without_swap"].boolean_b
    assert reps["rook2_without_swap"].boolean_c.witness == (singleton(2, 0, 1), singleton(2, 1, 0))
    # the first pair whose meet is missing is not always a pair {u, 1}: here
    # the old witness was the restriction of 1 to {0, 1, 2} and u
    S = AXIOM_CASES["swap_on_three_of_four"]
    u = PartialBijection(4, 0b0111, (1, 0, 2))
    assert [str(s) for s in S] == ["<0 on 4>", "<0>0,1>1,2>2 on 4>", "<0>1,1>0,2>2 on 4>", "<0>0,1>1,2>2,3>3 on 4>"]
    assert reference_meet_and_join_witnesses(S)[0] == (partial_identity(4, 0b0111), u)
    assert check_axioms(S).boolean_b.witness == S.missing_meet == (u, identity_map(4))
    failing = [name for name in AXIOM_CASES if name.startswith("rook3_random") and not check_axioms(AXIOM_CASES[name]).passed]
    assert failing


ROOKS = {3: rook_monoid(3), 4: rook_monoid(4)}


@st.composite
def twisted_submonoids(draw):
    """The closed submonoid of rook3 or rook4 generated by a drawn element
    that is not idempotent, often a unit (a unit with fixed points leaves
    its meet with 1 out of S unless another generator brings it), and at
    most one more, as it is or inflated by blocks of 2, twisted by a random
    point coboundary mod 2 or 3."""
    R = ROOKS[draw(st.sampled_from(sorted(ROOKS)))]
    moving = [s for s in R if not s.is_idempotent()]
    units = [s for s in moving if s.domain == R.one.domain]
    first = draw(st.sampled_from(units) | st.sampled_from(moving))
    S = closed_submonoid(R, [first, *draw(st.lists(st.sampled_from(R.elements), max_size=1))])
    if draw(st.booleans()):
        S = inflated(S, 2)
    k = draw(st.integers(2, 3))
    pts = [p for p in S.points if p[0] != p[1]]
    phases = draw(st.lists(st.integers(0, k - 1), min_size=len(pts), max_size=len(pts)))
    return Extension(S, k, point_coboundary_table(S, k, dict(zip(pts, phases))))


@settings(max_examples=25, deadline=None)
@given(twisted_submonoids())
@example(Extension(AXIOM_CASES["swap_on_three_of_four"], 2))
@example(Extension(inflated(AXIOM_CASES["swap_on_three_of_four"], 2), 3))
@example(Extension(closed_submonoid(ROOKS[4], [PartialBijection(4, 0b1111, (1, 2, 0, 3))]), 2))  # c and c^2 miss c ^ 1
def test_meet_and_join_views_match_the_pair_scans(ext):
    """On closed submonoids of rook3 and rook4, inflated or not: the meet
    view is None iff the pair scan finds every meet, and otherwise names the
    fixed-point rule's first pair, whose meet is missing; the join view is
    the pair scan's first pair; and the section check of j = -b gives the
    reference's report, or, with a meet missing, raises where the reference
    fails to look the meet up in the section."""
    S = ext.S
    b, c = reference_meet_and_join_witnesses(S)
    assert (S.missing_meet is None) == (b is None)
    assert S.missing_meet == fixed_point_meet_witness(S)
    if b is not None:
        s, t = S.missing_meet
        assert meet(s, t) not in S
    assert S.missing_join == c
    j = order_preserving_section(ext)
    if b is None:
        assert validate_section(ext, j) == ref_validate_section(ext, j)
    else:
        with pytest.raises(DomainError) as got:
            validate_section(ext, j)
        assert str(got.value) == f"the meet of {s} and {t} is not an element of the monoid"
        with pytest.raises(KeyError) as missing:
            ref_validate_section(ext, j)
        assert missing.value.args[0] == meet(*b)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_graph_is_the_set_of_graph_points(name):
    S = LADDER[name]
    n = S.atom_count
    for s in S:
        assert s.graph == mask_of(x * n + y for x, y in s.pairs())
        assert s._graph == s.graph  # kept after the first use
    assert PartialBijection(n, 0b1, (0,))._graph is None  # not computed at construction
    for s, t in itertools.product(S.elements[:40], repeat=2):
        assert natural_leq(t, s) == (not t.graph & ~s.graph)
        assert meet(s, t).graph == s.graph & t.graph


class ReferenceTraceIndex:
    """The earlier ``_TraceIndex`` table of |S|^2 ``natural_leq`` calls."""

    def __init__(self, S):
        nonzero = [s for s in S if not s.is_zero()]
        below = {s: [t for t in nonzero if natural_leq(t, s)] for s in nonzero}
        self.minimals = [s for s in nonzero if below[s] == [s]]
        pos = {m: i for i, m in enumerate(self.minimals)}
        self.trace = {s: mask_of(pos[t] for t in below.get(s, ()) if t in pos) for s in S}
        self.dag = [pos.get(dagger(m)) for m in self.minimals]
        if None in self.dag:
            raise DomainError("the monoid is not closed under dagger")
        for s in nonzero:
            covered = (a for i in bits(self.trace[s]) for a in bits(self.minimals[i].domain))
            if mask_of(covered) != s.domain:
                raise DomainError(f"{s} is not the join of the minimal elements below it")
        traces = set(self.trace.values())
        for s, t in itertools.combinations(nonzero, 2):
            if are_orthogonal(s, t) and self.trace[s] | self.trace[t] not in traces:
                raise DomainError("the monoid is not closed under orthogonal joins")


TRACE_CASES = dict(
    LADDER,
    non_atomistic=FiniteInverseMonoid(2, [partial_identity(2, 0b01)]),
    three_atoms=AXIOM_CASES["three_atoms"],
    one_way=FiniteInverseMonoid(2, [singleton(2, 0, 1)]),
)

# what the index raises on the cases the reference refuses: non_atomistic
# lacks the one-point map of (1, 1), and one_way the dagger of 0 -> 1
TRACE_ERRORS = {
    "non_atomistic": (DomainError, "relation pair has no one-point map in S"),
    "one_way": (ClosureError, "element set is not closed; witness: (<0>1 on 2>, 'dagger', <1>0 on 2>)"),
    "three_atoms": (
        DomainError,
        "the monoid is not closed under orthogonal joins; witness: (<0>0 on 3>, <1>1 on 3>)",
    ),
}


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_index_matches_natural_leq_reference(name):
    """Where the reference builds an index, the one-point maps give the same
    one; where it refuses, the index refuses too."""
    S = TRACE_CASES[name]
    if name in TRACE_ERRORS:
        with pytest.raises(DomainError):
            ReferenceTraceIndex(S)
        with pytest.raises(TRACE_ERRORS[name][0]):
            _TraceIndex(S)
        return
    ref = ReferenceTraceIndex(S)
    idx = _TraceIndex(S)
    assert idx.minimals == ref.minimals
    assert idx.trace == ref.trace
    assert idx.dag == ref.dag


def test_trace_cases_reach_each_error():
    """The reference reaches each of its three errors, and the index names
    what is missing: the one-point map, the dagger, or the join of the first
    orthogonal pair, the pair axiom (c) names."""
    for name, message in (
        ("non_atomistic", "is not the join"),
        ("one_way", "not closed under dagger"),
        ("three_atoms", "not closed under orthogonal joins"),
    ):
        with pytest.raises(DomainError, match=message):
            ReferenceTraceIndex(TRACE_CASES[name])
        exc, text = TRACE_ERRORS[name]
        with pytest.raises(exc) as got:
            _TraceIndex(TRACE_CASES[name])
        assert str(got.value) == text
    assert str(check_axioms(TRACE_CASES["three_atoms"]).boolean_c.witness) in TRACE_ERRORS["three_atoms"][1]


@st.composite
def point_monoids(draw):
    """An eqrel monoid on at most 4 atoms in blocks of at most 3, or the
    product of two such on at most 4 atoms in all, its atoms relabeled by a
    drawn permutation."""

    def eqrel(n):
        sizes = []
        while sum(sizes) < n:
            sizes.append(draw(st.integers(1, min(3, n - sum(sizes)))))
        cuts = list(itertools.accumulate(sizes, initial=0))
        return eqrel_monoid([tuple(range(a, b)) for a, b in zip(cuts, cuts[1:])])

    n = draw(st.integers(1, 4))
    split = draw(st.integers(0, n - 1))
    S = product_monoid(eqrel(split), eqrel(n - split)) if split else eqrel(n)
    perm = draw(st.permutations(range(n)))
    return FiniteInverseMonoid(n, [conjugate(s, perm) for s in S])


NO_POINT_MAP = "relation pair has no one-point map in S"


@settings(max_examples=20, deadline=None)
@given(point_monoids())
def test_point_index_matches_reference_and_its_rule(S):
    """On eqrel monoids, their products and relabelings, the index over the
    one-point maps is the reference's, its monoid test on masks is the
    Cayley table's on every mask, and the monoid inflated by blocks of 2,
    which holds no one-point map, is refused with one message by the index,
    the lambdas of a RepSpace and every numeric command."""
    ref = ReferenceTraceIndex(S)
    idx = _TraceIndex(S)
    assert (idx.minimals, idx.trace, idx.dag) == (ref.minimals, ref.trace, ref.dag)
    for X in idx.masks(len(idx.minimals)):
        assert idx.is_monoid(X) == is_spectral_monoid(idx, X, idx.members(X))

    T = inflated(S, 2)
    with pytest.raises(DomainError) as got:
        _TraceIndex(T)
    assert str(got.value) == NO_POINT_MAP
    ext = Extension(T, 1)
    with pytest.raises(DomainError) as got:
        RepSpace(ext).stack(ext.elements)
    assert str(got.value) == NO_POINT_MAP
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blocks.json"
        path.write_text(emit(_document_of(T, 1, {})))
        for command in ("represent", "oracle", "spectral", "msd", "mtr"):
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, str(path)])
            assert (code, out.getvalue(), err.getvalue()) == (2, "", f"input error: {NO_POINT_MAP}\n"), command
