"""The id-level views of ``FiniteInverseMonoid`` against the derivations
they replaced.

``id_of_graph``, ``product_row`` (and the table ``mul`` built from it),
``domain_atoms``, ``idempotent_ids`` and ``points`` are the one home of
the graph lookup, the composition and the per-id lists that the cocycle
loops, the section, the lambda matrices and the trace index read.  The
references kept here are the earlier bodies: the Cayley table on
(domain, image) keys, the per-module lists, ``_related_points`` and the
trace index's own composition on graph points.
"""

import itertools
import tracemalloc
from pathlib import Path

import pytest

from cartanlab.cli import build_extension, parse
from cartanlab.errors import ClosureError
from cartanlab.extension import Extension, order_preserving_section
from cartanlab.generators import eqrel_monoid, product_monoid, rook_monoid
from cartanlab.kernel_rep import RepSpace, lambda_matrix
from cartanlab.semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    bits,
    compose,
    mask_of,
    singleton,
)
from cartanlab.spectral_bimodule import _TraceIndex

FIXTURES = Path(__file__).parent / "fixtures"

CYCLE = PartialBijection(3, 0b111, (1, 2, 0))  # 0 -> 1 -> 2 -> 0


def _avoiding_0_2():
    """The 22 partial injections on 3 atoms whose graphs avoid 0 <-> 2: join-
    and dagger-closed, not product closed (2 -> 1, then 1 -> 0)."""
    points = {(x, y) for x in range(3) for y in range(3)} - {(0, 2), (2, 0)}
    maps = [
        PartialBijection(3, dom, image)
        for dom in range(8)
        for image in itertools.permutations(range(3), dom.bit_count())
        if points.issuperset(zip(image, bits(dom)))
    ]
    return FiniteInverseMonoid(3, maps)


CASES = {
    "rook1": rook_monoid(1),
    "rook2": rook_monoid(2),
    "rook3": rook_monoid(3),
    "rook4": rook_monoid(4),
    "eqrel_01_23": eqrel_monoid([(0, 1), (2, 3)]),
    "eqrel_012_3_4": eqrel_monoid([(0, 1, 2), (3,), (4,)]),
    "product_rook2_rook2": product_monoid(rook_monoid(2), rook_monoid(2)),
    "swap_on_three": FiniteInverseMonoid(3, [PartialBijection(3, 0b111, (1, 0, 2))]),
    "three_cycle": FiniteInverseMonoid(3, [CYCLE, compose(CYCLE, CYCLE)]),
    "not_closed_22": _avoiding_0_2(),
}


def reference_mul(S):
    """The earlier ``mul``: compose each image row with the graph points and
    look the product up by its (domain, image) key."""
    ids = {(s.domain, s.image): i for i, s in enumerate(S.elements)}
    out = []
    for s, image_of in zip(S.elements, S.images):
        row = []
        for t in S.elements:
            domain, image = 0, []
            for x, y in t.pairs():
                if image_of[x] >= 0:
                    domain |= 1 << y
                    image.append(image_of[x])
            st = ids.get((domain, tuple(image)))
            if st is None:
                raise ClosureError((s, t, compose(s, t)))
            row.append(st)
        out.append(row)
    return out


def reference_products(idx):
    """The earlier ``_TraceIndex.products``: its own composition on graph
    points and a graph -> trace dict."""
    n = idx.S.atom_count
    traces = {s.graph: t for s, t in idx.trace.items()}
    out = []
    for (i, s), (j, t) in itertools.product(enumerate(idx.minimals), repeat=2):
        graph = mask_of(s.apply(x) * n + y for x, y in t.pairs() if s.domain >> x & 1)
        if graph not in traces:
            raise ClosureError((s, t, compose(s, t)))
        if traces[graph] & ~(1 << i | 1 << j | idx.idempotent):
            out.append((1 << i | 1 << j, traces[graph]))
    return out


def _outcome(build):
    """(result, None), or (None, the ClosureError witness)."""
    try:
        return build(), None
    except ClosureError as exc:
        return None, exc.witness


@pytest.mark.parametrize("name", sorted(CASES))
def test_views_match_their_old_derivations(name):
    S = CASES[name]
    els, n = S.elements, S.atom_count
    assert S.domain_atoms == [tuple(bits(s.domain)) for s in els]
    assert S.idempotent_ids == [i for i, e in enumerate(els) if e.is_idempotent()]
    assert S.idempotents() == [e for e in els if e.is_idempotent()]
    assert S.points == sorted({(x, y) for s in S for x, y in s.pairs()})
    assert S.id_of_graph == {s.graph: S.index[s] for s in els} and len(S.id_of_graph) == len(S)
    for x, y in itertools.product(range(n), repeat=2):
        assert S.id_of_graph.get(1 << (x * n + y)) == S.index.get(singleton(n, y, x))


@pytest.mark.parametrize("name", sorted(CASES))
def test_mul_matches_the_key_reference(name):
    S = CASES[name]
    table, witness = _outcome(lambda: reference_mul(S))
    assert _outcome(lambda: S.mul) == (table, witness)
    assert (witness is None) == (name != "not_closed_22")


@pytest.mark.parametrize("name", sorted(CASES))
def test_product_rows_of_any_ids(name):
    """A row over any list of ids, in any order, is the composed row, with
    the first missing product of that row as the witness."""
    S = CASES[name]
    ids = list(range(len(S)))[::-1][::3]

    def reference_row(i):
        s, row = S.elements[i], []
        for j in ids:
            st = compose(s, S.elements[j])
            if st not in S:
                raise ClosureError((s, S.elements[j], st))
            row.append(S.index[st])
        return row

    for i in range(len(S)):
        assert _outcome(lambda: S.product_row(i, ids)) == _outcome(lambda: reference_row(i))


def test_product_rows_spread_only_the_points_of_r():
    """rook2 padded to 300 atoms has 8 elements and 302 points of R: its
    Cayley table is built below 10 MB (tracemalloc), where spreading every
    one of the 300² graph bits of each row took over 500 MB."""
    n = 300
    S = FiniteInverseMonoid(n, [PartialBijection(n, s.domain, s.image) for s in rook_monoid(2)])
    assert len(S.points) == 302 and S.images and S.id_of_graph  # built before the measurement
    tracemalloc.start()
    try:
        table = S.mul
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == reference_mul(S)
    assert peak < 10 * 2**20


def test_mul_of_the_fixture_and_the_set_that_is_not_closed():
    """rook2 without the swap is product closed (it fails only the joins):
    the same table as the reference.  The 22-element set raises the
    reference's first missing product."""
    S = build_extension(parse((FIXTURES / "missing_swap.json").read_text()))[0]
    table, witness = _outcome(lambda: S.mul)
    assert (table, witness) == _outcome(lambda: reference_mul(S)) and witness is None and len(table) == 6
    not_closed = _avoiding_0_2()
    first = (singleton(3, 1, 0), singleton(3, 2, 1), singleton(3, 2, 0))
    assert _outcome(lambda: not_closed.mul) == _outcome(lambda: reference_mul(not_closed)) == (None, first)


@pytest.mark.parametrize("name", sorted(set(CASES) - {"swap_on_three", "three_cycle"}))
def test_trace_products_match_their_own_composition(name):
    idx = _TraceIndex(CASES[name])
    assert _outcome(lambda: idx.products) == _outcome(lambda: reference_products(idx))


def _count_bijections(monkeypatch):
    built = []
    original = PartialBijection.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(PartialBijection, "__init__", counted)
    return built


def test_lambda_matrices_build_no_bijection(monkeypatch):
    S = rook_monoid(3)
    ext = Extension(S, 3)
    rs = RepSpace(ext, order_preserving_section(ext))
    expected = [lambda_matrix(ext, rs.j, v, rs.rbasis) for v in ext.elements[::7]]
    built = _count_bijections(monkeypatch)
    got = [lambda_matrix(ext, rs.j, v, rs.rbasis) for v in ext.elements[::7]]
    assert built == []
    assert all((a == b).all() for a, b in zip(got, expected)) and len(got) == len(expected) > 10
