"""The trivial twist without a table against the materialized zero table.

``Extension(S, k)`` holds no cocycle table (``ext.cocycle is None``) and
its product reads an empty point cocycle.  On the generator ladder
and k in {1, 2, 3} it must agree with ``Extension(S, k, trivial_cocycle(S,
k))`` in every exact procedure and in the lambda matrices.
"""

import random

import numpy as np
import pytest

from cartanlab.cli import build_extension
from cartanlab.extension import (
    Extension,
    cohomologous,
    extensions_equivalent,
    order_preserving_section,
    validate_cocycle,
    validate_section,
)
from cartanlab.generators import eqrel_monoid, generate, product_monoid, rook_monoid
from cartanlab.kernel_rep import RepSpace
from cartanlab.semigroup_core import bits

from exact_reference import patch_extension, trivial_cocycle

LADDER = {
    "rook2": lambda: rook_monoid(2),
    "rook3": lambda: rook_monoid(3),
    "rook4": lambda: rook_monoid(4),
    "eqrel 0,1|2": lambda: eqrel_monoid([(0, 1), (2,)]),
    "eqrel 0,1|2,3": lambda: eqrel_monoid([(0, 1), (2, 3)]),
    "eqrel 0,1,2|3|4": lambda: eqrel_monoid([(0, 1, 2), (3,), (4,)]),
    "product rook2 rook2": lambda: product_monoid(rook_monoid(2), rook_monoid(2)),
}
CASES = [(name, k) for name in LADDER for k in (1, 2, 3)]
IDS = [f"{name}-k{k}".replace(" ", "_").replace("|", "_") for name, k in CASES]
PAIR_SAMPLE = 3000  # id pairs checked per case when |S|^2 is larger (rook4)


@pytest.fixture(scope="module")
def ladder():
    return {name: build() for name, build in LADDER.items()}


def twin_extensions(ladder, name, k):
    S = ladder[name]
    return S, Extension(S, k), Extension(S, k, trivial_cocycle(S, k))


def _random_row(S, i, k, rng):
    row = [0] * S.atom_count
    for y in bits(S.elements[i].domain):
        row[y] = rng.randrange(k)
    return row


@pytest.mark.parametrize("name, k", CASES, ids=IDS)
def test_products_and_daggers_agree(ladder, name, k):
    S, bare, table = twin_extensions(ladder, name, k)
    assert bare.cocycle is None and table.cocycle is not None
    rng = random.Random(f"{name} {k}")
    m = len(S)
    pairs = [(i, j) for i in range(m) for j in range(m)]
    if len(pairs) > PAIR_SAMPLE:
        pairs = rng.sample(pairs, PAIR_SAMPLE)
    for i, j in pairs:
        a, b = _random_row(S, i, k, rng), _random_row(S, j, k, rng)
        assert bare._product(i, a, j, b) == table._product(i, a, j, b), (i, j)
    for i in range(m):
        a = _random_row(S, i, k, rng)
        assert bare._dagger(i, a) == table._dagger(i, a), i


@pytest.mark.parametrize("name, k", CASES, ids=IDS)
def test_sections_and_their_reports_agree(ladder, name, k):
    S, bare, table = twin_extensions(ladder, name, k)
    j_bare, j_table = order_preserving_section(bare), order_preserving_section(table)
    assert j_bare.values == j_table.values
    assert j_bare.dense_rows(S) == j_table.dense_rows(S)
    assert all(not any(row) for row in j_bare.dense_rows(S))
    rep = validate_section(bare, j_bare)
    assert rep == validate_section(table, j_table) and rep.passed


@pytest.mark.parametrize("name, k", CASES, ids=IDS)
def test_cocycle_reports_and_triviality_agree(ladder, name, k):
    S, bare, table = twin_extensions(ladder, name, k)
    rep = validate_cocycle(S, k, bare.cocycle)
    assert rep == validate_cocycle(S, k, table.cocycle) and rep.passed and rep.violations == []
    witness = cohomologous(S, k, None, bare.cocycle)
    assert witness == cohomologous(S, k, None, table.cocycle)
    assert witness == {s: (0,) * s.domain.bit_count() for s in S}


@pytest.mark.parametrize("name, k", CASES, ids=IDS)
def test_equivalence_witnesses_agree(ladder, name, k):
    S, bare, table = twin_extensions(ladder, name, k)
    guard = len(S)
    witness = extensions_equivalent(bare, bare, guard)
    assert witness is not None
    assert extensions_equivalent(table, table, guard) == witness
    assert extensions_equivalent(bare, table, guard) == witness
    assert extensions_equivalent(table, bare, guard) == witness


@pytest.mark.parametrize("k", (1, 2, 3))
def test_lambda_matrices_agree_on_rook3(ladder, k):
    S, bare, table = twin_extensions(ladder, "rook3", k)
    rs_bare, rs_table = RepSpace(bare), RepSpace(table)
    lams = rs_bare.stack(rs_bare.ext.elements)
    assert len(lams) == len(bare.elements) == len(table.elements)
    assert all(np.array_equal(a, b) for a, b in zip(lams, rs_table.stack(rs_table.ext.elements)))


def test_generated_document_reads_an_empty_point_cocycle(monkeypatch):
    """``gen rook 4`` has no cocycle, so its extension has no table: it runs
    no point pass, and its product reads an empty point cocycle."""
    S, ext, _ = build_extension(generate("rook", "4"))
    assert ext.cocycle is None

    def refuse(*args):
        raise AssertionError("point pass of the trivial twist")

    patch_extension(monkeypatch, "_point_pass", lambda real: refuse)
    assert ext._cp == {} and len(S) == 209
    for v in ext.elements[::97]:
        assert ext.multiply(v, ext.dagger(v)).phases == (0,) * v.bij.range_mask.bit_count()
