"""One-matrix and one-system forms of the numeric half's stacked solves,
which only the tests read: the Hilbert-Schmidt inner product of two
matrices, the pattern intersection of one transport pattern, and the
normalizer test of one relation point.  ``vn_oracle._pattern_solves`` and
``vn_oracle._accepted_points`` solve many such systems in one SVD; these
are the references they are checked against.
"""

from __future__ import annotations

import numpy as np

from cartanlab.semigroup_core import singleton
from cartanlab.vn_oracle import MatrixAlgebra, _null_combinations, _pattern_positions, _unimodular


def hs_inner(A: np.ndarray, B: np.ndarray) -> complex:
    return complex(np.vdot(A, B))


def _pattern_intersection(M: MatrixAlgebra, positions):
    """Basis of the elements of span(M) supported exactly within positions,
    at M's tol: the one-system form of ``_pattern_solves``."""
    if not M.basis:
        return []
    dim = len(M.rbasis)
    mask = np.zeros((dim, dim), dtype=bool)
    for r, c in positions:
        mask[r, c] = True
    outside = ~mask
    rows = np.stack([b[outside].ravel() for b in M.basis], axis=1)
    return _null_combinations(rows, M.basis, M.tol)


def _point_accepted(M: MatrixAlgebra, x: int, y: int) -> bool:
    """Whether the one-point map y -> x is implemented by a normalizer in M.

    Its pattern is a single column group, so acceptance means: the elements
    of span(M) supported on the group form a one-dimensional space spanned
    by a vector with constant nonzero modulus across the whole group (the
    unimodular rephasing of the 0/1 transport matrix).  The one-point form
    of ``_accepted_points``.
    """
    rbasis = M.rbasis
    positions = _pattern_positions(rbasis, singleton(rbasis.atom_count, y, x))
    inter = _pattern_intersection(M, positions)
    return len(inter) == 1 and _unimodular([inter[0][r, c] for r, c in positions], M.tol)
