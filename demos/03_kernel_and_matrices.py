#!/usr/bin/env python3
"""The projection-valued kernel and the concrete matrix representation.

The kernel K(t,s) records where s and t agree; its positivity is certified
per atom by a rank-one class decomposition.  The representation sends each
phased element to a phased partial-permutation matrix on the relation's
function space; the compression to the diagonal pairs realizes the
conditional expectation.
"""

import numpy as np

from cartanlab import (
    Extension,
    RepSpace,
    abstract_gram_check,
    kernel,
    kernel_psd_check,
    rook_monoid,
)
from cartanlab.extension import delta
from cartanlab.kernel_rep import dump_matrix
from cartanlab.semigroup_core import identity_map, singleton

I2 = rook_monoid(2)
ext = Extension(I2, 2)
rs = RepSpace(ext)
j = rs.j
one = identity_map(2)
swap = next(s for s in I2 if s.domain == 0b11 and s.image == (1, 0))

print("kernel entries are idempotents (agreement sets):")
print("  K(1, swap) =", kernel(j, one, swap), " (no agreement)")
print("  K(swap, swap) =", kernel(j, swap, swap))

print("\npositivity certificate on the whole monoid:")
for res in kernel_psd_check(j, list(I2), 2):
    print(f"  atom {res['atom']}: classes {res['classes']}, min eig {res['min_eig']:.2e}")

print("\nrelation basis (row-major):", rs.rbasis.pairs)
print("\nlambda of the swap lift is a permutation matrix:")
print(np.real(rs.lam_of(swap)).astype(int))

t01 = singleton(2, 0, 1)
v = ext.elements[-1]  # a phased element over swap
print("\na phased element acts with root-of-unity entries:")
print("  v =", v)
print(np.round(rs.lam(v), 3))

print("\nthe expectation compresses to the diagonal pairs and re-embeds:")
E_swap = rs.expectation(rs.lam_of(swap))
print("  E(lam(j(swap))) has max entry", np.abs(E_swap).max(), "(the twist has no diagonal part)")
for v in ext.elements[:5]:
    lhs = rs.expectation(rs.lam(v))
    rhs = rs.lam(delta(ext, j, v))
    assert np.abs(lhs - rhs).max() < 1e-12
print("  E(lam(v)) = lam(Delta(v)) spot-checked")

print("\nabstract module picture agrees with the matrices:")
print(" ", abstract_gram_check(ext, j))

print("\nserialized matrix dump (one line per nonzero entry):")
print(dump_matrix(rs.rbasis, ext.k, rs.monomial(j[t01])))
