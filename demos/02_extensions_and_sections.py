#!/usr/bin/env python3
"""Phase extensions of a rook monoid and their order-preserving sections.

An extension decorates each element with k-th root-of-unity phases on its
domain and twists the product by a normalized 2-cocycle.  This script
builds the 17-element extension of the 2-atom rook monoid, perturbs it by a
coboundary, constructs sections, and decides cohomological triviality.
"""

import random

from cartanlab import (
    Extension,
    cohomologous,
    delta,
    extensions_equivalent,
    lausch_alpha,
    order_preserving_section,
    point_coboundary_table,
    rook_monoid,
    sigma,
    validate_cocycle,
    validate_section,
)
from cartanlab.semigroup_core import dagger

I2 = rook_monoid(2)
k = 2
ext = Extension(I2, k)
print(f"extension of I_2 by mu_{k} phases: |G| = {len(ext.elements)}")

rng = random.Random(42)
points = sorted({(x, y) for s in I2 for x, y in s.pairs() if x != y})
table = point_coboundary_table(I2, k, {p: rng.randrange(k) for p in points})
print("perturbed cocycle valid:", validate_cocycle(I2, k, table).passed)

twisted = Extension(I2, k, table)
j = order_preserving_section(twisted)
rep = validate_section(twisted, j)
print("section passes (a)/(b)/(c):", rep.cond_a, rep.cond_b, rep.cond_c)
print("section respects inverses:", all(
    twisted.dagger(j[s]) == j[dagger(s)] for s in I2
))

print("\nsection phases under the twisted product:")
for s in I2:
    print(f"  j[{s}] phases = {list(j[s].phases)}")

swap = next(s for s in I2 if s.domain == 0b11 and s.image == (1, 0))
print("\nthe diagonal part Delta kills fixed-point-free elements:")
print("  Delta(j(swap)) =", delta(twisted, j, j[swap]))

print("\nthe section cocycle alpha lands in the phased identities:")
a = lausch_alpha(twisted, j, swap, swap)
print("  alpha(swap, swap) =", a)
print("  sigma(j(swap), swap) == alpha:", sigma(twisted, j, j[swap], swap) == a)

print("\ncohomology: the perturbed table is a coboundary of the trivial one")
witness = cohomologous(I2, k, None, table)  # None: the trivial (zero) table
print("  witness found:", witness is not None)

print("\nhence the two extensions are equivalent:")
w = extensions_equivalent(ext, twisted)
perm, theta, alpha_map = w
print("  atom permutation:", perm, " element pairs:", len(alpha_map))
