"""Equivalence in the extension API, which ``equiv`` runs: equivalence of
two extensions, from their coboundary witnesses.

The public path to these names is ``cartanlab.extension``.
"""

from __future__ import annotations

from ._twist import Extension
from .errors import SizeGuardError
from .semigroup_core import PhasedElement, bits, relabelings

__all__ = ["EQUIV_GUARD", "extensions_equivalent"]

EQUIV_GUARD = 40


def extensions_equivalent(ext1: Extension, ext2: Extension, guard: int = EQUIV_GUARD):
    """Decide equivalence of two extensions; return a witness or None.

    A witness is (perm, theta, alpha): the first atom permutation carrying
    S1 onto S2 (complete for fundamental monoids in canonical form), the
    monoid isomorphism theta it induces, and the isomorphism alpha : G1 ->
    G2 with q2(alpha(v)) = theta(q1(v)), fixing the phased identities
    through the relabeling.  With c1 = delta b1 and c2 = delta b2
    (``Extension.coboundary``), delta commutes with the relabeling, so
    alpha(s, a) = (theta(s), a o perm^-1 + b1 o theta^-1 - b2); no table is
    transported.  A table that is not a coboundary is not a cocycle, and
    its extension is equivalent to none.  A monoid that is not closed raises
    ClosureError with its first witness, S1's before S2's, after the size
    guard and before the search.
    """
    if ext1.k != ext2.k:
        return None
    S1, S2 = ext1.S, ext2.S
    if len(S1) != len(S2) or S1.atom_count != S2.atom_count:
        return None
    if len(S1) > guard:
        raise SizeGuardError(len(S1), guard, "monoid size for equivalence search (--guard)")
    S1.check_closed()
    S2.check_closed()
    found = next(relabelings(S1, S2), None)
    if found is None:
        return None
    b1, b2 = ext1.coboundary, ext2.coboundary
    if b1 is None or b2 is None:
        return None

    perm, theta = found
    k, n = ext1.k, S1.atom_count
    inv_perm = tuple(perm.index(i) for i in range(n))
    alpha = {}
    for v in ext1.elements:
        s2 = theta[v.bij]
        r1, r2 = b1[S1.index[v.bij]], b2[S2.index[s2]]
        alpha[v] = PhasedElement(
            s2, tuple((v.phase_at(inv_perm[y]) + r1[inv_perm[y]] - r2[y]) % k for y in bits(s2.domain))
        )
    return perm, theta, alpha
