"""Equivalence in the extension API, which ``equiv`` runs: cohomology of two
tables and equivalence of two extensions, each from coboundary witnesses.

The public path to these names is ``cartanlab.extension``.
"""

from __future__ import annotations

from ._twist import CocycleTable, Extension, _coboundary_witness, _one_point_maps, _phase_rows
from .errors import SizeGuardError
from .semigroup_core import FiniteInverseMonoid, PhasedElement, bits, relabelings

__all__ = ["EQUIV_GUARD", "cohomologous", "extensions_equivalent"]

EQUIV_GUARD = 40


def cohomologous(S: FiniteInverseMonoid, k: int, c1: CocycleTable | None, c2: CocycleTable | None):
    """Find b with c2(s,t) = c1(s,t) + b(s) o t + b(t) - b(st) (mod k);
    a table given as None is the zero table.

    Normalization forces any witness to be restriction compatible, hence
    determined by its values on one-point maps: a function b on related atom
    pairs vanishing on the diagonal.  The difference table is likewise
    forced to be graph-local, so b can be solved in closed form by gauge
    fixing against a root atom of each block: b(x, z) := d(x, z, r), where
    d(x, z, y) is the difference entry on the singleton pair z<-y, x<-z.
    Any other witness differs from this one by a gauge term that does not
    change the coboundary, so the construction is complete: if verification
    of the candidate fails, no witness exists.

    The check of the candidate runs over element ids, reading products
    from the Cayley table S.mul and phases from both tables' dense rows.
    When both tables are None the witness is zero and no pair is read.

    Returns b as a dict s -> phase tuple, or None if not cohomologous.
    """
    singles = _one_point_maps(S)
    if c1 is None and c2 is None:
        return {s: (0,) * s.domain.bit_count() for s in S}
    b = _coboundary_witness(S, k, singles, _phase_rows(S, c1), _phase_rows(S, c2))
    return None if b is None else {s: tuple(b[i][y] for y in S.domain_atoms[i]) for i, s in enumerate(S)}


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
    its extension is equivalent to none.
    """
    if ext1.k != ext2.k:
        return None
    S1, S2 = ext1.S, ext2.S
    if len(S1) != len(S2) or S1.atom_count != S2.atom_count:
        return None
    if len(S1) > guard:
        raise SizeGuardError(len(S1), guard, "monoid size for equivalence search (--guard)")
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
