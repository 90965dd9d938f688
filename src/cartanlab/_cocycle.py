"""The cocycle check of the extension API, which ``validate`` runs: support,
normalization and the cocycle identity of a table, decided on the points
of R by the table's point pass and its closed-form coboundary solve
(``_twist._point_pass``), with the id-level loop that lists the witnesses.

The public path to these names is ``cartanlab.extension``.
"""

from __future__ import annotations

from ._twist import CocycleTable, _dense, _point_pass
from .errors import FormatError
from .semigroup_core import FiniteInverseMonoid

__all__ = ["CocycleReport", "validate_cocycle"]


class CocycleReport:
    def __init__(self, supported: bool, normalized: bool, identity_holds: bool, violations=()):
        self.supported = supported
        self.normalized = normalized
        self.identity_holds = identity_holds
        self.violations = list(violations)

    def __eq__(self, other):
        return isinstance(other, CocycleReport) and vars(self) == vars(other)

    @property
    def passed(self):
        return self.supported and self.normalized and self.identity_holds

    def shown(self) -> list[str]:
        """The violations the text report lists: the first 10."""
        return [str(v) for v in self.violations[:10]]

    def to_lines(self):
        lines = [
            f"cocycle_support: {'pass' if self.supported else 'FAIL'}",
            f"cocycle_normalized: {'pass' if self.normalized else 'FAIL'}",
            f"cocycle_identity: {'pass' if self.identity_holds else 'FAIL'}",
        ]
        return lines + [f"  violated: {v}" for v in self.shown()]


def validate_cocycle(S: FiniteInverseMonoid, k: int, c: CocycleTable | None) -> CocycleReport:
    """Check support, normalization, and the cocycle identity on all triples.

    The identity, pointwise on dom(stu):
        c(t,u)(y) + c(s,tu)(y) = c(s,t)(u(y)) + c(st,u)(y)  (mod k)

    The verdict is decided by the table's point pass
    (``_twist._point_pass``), which needs no one-point maps: a table passes
    when it is supported, normalized and local, and its point cocycle is
    delta b for the closed-form b.  The identity at (s, t, u) and y reads
    cp on the chain w <- x <- z <- y of R (z = u(y), x = t(z), w = s(x)),
    and holds on every chain iff cp = delta b.  Any other table gets the
    id-level loop over all triples, which lists the identity violations.

    Violations are listed in (s, t) or (s, t, u) element order: support,
    then normalization, then identity.  A missing entry raises FormatError;
    everything else lands in the report.  The trivial twist, c None, is the
    zero table: supported, normalized, and every term of the identity
    vanishes, so it passes without a loop.
    """
    if c is None:
        return CocycleReport(True, True, True)
    if c.k != k:
        raise FormatError(f"cocycle table has k={c.k}, expected {k}")
    support, normalization, _, b = _point_pass(S, k, c)
    if b is not None:
        return CocycleReport(True, True, True)
    identity = _identity_violations(S, k, c)
    return CocycleReport(not support, not normalization, not identity, support + normalization + identity)


def _identity_violations(S: FiniteInverseMonoid, k: int, c: CocycleTable) -> list:
    """The id-level identity loop: every triple (s, t, u) whose identity
    fails at some atom, in element order.

    The loop reads a table that need not be local, so it keeps its own
    dense view: rows[i][j][y] = c(e_i, e_j) at atom y, zero at an empty
    product and off dom(e_i e_j), all-zero entries sharing one row.  An
    entry with fewer phases than dom(e_i e_j) has atoms raises FormatError.
    """
    n, els, mul, img = S.atom_count, S.elements, S.mul, S.images
    zero, rows = [0] * n, []
    for s, mrow in zip(els, mul):
        row = []
        for t, st in zip(els, mrow):
            dom, arr = els[st].domain, c.entries.get((s, t), ())
            if len(arr) < dom.bit_count():
                raise FormatError(f"cocycle entry for ({s}, {t}) has too few phases")
            row.append(_dense(n, dom, arr) if dom and any(arr) else zero)
        rows.append(row)
    atoms = S.domain_atoms
    violations = []
    for i, s in enumerate(els):
        row_s = rows[i]
        for j, t in enumerate(els):
            st = mul[i][j]
            if not atoms[st]:
                continue
            c_st, row_t, row_st, mul_st, mul_t = row_s[j], rows[j], rows[st], mul[st], mul[j]
            for l, u in enumerate(els):
                c_tu, c_s_tu, c_st_u, u_img = row_t[l], row_s[mul_t[l]], row_st[l], img[l]
                for y in atoms[mul_st[l]]:
                    if (c_tu[y] + c_s_tu[y] - c_st[u_img[y]] - c_st_u[y]) % k:
                        violations.append(("identity", s, t, u))
                        break
    return violations
