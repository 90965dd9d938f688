"""The cocycle check of the extension API, which ``validate`` runs: support,
normalization and the cocycle identity of a table, decided on the points
of R.

The public path to these names is ``cartanlab.extension``.
"""

from __future__ import annotations

from ._twist import CocycleTable, _phase_rows
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

    The verdict is decided on the points of R, the union of the graphs.
    One pass over the pairs of element ids (products from the Cayley table
    S.mul) checks support and normalization, and checks that the table is
    local: every phase c(s,t)(y) equals cp[s(t(y)), t(y), y], the first
    value seen for that point triple, kept in a dict of the composable
    point triples (sum b^3 over the blocks of R, not n^3).  For a local
    table the four terms of the identity at (s, t, u) and y are cp[x,z,y],
    cp[w,x,y], cp[w,x,z] and cp[w,z,y] on the chain w <- x <- z <- y of R
    with z = u(y), x = t(z), w = s(x), and every chain of R arises from
    some triple.  So the identity holds on all triples iff
        cp[x,z,y] + cp[w,x,y] - cp[w,x,z] - cp[w,z,y] = 0  (mod k)
    on every chain: sum b^4 checks over the blocks of R.  A table that
    fails support, normalization, locality or a chain gets the id-level
    loop over all triples, which lists the identity violations.

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
    n, els, mul, img, entries = S.atom_count, S.elements, S.mul, S.images, c.entries
    idem = set(S.idempotent_ids)
    atoms = S.domain_atoms
    support, normalization = [], []
    cp = {}  # cp[(x*n + z)*n + y]: the phase on the composable points z <- y, x <- z
    local = True
    for i, s in enumerate(els):
        for j, t in enumerate(els):
            st = mul[i][j]
            ys, arr = atoms[st], entries.get((s, t))
            if not ys:
                if arr:
                    support.append(("support", s, t))
                continue
            if arr is None:
                raise FormatError(f"missing cocycle entry for ({s}, {t})")
            if len(arr) != len(ys) or any(not 0 <= p < k for p in arr):
                support.append(("support", s, t))
            if (i in idem or j in idem) and any(arr):
                normalization.append(("normalization", s, t))
            x_of, z_of = img[st], img[j]
            for y, p in zip(ys, arr):
                if cp.setdefault((x_of[y] * n + z_of[y]) * n + y, p) != p:
                    local = False

    violations = support + normalization
    if local and not violations and _point_identity_holds(n, k, cp, img):
        return CocycleReport(True, True, True)
    identity = _identity_violations(S, k, c)
    return CocycleReport(not support, not normalization, not identity, violations + identity)


def _point_identity_holds(n: int, k: int, cp: dict, img: list) -> bool:
    """The cocycle identity of the point cocycle ``cp`` on every chain
    w <- x <- z <- y of R; ``img`` holds the dense image rows of S.  In a
    closed S every triple of a chain is composable, so ``cp`` holds it."""
    succ = [sorted({row[y] for row in img} - {-1}) for y in range(n)]  # x with (x, y) in R
    for y in range(n):
        for z in succ[y]:
            for x in succ[z]:
                c_xzy = cp[(x * n + z) * n + y]
                for w in succ[x]:
                    wx = (w * n + x) * n
                    if (c_xzy + cp[wx + y] - cp[wx + z] - cp[(w * n + z) * n + y]) % k:
                        return False
    return True


def _identity_violations(S: FiniteInverseMonoid, k: int, c: CocycleTable) -> list:
    """The id-level identity loop: every triple (s, t, u) whose identity
    fails at some atom, in element order, reading the table's dense rows."""
    els, mul, img = S.elements, S.mul, S.images
    rows, atoms = _phase_rows(S, c), S.domain_atoms
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
