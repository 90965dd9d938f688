"""The cocycle check of the extension API, which ``validate`` runs: support,
normalization and the cocycle identity of a table, decided on the points
of R, plus the tables induced by point cocycles and point coboundaries.

The public path to these names is ``cartanlab.extension``.
"""

from __future__ import annotations

from ._twist import CocycleTable, _phase_rows
from .errors import FormatError
from .semigroup_core import FiniteInverseMonoid, bits

__all__ = ["CocycleReport", "point_coboundary_table", "point_cocycle_table", "validate_cocycle"]


def point_coboundary_table(S: FiniteInverseMonoid, k: int, b_points: dict) -> CocycleTable:
    """Coboundary cocycle from a function on atom pairs.

    ``b_points[(x, y)]`` is a phase exponent for each off-diagonal related
    pair; diagonal values are zero.  This induces the restriction-compatible
    b(s)(y) = b_points[(s(y), y)], and the table is its coboundary: the
    point cocycle c(x, z, y) = b(x, z) + b(z, y) - b(x, y).
    """
    b = lambda x, y: b_points.get((x, y), 0)
    return point_cocycle_table(S, k, lambda x, z, y: b(x, z) + b(z, y) - b(x, y))


def point_cocycle_table(S: FiniteInverseMonoid, k: int, c_points) -> CocycleTable:
    """Table induced by a normalized 2-cocycle on composable atom triples:
    c(s,t)(y) = c_points(s(t(y)), t(y), y)."""
    els, mul, img = S.elements, S.mul, S.images
    entries = {}
    for i, s in enumerate(els):
        for j, t in enumerate(els):
            st = mul[i][j]
            if not els[st].domain:
                continue
            sty, ty = img[st], img[j]
            entries[(s, t)] = tuple(
                c_points(sty[y], ty[y], y) % k for y in bits(els[st].domain)
            )
    return CocycleTable(k, entries)


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
    value seen for that point triple.  For a local table the four terms of
    the identity at (s, t, u) and y are cp[x,z,y], cp[w,x,y], cp[w,x,z] and
    cp[w,z,y] on the chain w <- x <- z <- y of R with z = u(y), x = t(z),
    w = s(x), and every chain of R arises from some triple.  So the identity
    holds on all triples iff
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
    cp = [None] * n**3  # cp[(x*n + z)*n + y]: the phase on the points z <- y, x <- z
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
                key = (x_of[y] * n + z_of[y]) * n + y
                if cp[key] is None:
                    cp[key] = p
                elif cp[key] != p:
                    local = False

    violations = support + normalization
    if local and not violations and _point_identity_holds(n, k, cp, img):
        return CocycleReport(True, True, True)
    identity = _identity_violations(S, k, c)
    return CocycleReport(not support, not normalization, not identity, violations + identity)


def _point_identity_holds(n: int, k: int, cp: list, img: list) -> bool:
    """The cocycle identity of the point cocycle ``cp`` on every chain
    w <- x <- z <- y of R; ``img`` holds the dense image rows of S."""
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
