"""Boolean/complete/Cartan axiom verification.  The atom relation
(``groupoid_relation``) is defined in ``semigroup_core``, which the numeric
half imports without this module, and is re-exported here.  Stone duality
at finite scale (the rebase onto the lattice atoms of E(S)) and the chop
partition refinement, which no command runs, are in ``exact_library``.

The character space of a finite Boolean algebra is its set of lattice atoms,
so every topological condition degenerates to combinatorics here: the
hyperstonean requirement is vacuous for a finite discrete space and is
reported as such rather than checked.  Finiteness also makes (d), joins of
orthogonal families, equivalent to (c), joins of orthogonal pairs, so (d) is
reported from (c).  Whether S holds every meet and every orthogonal join
is decided on the monoid (``FiniteInverseMonoid.missing_meet`` and
``missing_join``), which the spectral trace index reads too.
"""

from __future__ import annotations

import itertools

from .semigroup_core import (
    FiniteInverseMonoid,
    GroupoidRelation,
    PartialBijection,
    classify,
    groupoid_relation,
    partial_identity,
)

__all__ = [
    "AxiomReport",
    "GroupoidRelation",
    "check_axioms",
    "groupoid_relation",
    "idempotent_atoms",
]


def idempotent_atoms(S: FiniteInverseMonoid) -> list[PartialBijection]:
    """Minimal nonzero idempotents of E(S), in element order; for
    idempotents f <= e iff dom f lies inside dom e."""
    idem = [e for e in S.idempotents() if e.domain]
    return [e for e in idem if not any(f.domain != e.domain and not f.domain & ~e.domain for f in idem)]


class CheckItem:
    def __init__(self, passed: bool, witness=None, note: str = ""):
        self.passed = passed
        self.witness = witness
        self.note = note

    def __bool__(self):
        return self.passed

    def render(self):
        tail = ""
        if not self.passed and self.witness is not None:
            tail = f" witness={self.witness}"
        if self.note:
            tail += f" ({self.note})"
        return ("pass" if self.passed else "FAIL") + tail


class AxiomReport:
    """Witness-carrying pass/fail record for the Boolean monoid axioms."""

    def __init__(self, boolean_a, boolean_b, boolean_c, locally_complete, complete_d, fundamental, cartan):
        self.boolean_a = boolean_a
        self.boolean_b = boolean_b
        self.boolean_c = boolean_c
        self.locally_complete = locally_complete
        self.complete_d = complete_d
        self.fundamental = fundamental
        self.cartan = cartan

    @property
    def passed(self) -> bool:
        return bool(
            self.boolean_a
            and self.boolean_b
            and self.boolean_c
            and self.locally_complete
            and self.complete_d
        )

    def to_lines(self):
        return [
            f"boolean_a: {self.boolean_a.render()}",
            f"boolean_b: {self.boolean_b.render()}",
            f"boolean_c: {self.boolean_c.render()}",
            f"locally_complete: {self.locally_complete.render()}",
            f"complete_d: {self.complete_d.render()}",
            f"fundamental: {self.fundamental}",
            "hyperstonean: pass (finite discrete space)",
            f"cartan: {self.cartan}",
        ]

    def failures(self) -> dict:
        """Each failed axiom, by the name the text report prints, with the
        witness and note that follow its FAIL there."""
        items = {
            "boolean_a": self.boolean_a,
            "boolean_b": self.boolean_b,
            "boolean_c": self.boolean_c,
            "locally_complete": self.locally_complete,
            "complete_d": self.complete_d,
        }
        return {
            name: {"witness": None if item.witness is None else str(item.witness), "note": item.note}
            for name, item in items.items()
            if not item
        }


def _boolean_algebra_item(S: FiniteInverseMonoid, atoms: list) -> CheckItem:
    """E(S) must be the full power set over its lattice atoms ``atoms``."""
    idem_masks = {e.domain for e in S.idempotents()}
    supports = [e.domain for e in atoms]
    union = 0
    for msk in supports:
        if union & msk:
            return CheckItem(False, witness=msk, note="atoms overlap")
        union |= msk
    if union != (1 << S.atom_count) - 1:
        return CheckItem(False, witness=union, note="atoms do not cover the unit")
    for r in range(len(supports) + 1):
        for combo in itertools.combinations(supports, r):
            msk = 0
            for c in combo:
                msk |= c
            if msk not in idem_masks:
                return CheckItem(
                    False,
                    witness=partial_identity(S.atom_count, msk),
                    note="missing idempotent",
                )
    if len(idem_masks) != 1 << len(supports):
        extra = len(idem_masks) - (1 << len(supports))
        return CheckItem(False, note=f"{extra} idempotents are not unions of atoms")
    return CheckItem(True)


def check_axioms(S: FiniteInverseMonoid) -> AxiomReport:
    """Verify the Boolean inverse monoid axioms (a)-(d) plus the Cartan ones.

    (a) E(S) is a Boolean algebra (full power set after atom extraction);
    (b) every pair has a meet in S; (c) orthogonal pairs have joins in S;
    (d) orthogonal families have joins in S.  For finite S, (d) holds iff
    (c) does (joins of pairs give every finite join, by induction), so (d)
    carries (c)'s verdict and witness; no family is enumerated.  (b) and (c)
    read the monoid's graph views: (b) fails with ``S.missing_meet``, the
    pair {u, 1} of the first u whose meet with 1 is missing (S is closed, so
    every meet s ^ t = s (s^dag t ^ 1) is in S iff each u ^ 1 is), and (c)
    with ``S.missing_join``, the first orthogonal pair whose join is
    missing.  No meet or join is built.
    Failures are report entries carrying witnesses, never exceptions.
    """
    report_cls = classify(S)

    atoms = idempotent_atoms(S)
    a = _boolean_algebra_item(S, atoms)

    b = CheckItem(S.missing_meet is None, witness=S.missing_meet)
    c = CheckItem(S.missing_join is None, witness=S.missing_join)

    # finite Boolean algebras are complete, so local completeness rides on (a)
    locally = CheckItem(a.passed, note="E(S) finite" if a.passed else "E(S) not Boolean")

    # S is finite, so (d) rides on (c): the join of the first m - 1 members of
    # an orthogonal family is orthogonal to the m-th, and a pair is a family
    d = CheckItem(c.passed, witness=c.witness, note="S finite: from (c)")

    cartan = bool(report_cls.fundamental and a and b and c and locally and d)
    return AxiomReport(
        boolean_a=a,
        boolean_b=b,
        boolean_c=c,
        locally_complete=locally,
        complete_d=d,
        fundamental=report_cls.fundamental,
        cartan=cartan,
    )
