"""Twisted extensions of a finite inverse monoid by mu_k-phased partial
identities: cocycle tables, the twisted product, order-preserving sections,
the section cocycle alpha, the phase correction sigma, the diagonal part
Delta, and the cohomology/equivalence decision procedures.

This is the public path to the extension API.  The code lives in four
private modules, one per part, so that a command compiles only the part
it runs, and in the exact library, which no command runs:

- ``_twist``, the core every document command reads: ``CocycleTable``
  and ``Extension``, which stores the twist once, as the table's point
  cocycle, and reads its product and coboundary witness from it;
- ``_cocycle``, the cocycle check ``validate`` runs;
- ``_section``, the section layer ``section`` and the numeric half read:
  ``Section``, its check, and Delta;
- ``_equiv``, the equivalence ``equiv`` runs: ``extensions_equivalent``;
- ``exact_library``: the tables of point cocycles and point coboundaries,
  the element-level sigma and alpha, and ``cohomologous``.

No command executes this module.  The benchmark's tracer
(``perfbench/tracer.py``) reads the names it wraps here until it reads a
stage recorder instead (ROADMAP item 3); it rebinds each name in every
module that holds it, so the private modules' calls are traced too.
"""

from ._cocycle import CocycleReport, validate_cocycle
from ._equiv import EQUIV_GUARD, extensions_equivalent
from ._section import Section, SectionReport, delta, order_preserving_section, validate_section
from ._twist import CocycleTable, Extension
from .exact_library import cohomologous, lausch_alpha, point_coboundary_table, point_cocycle_table, sigma

__all__ = [
    "CocycleTable",
    "Extension",
    "Section",
    "point_coboundary_table",
    "point_cocycle_table",
    "validate_cocycle",
    "order_preserving_section",
    "validate_section",
    "lausch_alpha",
    "sigma",
    "delta",
    "cohomologous",
    "extensions_equivalent",
    "EQUIV_GUARD",
]
