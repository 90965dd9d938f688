"""Twisted extensions of a finite inverse monoid by mu_k-phased partial
identities: cocycle tables, the twisted product, order-preserving sections,
the section cocycle alpha, the phase correction sigma, the diagonal part
Delta, and the cohomology/equivalence decision procedures.

This is the public path to the extension API.  The code lives in four
private modules, one per part, so that a command compiles only the part
it runs:

- ``_twist``, the core every document command reads: ``CocycleTable``,
  the dense phase rows and ``Extension`` with its coboundary witness;
- ``_cocycle``, the cocycle check ``validate`` runs, and the tables of
  point cocycles and point coboundaries;
- ``_section``, the section layer ``section`` and the numeric half read:
  ``Section``, its check, and sigma, alpha and Delta;
- ``_equiv``, the equivalence ``equiv`` runs: ``cohomologous`` and
  ``extensions_equivalent``.

No command executes this module.  The benchmark's tracer
(``perfbench/tracer.py``) reads the names it wraps here until it reads a
stage recorder instead (ROADMAP item 3); it rebinds each name in every
module that holds it, so the private modules' calls are traced too.
"""

from ._cocycle import CocycleReport, point_coboundary_table, point_cocycle_table, validate_cocycle
from ._equiv import EQUIV_GUARD, cohomologous, extensions_equivalent
from ._section import (
    Section,
    SectionReport,
    delta,
    lausch_alpha,
    order_preserving_section,
    sigma,
    validate_section,
)
from ._twist import CocycleTable, Extension

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
