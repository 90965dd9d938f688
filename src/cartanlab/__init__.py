"""cartanlab: a desk-scale laboratory for finite inverse monoids realized as
partial bijections, their phase extensions, and the matrix algebras they
generate.

The package validates the Boolean/complete/Cartan axioms, builds
order-preserving sections and the projection-valued kernel, represents
extensions as explicit complex matrices, verifies the MASA/expectation
structure of the generated pair against brute-force linear algebra, and
classifies diagonal-invariant subspaces and maximal subdiagonal algebras
through spectral sets.

The names of the numeric modules (kernel_rep, vn_oracle, spectral_bimodule)
are served on first access, through ``__getattr__``: importing the package
for the exact half loads neither them nor numpy.
"""

from importlib import import_module as _import_module

from .boolean_monoid import (
    AxiomReport,
    GroupoidRelation,
    beta,
    check_axioms,
    chop,
    groupoid_relation,
)
from .errors import (
    CartanLabError,
    ClosureError,
    DomainError,
    FormatError,
    InvariantViolation,
    OrthogonalityError,
    SizeGuardError,
    StructuralError,
)
from .extension import (
    CocycleTable,
    Extension,
    Section,
    cohomologous,
    coboundary_table,
    delta,
    extensions_equivalent,
    g_meet,
    g_natural_leq,
    is_trivial_cocycle,
    lausch_alpha,
    order_preserving_section,
    point_coboundary_table,
    point_cocycle_table,
    sigma,
    trivial_cocycle,
    validate_cocycle,
    validate_section,
)
from .generators import eqrel_monoid, product_monoid, rook_monoid
from .semigroup_core import (
    FiniteInverseMonoid,
    PartialBijection,
    PhasedElement,
    classify,
    compose,
    dagger,
    identity_map,
    leech_idempotent,
    meet,
    meet_complement,
    munn_quotient,
    natural_leq,
    orthogonal_join,
    partial_identity,
    relative_complement,
    singleton,
    zero_map,
)

__version__ = "0.1.0"

_LAZY = {
    "kernel_rep": (
        "RBasis",
        "RepSpace",
        "abstract_gram_check",
        "dump_matrix",
        "expectation",
        "kernel",
        "kernel_psd_check",
        "lambda_matrix",
        "projection_P_and_V",
    ),
    "spectral_bimodule": (
        "Bimodule",
        "aoi_correspondence",
        "enumerate_spectral_sets",
        "full_submonoids",
        "intermediate_algebra_check",
        "is_spectral_set",
        "join_span",
        "msd",
        "mtr",
        "psi",
        "spectral_closure",
        "theta",
        "verify_members",
        "verify_subdiagonal",
    ),
    "vn_oracle": (
        "MatrixAlgebra",
        "cartan_report",
        "expectation_properties",
        "masa_check",
        "recover_extension",
        "span_basis",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}
__all__ = [name for name in globals() if not name.startswith("_")] + [*_LAZY, *_MODULE_OF]


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
