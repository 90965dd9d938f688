"""cartanlab: a desk-scale laboratory for finite inverse monoids realized as
partial bijections, their phase extensions, and the matrix algebras they
generate.

The package validates the Boolean/complete/Cartan axioms, builds
order-preserving sections and the projection-valued kernel, represents
extensions as explicit complex matrices, verifies the MASA/expectation
structure of the generated pair against brute-force linear algebra, and
classifies diagonal-invariant subspaces and maximal subdiagonal algebras
through spectral sets.

Every export is served on first access, through ``__getattr__``: importing
the package executes none of its modules and loads no numpy, and a name
executes only the module that defines it (with that module's own imports).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_LAZY = {
    "boolean_monoid": "AxiomReport check_axioms",
    "errors": "CartanLabError ClosureError DomainError FormatError InvariantViolation "
    "OrthogonalityError SizeGuardError StructuralError",
    "exact_library": "chop meet meet_complement orthogonal_join",
    "extension": "CocycleTable Extension Section cohomologous delta extensions_equivalent "
    "lausch_alpha order_preserving_section point_coboundary_table point_cocycle_table sigma "
    "validate_cocycle validate_section",
    "generators": "eqrel_monoid product_monoid rook_monoid",
    "semigroup_core": "FiniteInverseMonoid GroupoidRelation PartialBijection PhasedElement "
    "classify compose dagger groupoid_relation identity_map natural_leq partial_identity "
    "singleton zero_map",
    "kernel_rep": "RBasis RepSpace dump_matrix expectation lambda_matrix",
    "numeric_library": "abstract_gram_check aoi_correspondence full_submonoids "
    "intermediate_algebra_check join_span kernel kernel_psd_check",
    "spectral_bimodule": "enumerate_spectral_sets msd mtr psi spectral_closure theta verify_subdiagonal",
    "vn_oracle": "MatrixAlgebra cartan_report expectation_properties masa_check recover_extension "
    "span_basis",
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names.split()}
__all__ = [*_LAZY, *_MODULE_OF]


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
