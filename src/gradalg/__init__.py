"""Graded algebra engine: group cohomology over the roots of unity, twisted
group algebras, graded matrix algebras, embedding/isomorphism decisions and
degree-bounded multilinear identity spaces."""

from .cocycles import (
    ExpCocycle,
    ExpFunction,
    H2Description,
    class_order,
    classes_equivalent,
    coboundary_from,
    conjugate_class,
    extend_class,
    h2_over_Fstar,
    is_cocycle,
    restrict,
    trivial_cocycle,
)
from .config import EngineConfig, load_config

# no library code calls fieldlin; it loads with the package because the
# tests use it as their exact oracle and the benchmark's tracer wraps its
# rref and kernel_basis
from . import fieldlin  # noqa: F401
from .cyclo import CycloField, CycloNumber, cyclo_field
from .embed import (
    DecisionReport,
    MatrixEmbedWitness,
    SquareReport,
    TgaEmbedWitness,
    TowerReport,
    as_matrix_algebra,
    build_tower,
    matrix_embed,
    matrix_iso,
    product_embed,
    twisted_embed,
    twisted_iso,
    verify_graded_isomorphism,
    verify_graded_monomorphism,
)
from .errors import GradalgError, HypothesisError, ValidationError
from .graded import GradedElement, GradedMap
from .groups import (
    FiniteGroup,
    Subgroup,
    cyclic,
    dihedral,
    enumerate_subgroups,
    normalizer,
    product,
    quaternion8,
    symmetric,
)
from .identities import (
    ContainmentReport,
    DegreeAssignment,
    GradedMultilinearPoly,
    IdentitySpace,
    evaluate,
    identity_space,
    multilinear_containment,
)
from .matalg import (
    GradedMatrixAlgebra,
    LambdaWitness,
    MatBasisElt,
    lambda_membership,
    regrade_iso,
)
from .twisted import TwistedGroupAlgebra

__version__ = "0.1.0"

__all__ = [
    "CycloField",
    "CycloNumber",
    "ContainmentReport",
    "DecisionReport",
    "DegreeAssignment",
    "EngineConfig",
    "ExpCocycle",
    "ExpFunction",
    "FiniteGroup",
    "GradalgError",
    "GradedElement",
    "GradedMap",
    "GradedMatrixAlgebra",
    "GradedMultilinearPoly",
    "H2Description",
    "HypothesisError",
    "IdentitySpace",
    "LambdaWitness",
    "MatBasisElt",
    "MatrixEmbedWitness",
    "SquareReport",
    "Subgroup",
    "TgaEmbedWitness",
    "TowerReport",
    "TwistedGroupAlgebra",
    "ValidationError",
    "as_matrix_algebra",
    "build_tower",
    "class_order",
    "classes_equivalent",
    "coboundary_from",
    "conjugate_class",
    "cyclic",
    "cyclo_field",
    "dihedral",
    "enumerate_subgroups",
    "evaluate",
    "extend_class",
    "h2_over_Fstar",
    "identity_space",
    "is_cocycle",
    "lambda_membership",
    "load_config",
    "matrix_embed",
    "matrix_iso",
    "multilinear_containment",
    "normalizer",
    "product",
    "product_embed",
    "quaternion8",
    "regrade_iso",
    "restrict",
    "symmetric",
    "trivial_cocycle",
    "twisted_embed",
    "twisted_iso",
    "verify_graded_isomorphism",
    "verify_graded_monomorphism",
]
