"""covar: exact construction and verification of localized equivariant
isomorphisms from generically independent covariants of linear group
actions, with generation, testing, and relation machinery for covariant
families of finite and generic classical matrix groups."""

from .action import (
    ActionError,
    Character,
    ClosureCapError,
    FiniteGroupAction,
    SymbolicGroupAction,
    det_w_inverse_character,
    extend_finite_action,
    make_finite_group,
    symbolic_general_linear,
)
from .covariant import (
    Covariant,
    CovariantError,
    DependentCovariantsError,
    RelativeInvariant,
    UnverifiedCovariantError,
    covariant_matrix,
    coordinate_matrix,
    det_relative_invariant,
    generic_independence,
    verified,
    verify_equivariance,
)
from .exactalg import (
    DegreeOverflowError,
    DimensionError,
    ExactAlgError,
    ExactDivisionError,
    Matrix,
    ParseError,
    Poly,
    PrimeField,
    RatFn,
    poly_gcd,
    poly_lcm,
)
from .forge import (
    ForgeError,
    GenerationExhaustedError,
    ModularObstructionError,
    clear_denominators,
    example_family,
    generate_covariants,
    lift_through_projection,
    reynolds_project,
)
from .noname import (
    IsomorphismError,
    NoNameMap,
    build_isomorphism,
    covariants_from_generators,
    linearize_isomorphism,
    verify_isomorphism,
)
from .reflect import (
    IndependenceCertificate,
    NoDependenceError,
    Reflection,
    Relation,
    descend_to_invariant_relation,
    find_reflections,
    lower_relation,
    module_independence_verdict,
    relation_over_function_field,
    relative_invariant_relation,
)
from .report import Check, Report

__version__ = "0.1.0"
