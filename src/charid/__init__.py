"""Characteristic identities and Gelfand-Tsetlin representations for gl(n)
and gl(m|n): closed-form generator matrices, polynomial identity checks,
spectral projectors, branching invariants and star classification."""

from .kernel import (
    ConsistencyError,
    DegeneratePatternError,
    DegenerateRootError,
    DimensionError,
    DomainError,
    SchurViolationError,
    Surd,
    Tolerance,
    commutator,
    matrix_power,
    max_abs,
    partial_trace_block,
)
from .gtbasis import (
    GTPattern,
    Weight,
    branch,
    check_highest_weight,
    dimension,
    enumerate_patterns,
    pattern_weight,
    weight,
)
from .glrep import (
    Representation,
    casimir_eigenvalue_formula,
    elementary_coefficient,
    gl_block_matrix,
    nonelementary_coefficient,
)
from .charident import (
    KIND_A,
    KIND_ABAR,
    KIND_GENERAL,
    CharMatrix,
    DualVectorRep,
    Projector,
    Root,
    build_char_matrix,
    build_projector,
    build_projectors,
    casimir_sigma,
    char_roots,
    dual_vector_weight,
    elementary_square_from_invariants,
    general_root_candidates,
    invariant_C_eigenvalue,
    invariant_M_eigenvalue,
    restricted_projector,
    shift_components,
    vector_weight,
    verify_identity,
)
from .superglmn import (
    StarClassification,
    SuperWeight,
    classify_type1_star,
    compose_type1_weight,
    parity,
    super_char_matrix,
    super_char_roots,
    super_vector_weight,
    vector_rep,
    verify_super_identity,
)
from .verify import SUITE_NAMES, CheckRecord, VerificationReport, run_suite

__version__ = "0.1.0"
