"""charid's public names are the objects its commands and suites use.  The
dense views, per-index forms and scalar references that only tests and
the benchmark's tracer call stay in their modules, outside that list."""

import importlib
import types

import pytest

import charid

PUBLIC = {
    "CharMatrix", "CheckRecord", "ConsistencyError", "DegeneratePatternError",
    "DegenerateRootError", "DimensionError", "DomainError", "DualVectorRep", "GTPattern",
    "KIND_A", "KIND_ABAR", "KIND_GENERAL", "Projector", "Representation", "Root",
    "SUITE_NAMES", "SchurViolationError", "StarClassification", "SuperWeight", "Surd",
    "Tolerance", "VerificationReport", "Weight", "branch", "build_char_matrix",
    "build_projectors", "casimir_eigenvalue_formula", "casimir_sigma", "char_roots",
    "check_highest_weight", "classify_type1_star", "compose_type1_weight", "dimension",
    "dual_vector_weight", "general_root_candidates", "max_abs", "parity", "run_suite",
    "super_char_roots", "super_vector_weight", "vector_rep", "vector_weight",
    "verify_identity", "verify_super_identity", "weight",
}

MODULE_ONLY = [
    ("kernel", "commutator"), ("kernel", "matrix_power"), ("kernel", "partial_trace_block"),
    ("gtbasis", "enumerate_patterns"), ("gtbasis", "pattern_weight"),
    ("glrep", "gl_block_matrix"), ("glrep", "elementary_coefficient"),
    ("glrep", "nonelementary_coefficient"),
    ("charident", "restricted_projector"), ("charident", "build_projector"),
    ("charident", "shift_components"), ("charident", "elementary_square_from_invariants"),
    ("charident", "invariant_C_eigenvalue"), ("charident", "invariant_M_eigenvalue"),
    ("superglmn", "super_char_matrix"),
]


def test_public_names_are_the_kept_ones():
    names = {name for name, value in vars(charid).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 45
    assert names == PUBLIC


@pytest.mark.parametrize("module_name, name", MODULE_ONLY)
def test_module_only_name_imports_from_its_module(module_name, name):
    assert name not in PUBLIC and not hasattr(charid, name)
    value = getattr(importlib.import_module(f"charid.{module_name}"), name)
    assert callable(value) and value.__module__ == f"charid.{module_name}"
