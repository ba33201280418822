"""Characteristic identities and Gelfand-Tsetlin representations for gl(n)
and gl(m|n): closed-form generator matrices, polynomial identity checks,
spectral projectors, branching invariants and star classification.

Each public name is loaded from its module on first use, so that
`import charid.cli` compiles no more than the command line needs.
"""

from .kernel import late_names as _late_names

_PUBLIC = {
    "kernel": "ConsistencyError DegeneratePatternError DegenerateRootError DimensionError "
              "DomainError SchurViolationError Surd Tolerance max_abs KIND_A KIND_ABAR "
              "SUITE_NAMES",
    "gtbasis": "GTPattern Weight branch check_highest_weight dimension weight",
    "glrep": "Representation casimir_eigenvalue_formula",
    "charident": "KIND_GENERAL CharMatrix DualVectorRep Projector Root build_char_matrix "
                 "CheckRecord casimir_sigma char_roots dual_vector_weight "
                 "general_root_candidates vector_weight verify_identity",
    "superglmn": "StarClassification SuperWeight classify_type1_star compose_type1_weight "
                 "parity super_char_roots super_vector_weight vector_rep "
                 "verify_super_identity",
    "verify": "VerificationReport run_suite",
}
__all__ = sorted(name for names in _PUBLIC.values() for name in names.split())
__getattr__ = _late_names(globals(), _PUBLIC)[1]


def __dir__():
    return list(__all__)


__version__ = "0.1.0"
