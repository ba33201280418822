"""Library refusals: each function called with an argument outside its
domain raises DomainError with its message, and a coproduct matrix that
does not match its candidate roots raises ConsistencyError."""

import re

import pytest

from charid.charident import (
    KIND_A,
    KIND_GENERAL,
    CharMatrix,
    DualVectorRep,
    build_char_matrix,
    build_projector,
    casimir_sigma,
    char_roots,
    elementary_square_from_invariants,
    general_root_candidates,
    invariant_C_eigenvalue,
    invariant_M_eigenvalue,
    invariant_tables,
    restricted_projector,
    shift_components,
)
from charid.cli import main, render_json
from charid.glrep import Representation, gl_block_entries, nonelementary_coefficient
from charid.gtbasis import GTPattern, check_highest_weight, weight
from charid.kernel import ConsistencyError, DomainError
from charid.shifts import ShiftBatch
from charid.superglmn import SuperWeight, _super_blocks, super_char_roots, vector_rep
from charid.verify import run_suite

LAM = (2, 1, 0)
REP = Representation(LAM)
GL1 = Representation((1,))
CM = build_char_matrix(REP, KIND_A)
# (2,1,0) over (2,0) over (1): a pattern of three rows
PATTERN = GTPattern(tuple(weight(row) for row in (LAM, (2, 0), (1,))))
ONE_ROW = GTPattern((weight((1,)),))

REFUSALS = {
    "build_char_matrix unknown kind": (
        lambda: build_char_matrix(REP, "B"), "unknown characteristic matrix kind 'B'"),
    "build_char_matrix general without aux": (
        lambda: build_char_matrix(REP, KIND_GENERAL),
        "general kind needs an auxiliary representation"),
    "build_char_matrix general with another N": (
        lambda: build_char_matrix(REP, KIND_GENERAL, aux=DualVectorRep(2)),
        "auxiliary representation must share the algebra size"),
    "DualVectorRep(0)": (lambda: DualVectorRep(0), "dual vector representation needs n >= 1"),
    "general_root_candidates of two N": (
        lambda: general_root_candidates(LAM, (1, 0)), "lam and mu must belong to the same gl(n)"),
    "char_roots unknown kind": (
        lambda: char_roots(LAM, "B"), "unknown characteristic matrix kind 'B'"),
    "char_roots general without mu": (
        lambda: char_roots(LAM, KIND_GENERAL),
        "general kind needs the auxiliary highest weight mu"),
    "casimir_sigma order 0": (
        lambda: casimir_sigma(REP, 0), "Casimir order must be >= 1, got 0"),
    "build_projector r = 0": (
        lambda: build_projector(CM, char_roots(LAM, KIND_A), 0), "root index 0 outside 1..3"),
    "restricted_projector r out of range": (
        lambda: restricted_projector(REP, 2, 3, KIND_A), "component index 3 outside 1..2"),
    "restricted_projector unknown kind": (
        lambda: restricted_projector(REP, 2, 1, "B"), "unknown kind 'B'"),
    "shift_components r out of range": (
        lambda: shift_components(REP, 3), "component index 3 outside 1..2"),
    "shift_components on gl(1)": (
        lambda: shift_components(GL1, 1),
        "shift components need a gl(n+1) module with n >= 1"),
    "invariant_C_eigenvalue branch length": (
        lambda: invariant_C_eigenvalue(LAM, (2,), 1), "branch weight must have one label fewer"),
    "invariant_C_eigenvalue index": (
        lambda: invariant_C_eigenvalue(LAM, (2, 0), 4), "index 4 outside 1..3"),
    "invariant_C_eigenvalue kind": (
        lambda: invariant_C_eigenvalue(LAM, (2, 0), 1, "M"), "unknown invariant kind 'M'"),
    "invariant_M_eigenvalue branch length": (
        lambda: invariant_M_eigenvalue(LAM, LAM, 1), "branch weight must have one label fewer"),
    "invariant_M_eigenvalue index": (
        lambda: invariant_M_eigenvalue(LAM, (2, 0), 3), "index 3 outside 1..2"),
    "invariant_M_eigenvalue kind": (
        lambda: invariant_M_eigenvalue(LAM, (2, 0), 1, "C"), "unknown invariant kind 'C'"),
    "elementary_square_from_invariants one row": (
        lambda: elementary_square_from_invariants(ONE_ROW, 1),
        "needs a pattern with at least two rows"),
    "elementary_square_from_invariants r out of range": (
        lambda: elementary_square_from_invariants(PATTERN, 3), "index 3 outside 1..2"),
    "invariant_tables on gl(1)": (
        lambda: invariant_tables(GL1), "needs a gl(n+1) module with n >= 1"),
    "ShiftBatch on gl(1)": (
        lambda: ShiftBatch(GL1), "shift components need a gl(n+1) module with n >= 1"),
    "nonelementary_coefficient l and n": (
        lambda: nonelementary_coefficient(PATTERN, 2, 1, (1,)),
        "need 1 <= l <= n < 3, got l=2 n=1"),
    "nonelementary_coefficient shift count": (
        lambda: nonelementary_coefficient(PATTERN, 1, 2, (1,)), "expected 2 shift indices, got 1"),
    "nonelementary_coefficient shift index": (
        lambda: nonelementary_coefficient(PATTERN, 1, 2, (3, 1)), "shift index 3 outside 1..2"),
    "Representation.triplets(0, 1)": (
        lambda: REP.triplets(0, 1), "generator indices (0,1) outside 1..3"),
    "gl_block_entries level": (
        lambda: gl_block_entries(REP, "A", 4), "level 4 outside 1..3"),
    "gl_block_entries unknown kind": (
        lambda: gl_block_entries(REP, "B"), "unknown kind 'B'"),
    "GTPattern.shifted row index": (
        lambda: PATTERN.shifted(1, 2), "row index 2 outside 1..1"),
    "GTPattern.shifted top row": (
        lambda: PATTERN.shifted(3, 1), "only levels 1..2 may shift (top row is fixed)"),
    "GTPattern.shifted_many": (
        lambda: PATTERN.shifted_many([(3, 1, 1)]), "move (3, 1) outside the pattern"),
    "check_highest_weight(())": (
        lambda: check_highest_weight(()), "weight must have at least one label"),
    "vector_rep(0, 1)": (lambda: vector_rep(0, 1), "need m >= 1 and n >= 1"),
    "_super_blocks(0, 1)": (lambda: _super_blocks(0, 1, KIND_A), "need m >= 1 and n >= 1"),
    "_super_blocks unknown kind": (lambda: _super_blocks(2, 1, "B"), "unknown kind 'B'"),
    "super_char_roots unknown kind": (
        lambda: super_char_roots(SuperWeight((1, 0), (0,)), "B"), "unknown kind 'B'"),
    "run_suite unknown suite": (
        lambda: run_suite("nope", rep=REP), "unknown suite 'nope'"),
    "run_suite super on a non-vector weight": (
        lambda: run_suite("super", super_weight=SuperWeight((2, 0), (0,))),
        "super suite runs on the vector weight (1,0|0)"),
    "render_json(object())": (lambda: render_json(object()), "cannot serialize object"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_call_outside_its_domain_raises_domain_error(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_a_scaled_coproduct_matrix_leaves_eigenvalues_unmatched():
    """The general kind of (2,1,0) with the vector module (1,0,0) as aux,
    its matrix scaled by 2.5: eigenvalues off every candidate root."""
    cm = build_char_matrix(REP, KIND_GENERAL, aux=Representation((1, 0, 0)))
    scaled = CharMatrix(cm.kind, cm.weight, cm.blocks.like(2.5 * s for s in cm.blocks.stacks))
    with pytest.raises(ConsistencyError, match="unmatched eigenvalues"):
        char_roots(LAM, KIND_GENERAL, mu=(1, 0, 0), cm=scaled)


def test_the_super_suite_on_a_non_vector_weight_exits_2(capsys):
    code = main(["verify", "--algebra", "gl2|1", "--weight=2,0|0", "--suite", "super"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
