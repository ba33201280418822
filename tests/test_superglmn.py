import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import charid.superglmn
from charid.kernel import ConventionError, DomainError, Tolerance, max_abs
from charid.charident import KIND_A, KIND_ABAR
from charid.superglmn import (
    ATYPICAL,
    NOT_STAR,
    TYPICAL,
    FROZEN_CONVENTION,
    SuperWeight,
    _compose_unchecked,
    calibrate_convention,
    classify_type1_star,
    compose_type1_weight,
    is_covariant,
    parity,
    super_char_matrix,
    super_char_roots,
    super_vector_weight,
    vector_rep,
    vector_rep_relations_hold,
    verify_super_identity,
)
from test_charident import _dense_identity


def sw(even, odd):
    return SuperWeight(tuple(Fraction(x) for x in even),
                       tuple(Fraction(x) for x in odd))


def test_parity_split():
    assert parity(1, 2) == 0
    assert parity(3, 2) == 1


def test_gl11_bracket_is_anticommutator():
    gens = vector_rep(1, 1)
    lhs = gens[(1, 2)] @ gens[(2, 1)] + gens[(2, 1)] @ gens[(1, 2)]
    assert np.array_equal(lhs, gens[(1, 1)] + gens[(2, 2)])


def test_gl21_even_bracket_is_commutator():
    gens = vector_rep(2, 1)
    lhs = gens[(1, 2)] @ gens[(2, 3)] - gens[(2, 3)] @ gens[(1, 2)]
    assert np.array_equal(lhs, gens[(1, 3)])


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_graded_relations_exact(mn):
    assert vector_rep_relations_hold(*mn)


@pytest.mark.parametrize("mn", [(1, 1), (2, 2)], ids=str)
def test_graded_relations_fail_on_one_wrong_entry(mn, monkeypatch):
    """One wrong entry of one generator breaks the graded bracket."""
    real = charid.superglmn.vector_rep

    def tampered(m, n):
        gens = real(m, n)
        gens[(1, m + 1)][0, m] = 2  # a_{1,m+1} = 2 e_{1,m+1}
        return gens

    monkeypatch.setattr(charid.superglmn, "vector_rep", tampered)
    assert not vector_rep_relations_hold(*mn)


def test_super_roots_gl11_vector():
    lam = sw((1,), (0,))
    assert [r.value for r in super_char_roots(lam, KIND_A)] == [0, 0]
    assert [r.value for r in super_char_roots(lam, KIND_ABAR)] == [-1, 1]


def test_super_roots_follow_parity_signed_formula():
    # direct evaluation of the signed closed form, including the repeated
    # zero for the trivial gl(2|1) weight
    lam = sw((0, 0), (0,))
    assert [r.value for r in super_char_roots(lam, KIND_A)] == [0, -1, 0]
    assert [r.value for r in super_char_roots(lam, KIND_ABAR)] == [0, 1, 2]
    lam = sw((1, 0), (0,))
    assert [r.value for r in super_char_roots(lam, KIND_A)] == [1, -1, 0]
    assert [r.value for r in super_char_roots(lam, KIND_ABAR)] == [-1, 1, 2]


def test_super_identity_gl11_abar():
    report = verify_super_identity(1, 1, KIND_ABAR)
    assert report.passed and report.residual < 1e-12


def test_super_identity_gl21_a():
    report = verify_super_identity(2, 1, KIND_A)
    assert report.passed and report.residual < 1e-12


@pytest.mark.parametrize("mn", [(m, n) for m in range(1, 5)
                                for n in range(1, 5) if m + n <= 5])
@pytest.mark.parametrize("kind", [KIND_A, KIND_ABAR])
def test_super_identity_grid(mn, kind):
    report = verify_super_identity(*mn, kind)
    assert report.passed and report.residual < 1e-10


@pytest.mark.parametrize("mn", [(m, n) for m in range(1, 4) for n in range(1, 4)], ids=str)
@pytest.mark.parametrize("kind, convention", [
    (KIND_A, "row-parity"), (KIND_A, "ungraded"),
    (KIND_ABAR, "minus-graded-swap"), (KIND_ABAR, "ungraded-swap")])
def test_super_identity_is_the_dense_product_bit_for_bit(mn, kind, convention):
    """The super identity on its whole block against the product of the
    dense factors: the same residual and threshold, bit for bit, for the
    frozen conventions and the ungraded ones that fail."""
    m, n = mn
    check = verify_super_identity(m, n, kind, convention=convention)
    values = sorted(root.value for root in super_char_roots(super_vector_weight(m, n), kind))
    expected = _dense_identity(super_char_matrix(m, n, kind, convention), values, Tolerance())
    assert (check.residual, check.threshold) == expected


def test_ungraded_convention_fails():
    report = verify_super_identity(2, 1, KIND_A, convention="ungraded")
    assert not report.passed
    assert report.residual > 0.5


def test_full_product_needed_for_repeated_roots():
    # gl(1|1): the matrix is nilpotent but nonzero, so the single factor
    # of the distinct-value product cannot annihilate
    big = super_char_matrix(1, 1, KIND_A)
    assert max_abs(big) > 0
    assert max_abs(big @ big) == 0.0


def test_calibration_selects_frozen_conventions():
    assert calibrate_convention(KIND_A) == FROZEN_CONVENTION[KIND_A]
    assert calibrate_convention(KIND_ABAR) == FROZEN_CONVENTION[KIND_ABAR]


def test_calibration_error_when_no_candidate_works():
    with pytest.raises(ConventionError):
        calibrate_convention(KIND_A, candidates=["ungraded", "minus-ungraded"])


def test_classify_typical():
    verdict = classify_type1_star(sw((2, 1), (3,)))
    assert verdict.verdict == TYPICAL and verdict.witness is None


def test_classify_atypical_with_witness():
    verdict = classify_type1_star(sw((1, 0), (0,)))
    assert verdict.verdict == ATYPICAL and verdict.witness == 1


def test_classify_trivial_weight():
    verdict = classify_type1_star(sw((0, 0), (0, 0)))
    assert verdict.verdict == ATYPICAL and verdict.witness == 1


def test_classify_not_star():
    verdict = classify_type1_star(sw((0, 0), (1, 0)))
    assert verdict.verdict == NOT_STAR


def test_classify_typical_invariant_under_delta_shifts():
    rng = random.Random(3)
    lam = sw((2, 1), (3,))
    assert classify_type1_star(lam).verdict == TYPICAL
    for _ in range(20):
        omega = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        shifted = _compose_unchecked(lam, Fraction(0), omega)
        assert classify_type1_star(shifted).verdict == TYPICAL


def test_compose_zero():
    lam = compose_type1_weight(sw((0,), (0,)), 0, 0)
    assert lam == sw((0,), (0,))


def test_compose_example():
    lam = compose_type1_weight(sw((1, 0), (0,)), 0, 1)
    assert lam == sw((0, -1), (1,))


def test_compose_gamma_domain():
    with pytest.raises(DomainError):
        compose_type1_weight(sw((1,), (0, 0)), Fraction(1, 2), 0)  # below n-1
    compose_type1_weight(sw((1,), (0, 0)), 1, 0)  # integer in range
    compose_type1_weight(sw((1,), (0, 0)), Fraction(3, 2), 0)  # above n-1
    with pytest.raises(DomainError):
        compose_type1_weight(sw((1,), (0, 0)), -1, 0)


def test_compose_rejects_non_covariant_base():
    assert not is_covariant(sw((0,), (1,)))
    with pytest.raises(DomainError):
        compose_type1_weight(sw((0,), (1,)), 0, 0)
    with pytest.raises(DomainError):
        compose_type1_weight(sw((Fraction(1, 2),), (0,)), 0, 0)


def test_covariant_hook_condition():
    assert is_covariant(sw((2,), (1,)))
    assert is_covariant(sw((3, 1), (2, 1)))
    assert not is_covariant(sw((1, 0), (2,)))


def test_compose_additivity():
    lam0 = sw((2, 1), (1,))
    g1, g2 = Fraction(1), Fraction(3, 2)
    o1, o2 = Fraction(1, 2), Fraction(-2)
    direct = _compose_unchecked(lam0, g1 + g2, o1 + o2)
    chained = _compose_unchecked(_compose_unchecked(lam0, g1, o1), g2, o2)
    assert direct == chained


def test_composed_weights_are_type1():
    # every valid composition must land in the classified type 1 family
    bases = [sw((0, 0), (0,)), sw((1, 0), (0,)), sw((2, 1), (1,))]
    gammas = [Fraction(0), Fraction(1), Fraction(5, 2)]
    omegas = [Fraction(0), Fraction(1, 2), Fraction(-1)]
    for lam0, gamma, omega in itertools.product(bases, gammas, omegas):
        if gamma <= lam0.n - 1 and gamma.denominator != 1:
            continue
        lam = compose_type1_weight(lam0, gamma, omega)
        assert classify_type1_star(lam).verdict in (TYPICAL, ATYPICAL), \
            (lam0, gamma, omega, lam)


def test_super_weight_validation():
    with pytest.raises(DomainError):
        SuperWeight((Fraction(0), Fraction(1)), (Fraction(0),))
    with pytest.raises(DomainError):
        SuperWeight((), (Fraction(0),))


def test_super_vector_weight_layout():
    lam = super_vector_weight(2, 1)
    assert lam.even == (1, 0) and lam.odd == (0,)
    assert str(lam) == "(1,0|0)"
