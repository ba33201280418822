import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import charid.superglmn
from charid.kernel import DomainError, Tolerance, max_abs
from charid.charident import KIND_A, KIND_ABAR, Blocks, identity_residual
from charid.superglmn import (
    ATYPICAL,
    NOT_STAR,
    TYPICAL,
    SuperWeight,
    _compose_unchecked,
    _super_blocks,
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
    lhs = gens[0, 1] @ gens[1, 0] + gens[1, 0] @ gens[0, 1]
    assert np.array_equal(lhs, gens[0, 0] + gens[1, 1])


def test_gl21_even_bracket_is_commutator():
    gens = vector_rep(2, 1)
    lhs = gens[0, 1] @ gens[1, 2] - gens[1, 2] @ gens[0, 1]
    assert np.array_equal(lhs, gens[0, 2])


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 3), (3, 2)], ids=str)
def test_vector_rep_is_one_array_of_matrix_units(mn):
    """vector_rep(m, n)[p-1, q-1] is the matrix unit e_pq, as int64."""
    size = sum(mn)
    gens = vector_rep(*mn)
    assert gens.shape == (size,) * 4 and gens.dtype == np.int64
    for p, q in itertools.product(range(1, size + 1), repeat=2):
        unit = np.zeros((size, size), dtype=np.int64)
        unit[p - 1, q - 1] = 1
        assert np.array_equal(gens[p - 1, q - 1], unit), (p, q)


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_graded_relations_exact(mn):
    assert vector_rep_relations_hold(*mn)


@pytest.mark.parametrize("mn", [(1, 1), (2, 2)], ids=str)
def test_graded_relations_fail_on_one_wrong_entry(mn, monkeypatch):
    """One wrong entry of one generator breaks the graded bracket."""
    real = charid.superglmn.vector_rep

    def tampered(m, n):
        gens = real(m, n)
        gens[0, m][0, m] = 2  # a_{1,m+1} = 2 e_{1,m+1}
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
    report = verify_super_identity(1, 1, KIND_ABAR, Tolerance())
    assert report.passed and report.residual < 1e-12


def test_super_identity_gl21_a():
    report = verify_super_identity(2, 1, KIND_A, Tolerance())
    assert report.passed and report.residual < 1e-12


SUPER_GRID = [(m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5]


@pytest.mark.parametrize("mn", SUPER_GRID)
@pytest.mark.parametrize("kind", [KIND_A, KIND_ABAR])
def test_super_identity_grid(mn, kind):
    report = verify_super_identity(*mn, kind, Tolerance())
    assert report.passed and report.residual < 1e-10


def _loop_blocks(m, n, sign, swap):
    """The characteristic matrix block by block, as super_char_matrix was
    once built: block (p, q) is sign(p, q) times e_qp (swap) or e_pq, each
    an int64 matrix unit times a Python int."""
    size = m + n
    whole = np.zeros((size * size, size * size))
    for p in range(1, size + 1):
        for q in range(1, size + 1):
            row, col = (q, p) if swap else (p, q)
            gen = np.zeros((size, size), dtype=np.int64)
            gen[row - 1, col - 1] = 1
            block = sign(p, q) * gen.astype(np.float64)
            whole[(p - 1) * size:p * size, (q - 1) * size:q * size] = block
    return whole


def _rule(m, kind, graded=True):
    """(sign, swap) of a kind's rule: row-parity and minus-graded-swap, or
    with graded=False the same with the parity sign dropped (ungraded and
    ungraded-swap)."""
    if kind == KIND_A:
        return (lambda p, q: (-1) ** parity(p, m) if graded else 1), False
    return (lambda p, q: -((-1) ** (parity(p, m) * parity(q, m))) if graded else -1), True


@pytest.mark.parametrize("mn", SUPER_GRID, ids=str)
@pytest.mark.parametrize("kind", [KIND_A, KIND_ABAR])
def test_super_blocks_equal_the_loop_built_matrix_bit_for_bit(mn, kind):
    """The reshaped signed generators equal the block-by-block loop in every
    bit, signed zeros included."""
    (whole,) = _super_blocks(*mn, kind).stacks
    expected = _loop_blocks(*mn, *_rule(mn[0], kind))
    assert whole.shape == (1,) + expected.shape
    assert np.array_equal(whole[0].view(np.uint64), expected.view(np.uint64))


def ungraded_identity(m, n, kind):
    """Residual and threshold of the super identity, through the blocked
    product, on the matrix with the parity sign dropped."""
    big = _loop_blocks(m, n, *_rule(m, kind, graded=False))
    values = sorted(root.value for root in super_char_roots(super_vector_weight(m, n), kind))
    return identity_residual(Blocks(len(big), (np.arange(len(big))[None, :],), (big[None],)),
                             values, Tolerance())


@pytest.mark.parametrize("mn", [(m, n) for m in range(1, 4) for n in range(1, 4)], ids=str)
@pytest.mark.parametrize("kind, convention", [
    (KIND_A, "row-parity"), (KIND_A, "ungraded"),
    (KIND_ABAR, "minus-graded-swap"), (KIND_ABAR, "ungraded-swap")])
def test_super_identity_is_the_dense_product_bit_for_bit(mn, kind, convention):
    """The super identity on its whole block against the product of the
    dense factors: the same residual and threshold, bit for bit, for each
    kind's rule and for the matrix with the parity sign dropped."""
    m, n = mn
    if convention.startswith("ungraded"):
        big = _loop_blocks(m, n, *_rule(m, kind, graded=False))
        residual, threshold = ungraded_identity(m, n, kind)
    else:
        big = super_char_matrix(m, n, kind)
        check = verify_super_identity(m, n, kind, Tolerance())
        assert check.description.endswith(f"convention {convention}")
        residual, threshold = check.residual, check.threshold
    values = sorted(root.value for root in super_char_roots(super_vector_weight(m, n), kind))
    assert (residual, threshold) == _dense_identity(big, values, Tolerance())


def test_ungraded_convention_fails():
    residual, threshold = ungraded_identity(2, 1, KIND_A)
    assert residual > threshold
    assert residual > 0.5


WRONG_PARITIES = {
    "all-even": lambda p, m: 0,
    "all-odd": lambda p, m: 1,
    "swapped": lambda p, m: 1 - (p > m),
}


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (2, 2), (3, 2)], ids=str)
@pytest.mark.parametrize("rule", WRONG_PARITIES)
def test_relations_record_holds_under_any_parity(mn, rule, monkeypatch):
    """On matrix units e_pq e_rs = d_qr e_ps, so a_pq a_rs - s a_rs a_pq =
    d_qr a_ps - s d_ps a_rq holds for every sign s: the graded relations
    record passes under any parity rule and cannot see the grading.  The
    identity records carry it: under each wrong rule the kind-A identity
    fails (kind Abar fails too, except under all-even), and on the matrix
    with the parity sign dropped the kind-A identity fails."""
    monkeypatch.setattr(charid.superglmn, "parity", WRONG_PARITIES[rule])
    assert vector_rep_relations_hold(*mn)
    identity = {kind: verify_super_identity(*mn, kind, Tolerance()).passed
                for kind in (KIND_A, KIND_ABAR)}
    assert identity == {KIND_A: False, KIND_ABAR: rule == "all-even"}
    monkeypatch.undo()
    residual, threshold = ungraded_identity(*mn, KIND_A)
    assert residual > threshold


def test_full_product_needed_for_repeated_roots():
    # gl(1|1): the matrix is nilpotent but nonzero, so the single factor
    # of the distinct-value product cannot annihilate
    big = super_char_matrix(1, 1, KIND_A)
    assert max_abs(big) > 0
    assert max_abs(big @ big) == 0.0


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
