import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from charid.kernel import DomainError, SchurViolationError, Surd, Tolerance, commutator, max_abs
from charid.gtbasis import enumerate_patterns, pattern_weight, weight
from charid.glrep import (
    Representation,
    casimir_eigenvalue_formula,
    elementary_coefficient,
    gl_block_matrix,
    nonelementary_coefficient,
)
from charid.charident import casimir_sigma
from reference import ordinal

TOL = Tolerance()


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return m


def test_defining_rep_gl2_is_elementary_matrices():
    rep = Representation((1, 0))
    assert np.array_equal(rep.gen(1, 2), unit(2, 1, 2))
    assert np.array_equal(rep.gen(2, 1), unit(2, 2, 1))
    assert np.array_equal(rep.gen(1, 1), np.diag([1.0, 0.0]))
    assert np.array_equal(rep.gen(2, 2), np.diag([0.0, 1.0]))


def test_defining_rep_gl3_is_elementary_matrices():
    # includes a_13 built as a nested commutator
    rep = Representation((1, 0, 0))
    for i in range(1, 4):
        for j in range(1, 4):
            assert np.array_equal(rep.gen(i, j), unit(3, i, j)), (i, j)


def test_ladder_coefficients_match_su2():
    # oracle: raising coefficient sqrt((lam1 - m)(m - lam2 + 1)) on the
    # pattern with single lower label m
    for k in range(1, 7):
        rep = Representation((k, 0))
        ordinals = ordinal(rep)
        for col, pat in enumerate(rep.patterns):
            m = pat.row(1)[0]
            target = pat.shifted(1, 1)
            if target is None:
                continue
            row = ordinals[target]
            expected = math.sqrt(float((k - m) * (m + 1)))
            assert rep.gen(1, 2)[row, col] == pytest.approx(expected, abs=1e-14)


def test_elementary_coefficient_examples():
    pats = enumerate_patterns(weight((1, 0)))
    low = pats[1]  # lower label 0
    assert elementary_coefficient(low, 1, 1) == Surd.sqrt(1)

    pats = enumerate_patterns(weight((2, 0)))
    mid = [p for p in pats if p.row(1) == (1,)][0]
    assert elementary_coefficient(mid, 1, 1) == Surd.sqrt(2)

    top = pats[0]  # raising the maximal label is forbidden
    assert elementary_coefficient(top, 1, 1) == Surd.zero()


def test_elementary_coefficient_rejects_bad_indices():
    pat = enumerate_patterns(weight((1, 0)))[0]
    with pytest.raises(DomainError):
        elementary_coefficient(pat, 2, 1)
    with pytest.raises(DomainError):
        elementary_coefficient(pat, 1, 2)


def test_single_level_product_form_reduces_to_ladder():
    for pat in enumerate_patterns(weight((2, 1, 0))):
        for r in (1, 2):
            assert nonelementary_coefficient(pat, 2, 2, (r,)) == \
                elementary_coefficient(pat, 2, r)


def test_product_form_matches_commutator_on_defining_gl3():
    rep = Representation((1, 0, 0))
    low = rep.patterns[-1]
    built = commutator(rep.gen(1, 2), rep.gen(2, 3))
    coeff = nonelementary_coefficient(low, 1, 2, (1, 1))
    assert float(coeff) == pytest.approx(abs(built[0, ordinal(rep)[low]]), abs=1e-15)
    assert float(coeff) == 1.0


def test_product_form_zero_when_chain_dies():
    low = enumerate_patterns(weight((1, 0, 0)))[-1]
    # raising the second label of row 2 leaves the lattice
    assert nonelementary_coefficient(low, 1, 2, (2, 1)) == Surd.zero()


@pytest.mark.parametrize("lam", [(2, 1, 0), (1, 1, 0), (2, 0, 0), (1, 0, 0, 0),
                                 (2, 1, 1, 0)])
def test_defining_relations(lam):
    rep = Representation(lam)
    idx = range(1, rep.N + 1)
    worst = 0.0
    for i, j, k, l in itertools.product(idx, idx, idx, idx):
        lhs = commutator(rep.gen(i, j), rep.gen(k, l))
        rhs = np.zeros_like(lhs)
        if k == j:
            rhs = rhs + rep.gen(i, l)
        if i == l:
            rhs = rhs - rep.gen(k, j)
        worst = max(worst, max_abs(lhs - rhs))
    assert worst < 1e-10


def test_lowering_is_transpose_of_raising():
    rep = Representation((2, 1, 0))
    for i in range(1, 4):
        for j in range(1, 4):
            assert np.array_equal(rep.gen(j, i), rep.gen(i, j).T)


def test_highest_weight_state():
    rep = Representation((3, 1, 0))
    e0 = np.zeros(rep.dim)
    e0[0] = 1.0
    for i in range(1, 3):
        assert max_abs(rep.gen(i, i + 1) @ e0) == 0.0
    for i in range(1, 4):
        assert rep.gen(i, i)[0, 0] == float(rep.weight[i - 1])


def test_raising_surd_sidecar_matches_floats():
    rep = Representation((2, 1, 0))
    for k, surds in rep.raising_surds.items():
        mat = rep.gen(k, k + 1)
        recovered = np.zeros_like(mat)
        for (r, c), surd in surds.items():
            recovered[r, c] = float(surd)
        assert np.array_equal(mat, recovered)


def test_casimir_values():
    assert casimir_sigma(Representation((1, 0)), 2) == 2
    rep = Representation((2, 1, 0))
    assert casimir_sigma(rep, 1) == 3
    assert casimir_sigma(rep, 2) == 9


def test_casimir_formula_examples():
    assert casimir_eigenvalue_formula((2, 1, 0), 1) == 3
    assert casimir_eigenvalue_formula((1, 0), 2) == 2
    assert casimir_eigenvalue_formula((0, 0, 0), 1) == 0
    assert casimir_eigenvalue_formula((0, 0, 0), 2) == 0
    with pytest.raises(DomainError):
        casimir_eigenvalue_formula((1, 0), 3)


@pytest.mark.parametrize("lam", [(1,), (4,), (-2,), (Fraction(7, 2),)])
def test_gl1_casimir_dependency(lam):
    rep = Representation(lam)
    s1 = casimir_sigma(rep, 1)
    assert casimir_sigma(rep, 2) == s1 ** 2
    assert casimir_sigma(rep, 3) == s1 ** 3


@pytest.mark.parametrize("lam", [(1, 0), (2, 0), (2, 1), (3, 1), (4, 0),
                                 (Fraction(5, 2), Fraction(1, 2))])
def test_gl2_sigma3_dependency(lam):
    rep = Representation(lam)
    s1, s2, s3 = (casimir_sigma(rep, k) for k in (1, 2, 3))
    assert s3 == Fraction(3, 2) * s1 * s2 - Fraction(1, 2) * s1 ** 3 \
        + s2 - Fraction(1, 2) * s1 ** 2


@pytest.mark.parametrize("lam", [(2, 1, 0), (1, 1, 0), (2, 1, 1, 0)])
def test_casimir_traces_match_formulas(lam):
    rep = Representation(lam)
    assert casimir_sigma(rep, 1) == casimir_eigenvalue_formula(lam, 1)
    assert casimir_sigma(rep, 2) == casimir_eigenvalue_formula(lam, 2)


def test_casimir_scalar_through_order_four():
    rep = Representation((2, 1, 0))
    for order in range(1, 5):
        casimir_sigma(rep, order)  # raises SchurViolationError on failure


def test_casimir_detects_non_scalar(replace_generator):
    rep = Representation((2, 1, 0))
    broken = gl_block_matrix(rep, "A").copy()
    broken[0, 0] += 0.5  # corrupt one generator entry
    from charid.kernel import partial_trace_block
    traced = partial_trace_block(broken, rep.N, rep.dim)
    scalar = float(np.trace(traced)) / rep.dim
    assert max_abs(traced - scalar * np.eye(rep.dim)) > 0.1
    with pytest.raises(SchurViolationError):
        rep2 = Representation((2, 1, 0))
        replace_generator(rep2, 1, 1, rep2.gen(1, 1) + np.diag(
            [0.5] + [0.0] * (rep2.dim - 1)))
        casimir_sigma(rep2, 2)


def test_rep_rejects_non_dominant():
    with pytest.raises(DomainError):
        Representation((0, 1))


def test_diagonal_generators_are_pattern_weights():
    rep = Representation((2, 1, 0))
    for c, pat in enumerate(rep.patterns):
        wt = pattern_weight(pat)
        for k in range(1, 4):
            assert rep.gen(k, k)[c, c] == float(wt[k - 1])
