"""Property tests over random dominant weights, shifted by a rational
multiple of the identity.  Derandomized, so every run draws the same
examples."""

import contextlib
import io
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import charid.superglmn
from charid.cli import main
from charid.charident import (
    KIND_A, KIND_ABAR, alpha_bar_roots, alpha_roots, build_char_matrix, build_projector,
    char_roots)
from charid.glrep import Representation, sparse_commutator
from charid.kernel import Triplets
from charid.gtbasis import dimension, is_dominant, pattern_table, table_patterns, weight
from charid.superglmn import vector_rep_relations_hold
from charid.verify import run_suite
from reference import rank
from test_acceptance import _assert_diagonal_pairs_exact, _assert_matches_dense

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def shifted_weights(draw):
    """(lam, c): a dominant gl(2..4) weight with labels in 0..3 and a shift
    c or c + 1/2 with c in -5..5."""
    n = draw(st.integers(2, 4))
    lam = tuple(sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                       reverse=True))
    c = draw(st.integers(-5, 5)) + draw(st.sampled_from((Fraction(0), Fraction(1, 2))))
    return lam, c


def _relations(rep):
    (check,) = run_suite("relations", rep=rep).checks
    return check


@PROPERTY_SETTINGS
@given(shifted_weights())
def test_shifted_weights_pass_relations(case):
    lam, c = case
    assert _relations(Representation(tuple(x + c for x in lam))).passed


@PROPERTY_SETTINGS
@given(shifted_weights())
def test_shift_by_identity_keeps_relations(case):
    """lam + c*1 moves only the diagonal generators, by c; the relations
    check sees the same module.  Its numbers may move by rounding only: the
    shifted diagonal entries are at most 9, so each product entry they
    enter moves by a few ulp(9 * 2) < 1e-14, and the scale behind the
    threshold by as little relative to itself."""
    lam, c = case
    rep = Representation(lam)
    shifted = Representation(tuple(x + c for x in lam))
    for (i, j) in rep.generator_labels():
        expected = rep.gen(i, j) + (float(c) * np.eye(rep.dim) if i == j else 0.0)
        assert np.array_equal(shifted.gen(i, j), expected), (i, j)
    base, moved = _relations(rep), _relations(shifted)
    assert moved.threshold == pytest.approx(base.threshold, rel=1e-14)
    assert abs(moved.residual - base.residual) < 1e-14


@PROPERTY_SETTINGS
@given(shifted_weights())
def test_relations_suite_matches_the_dense_loop(case):
    """The suite joins one off-diagonal pair per transpose orbit and takes
    the pairs with a diagonal generator in exact form, where they give
    exactly 0; its residual and threshold equal the unordered-pair loop's
    bit for bit and still match the dense loop over all N^4 ordered
    pairs."""
    lam, c = case
    rep = Representation(tuple(x + c for x in lam))
    assert _assert_matches_dense(rep).passed
    _assert_diagonal_pairs_exact(rep)


@PROPERTY_SETTINGS
@given(shifted_weights())
def test_dimension_is_the_fraction_product(case):
    """The integer Weyl dimension equals the product of the N(N-1)/2
    factors in exact Fractions, for integer and half-integer labels."""
    lam, c = case
    lam = weight(x + c for x in lam)
    value = Fraction(1)
    for i, j in itertools.combinations(range(len(lam)), 2):
        value *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert value.denominator == 1 and dimension(lam) == value


@st.composite
def thirds_shifted_weights(draw):
    """(lam, c, offset): a dominant gl(1..5) weight with labels in 0..3, an
    integer c in -5..5 and an offset 0, 1/2 or 1/3 added to it."""
    n = draw(st.integers(1, 5))
    lam = tuple(sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                       reverse=True))
    c = draw(st.integers(-5, 5))
    offset = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1, 3))))
    return lam, c, offset


@PROPERTY_SETTINGS
@given(thirds_shifted_weights())
def test_pattern_table_is_the_canonical_basis(case):
    """One row per basis state (the Weyl dimension), rows strictly
    descending in canonical order, and every row an interlacing pattern."""
    lam, c, offset = case
    lam = weight(x + c + offset for x in lam)
    table = pattern_table(lam)
    assert table.dtype == np.int64
    assert len(table) == dimension(lam)
    rows = [tuple(row) for row in table.tolist()]
    assert all(a > b for a, b in zip(rows, rows[1:]))
    for pattern in table_patterns(lam, table):
        assert pattern.rows[0] == lam
        assert pattern.is_valid()


@PROPERTY_SETTINGS
@given(thirds_shifted_weights())
def test_roots_move_with_a_shift_by_identity(case):
    """Under lam + c*1 each alpha root moves by +c, each alpha-bar root by -c."""
    lam, c, offset = case
    base = weight(x + offset for x in lam)
    moved = weight(x + c for x in base)
    assert alpha_roots(moved) == [a + c for a in alpha_roots(base)]
    assert alpha_bar_roots(moved) == [a - c for a in alpha_bar_roots(base)]


@PROPERTY_SETTINGS
@given(shifted_weights())
def test_projector_ranks_equal_constituent_dimensions(case):
    """Each projector's trace is the Weyl dimension of its constituent (0
    for an absent root), and the ranks of each kind add up to N * dim."""
    lam, c = case
    rep = Representation(tuple(x + c for x in lam))
    for kind in (KIND_A, KIND_ABAR):
        cm = build_char_matrix(rep, kind)
        spectrum = char_roots(rep.weight, kind)
        ranks = [rank(build_projector(cm, spectrum, r)) for r in range(1, rep.N + 1)]
        assert ranks == [dimension(root.constituent) if is_dominant(root.constituent) else 0
                         for root in spectrum], kind
        assert sum(ranks) == rep.N * rep.dim, kind


@st.composite
def closed_form_weights(draw):
    """A dominant gl(3..5) weight with labels in 0..3, shifted by c, c + 1/2
    or c + 1/3 with c in -5..5."""
    n = draw(st.integers(3, 5))
    lam = sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), reverse=True)
    c = draw(st.integers(-5, 5)) + draw(
        st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1, 3))))
    return tuple(x + c for x in lam)


@PROPERTY_SETTINGS
@given(closed_form_weights())
def test_shifted_weights_pass_the_closed_form_suites(lam):
    rep = Representation(lam)
    for suite in ("melcross", "invariants"):
        assert run_suite(suite, rep=rep).passed, suite


@st.composite
def sparse_pairs(draw):
    """(a, b, exact): two d x d matrices, d in 1..9, with a share 0.05 to 1
    of their entries nonzero.  The entries are small integers when exact,
    so every product and sum is exact; otherwise signed square roots of
    1..50, as in ladder operators."""
    d = draw(st.integers(1, 9))
    density = draw(st.sampled_from((0.05, 0.2, 0.5, 1.0)))
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def matrix():
        if exact:
            values = rng.integers(-9, 10, size=(d, d)).astype(float)
        else:
            values = rng.choice([-1.0, 1.0], size=(d, d)) * np.sqrt(rng.integers(1, 51, size=(d, d)))
        return np.where(rng.random((d, d)) < density, values, 0.0)

    return matrix(), matrix(), exact


def _stored(matrix):
    rows, cols = np.nonzero(matrix)
    return Triplets(rows, cols, matrix[rows, cols])


@PROPERTY_SETTINGS
@given(sparse_pairs())
def test_sparse_commutator_is_the_dense_commutator(case):
    """The triplet commutator holds the nonzero entries of a @ b - b @ a,
    row-major and without explicit zeros.  Products of d terms at most are
    summed in another order than the dense matmul's, so each value may
    differ by rounding: at most (d + 2) eps times the sum of the terms'
    magnitudes, which is zero where no term exists.  Exact inputs give the
    same matrix bit for bit."""
    a, b, exact = case
    d = len(a)
    got = sparse_commutator(_stored(a), _stored(b), d)
    keys = got.rows * d + got.cols
    assert np.all(np.diff(keys) > 0) and np.all(got.values != 0)
    dense = a @ b - b @ a
    scattered = np.zeros((d, d))
    scattered[got.rows, got.cols] = got.values
    if exact:
        assert np.array_equal(scattered, dense)
        assert np.array_equal(scattered != 0, dense != 0)
        return
    bound = (d + 2) * np.finfo(float).eps * (np.abs(a) @ np.abs(b) + np.abs(b) @ np.abs(a))
    assert np.all(np.abs(scattered - dense) <= bound)
    decided = np.abs(dense) > 2 * bound  # rounding cannot make these zero
    assert np.array_equal((scattered != 0)[decided], (dense != 0)[decided])
    assert not np.any(scattered[bound == 0]) and not np.any(dense[bound == 0])


@st.composite
def moved_entries(draw):
    """(m, n, (p, q), (row, col)): a gl(m|n) with m + n <= 6, a generator
    a_pq of its vector representation and a position other than the one
    of a_pq's single entry."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6 - m))
    size = m + n
    p, q = draw(st.integers(1, size)), draw(st.integers(1, size))
    target = draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
                  .filter(lambda at: at != (p - 1, q - 1)))
    return m, n, (p, q), target


@PROPERTY_SETTINGS
@given(moved_entries())
def test_graded_relations_hold_and_break_on_one_moved_entry(case):
    """The graded bracket holds exactly on the vector representation of a
    random gl(m|n), and fails once one generator's entry moves."""
    m, n, (p, q), target = case
    assert vector_rep_relations_hold(m, n)
    real = charid.superglmn.vector_rep

    def moved(m, n):
        gens = real(m, n)
        gens[p - 1, q - 1][p - 1, q - 1] = 0
        gens[p - 1, q - 1][target] = 1
        return gens

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charid.superglmn, "vector_rep", moved)
        assert not vector_rep_relations_hold(m, n)


def _export(labels, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["rep", "--algebra", f"gl{len(labels)}",
                     "--weight=" + ",".join(map(str, labels)), "--format", fmt])
    assert code == 0
    return out.getvalue()


@PROPERTY_SETTINGS
@given(shifted_weights())
def test_json_and_csv_exports_carry_the_same_triplets(case):
    """Labels shifted by c in -5..5, or by c + 1/2, so negative and
    half-integer diagonal entries appear; decimals compare as their %.17g
    text."""
    lam, c = case
    labels = tuple(x + c for x in lam)
    payload = json.loads(_export(labels, "json"))
    from_json = [(gen["name"], row, col, value if isinstance(value, str) else "%.17g" % value)
                 for gen in payload["generators"] for row, col, value in gen["triplets"]]
    header, *lines = _export(labels, "csv").splitlines()
    assert header == "generator,row,col,value"
    from_csv = [(name, int(row), int(col), value)
                for name, row, col, value in (line.split(",") for line in lines)]
    assert from_csv == from_json
