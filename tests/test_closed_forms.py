"""The batched closed forms of the melcross and invariants suites against
their scalar forms.

The references below walk the basis one GTPattern at a time, the way the
closed forms read: every shift combination through shifted_many and
nonelementary_coefficient, every M*Cbar product through
elementary_square_from_invariants.  The batched forms on the integer
pattern table must give the same floats bit for bit and the same exact
rationals."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from charid.charident import (
    elementary_square_from_invariants,
    elementary_square_table,
)
from charid.glrep import Representation, nonelementary_coefficient
from charid.gtbasis import row_starts
from charid.verify import run_suite
from reference import nonelementary_magnitudes, ordinal

SHIFTS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(-22, 7)]
SWEEP = [lam for n in (3, 4)
         for lam in itertools.combinations_with_replacement(range(3, -1, -1), n)]
LARGER = [(2, 1, 1, 0, 0), (3, 1, 0, 0, 0), (2, 1, 0, 0, 0, 0)]


def _reference_magnitudes(rep, l, n):
    expected = np.zeros((rep.dim, rep.dim))
    levels = range(n, l - 1, -1)
    ordinals = ordinal(rep)
    for c, pattern in enumerate(rep.patterns):
        for shifts in itertools.product(*(range(1, level + 1) for level in levels)):
            target = pattern.shifted_many([(level, i, 1) for level, i in zip(levels, shifts)])
            if target is not None:
                coeff = nonelementary_coefficient(pattern, l, n, shifts)
                expected[ordinals[target], c] = float(coeff)
    return expected


def _assert_matches_reference(lam):
    rep = Representation(lam)
    for l in range(1, rep.N - 1):
        for n in range(l + 1, rep.N):
            rows, cols, values = nonelementary_magnitudes(rep, l, n)
            batched = np.zeros((rep.dim, rep.dim))
            batched[rows, cols] = values
            assert np.array_equal(batched, _reference_magnitudes(rep, l, n)), (lam, l, n)
    nums, dens = elementary_square_table(rep)
    for r in range(1, rep.N):
        batched = [Fraction(int(p), int(q)) for p, q in zip(nums[:, r - 1], dens[:, r - 1])]
        assert batched == [elementary_square_from_invariants(p, r)
                           for p in rep.patterns], (lam, r)


@pytest.mark.parametrize("shift", SHIFTS, ids=str)
def test_closed_forms_match_scalar_reference_on_the_sweep(shift):
    for lam in SWEEP:
        _assert_matches_reference(tuple(x + shift for x in lam))


@pytest.mark.parametrize("lam", LARGER, ids=str)
def test_closed_forms_match_scalar_reference_on_gl5_gl6(lam):
    _assert_matches_reference(tuple(x + Fraction(1, 2) for x in lam))


@pytest.mark.parametrize("lam", [(2, 1, 0), (3, 1, 1, 0), (2, 2, 1, 0, 0), (2, 1, 0, 0, 0, 0)],
                         ids=str)
def test_magnitudes_hold_each_position_once_row_major(lam):
    """Each shift combination raises one label per level, so distinct
    combinations reach distinct targets: melcross may then sum +|actual|
    and -expected per position and read the dense difference."""
    rep = Representation(lam)
    for l in range(1, rep.N - 1):
        for n in range(l + 1, rep.N):
            rows, cols, values = nonelementary_magnitudes(rep, l, n)
            keys = rows * rep.dim + cols
            assert len(keys) and np.all(np.diff(keys) > 0), (lam, l, n)
            assert np.all(values > 0), (lam, l, n)


def _check(report, prefix):
    (check,) = [c for c in report.checks if c.description.startswith(prefix)]
    return check


def test_melcross_fails_on_a_moved_commutator_entry(replace_generator):
    rep = Representation((2, 1, 0))
    assert run_suite("melcross", rep=rep).passed
    moved = rep.gen(1, 3).copy()
    row, col = np.argwhere(moved)[0]
    moved[row, col] += 1e-3
    replace_generator(rep, 1, 3, moved)
    report = run_suite("melcross", rep=rep)
    assert not report.passed
    assert _check(report, "|a_1,3|").residual == pytest.approx(1e-3)


def test_invariants_exact_check_fails_on_a_changed_ladder_numerator():
    rep = Representation((2, 1, 0))
    prefix = "squared ladder coefficients equal M*Cbar"
    assert _check(run_suite("invariants", rep=rep), prefix).passed
    rows, cols, nums, dens = rep._ladders[rep.N - 1]
    nums = nums.copy()
    nums[np.flatnonzero(nums)[0]] += 1
    rep._ladders[rep.N - 1] = (rows, cols, nums, dens)
    report = run_suite("invariants", rep=rep)
    assert not _check(report, prefix).passed
    assert all(c.passed for c in report.checks if not c.description.startswith(prefix))


def test_invariants_exact_check_fails_on_a_missing_ladder_entry():
    """An admissible shift whose stored square is absent reads as 0."""
    rep = Representation((2, 1, 0))
    rep._ladders[rep.N - 1] = tuple(a[1:] for a in rep._ladders[rep.N - 1])
    assert not _check(run_suite("invariants", rep=rep),
                      "squared ladder coefficients equal M*Cbar").passed


def test_invariants_exact_check_fails_when_an_admissible_shift_reads_as_none(monkeypatch):
    """Where no shift stays in the lattice the M*Cbar product must be 0; one
    admissible shift hidden from the lattice search leaves a nonzero
    product there."""
    rep = Representation((2, 1, 0))
    found = rep.raised
    monkeypatch.setattr(rep, "raised", lambda moves: tuple(a[1:] for a in found(moves)))
    assert not _check(run_suite("invariants", rep=rep),
                      "squared ladder coefficients equal M*Cbar").passed


def _any_failed(report, prefix):
    checks = [c for c in report.checks if c.description.startswith(prefix)]
    assert checks, prefix
    return not all(c.passed for c in checks)


CONTRACTION = "shift component contractions agree"
NORMS = "squared-norm identities"
COMPLETENESS = "shift components sum back to the raising column"


# (2,1,0) restricts to a single whole block; (3,3,2,0) restricts to 135
# rows, which are split into blocks and multiplied one stack at a time.
@pytest.mark.parametrize("lam", [(2, 1, 0), (3, 3, 2, 0)], ids=str)
def test_invariants_residuals_fail_on_a_changed_raising_entry(lam, replace_generator):
    rep = Representation(lam)
    assert run_suite("invariants", rep=rep).passed
    moved = rep.gen(1, rep.N).copy()
    row, col = np.argwhere(moved)[0]
    moved[row, col] += 1e-3
    replace_generator(rep, 1, rep.N, moved)
    report = run_suite("invariants", rep=rep)
    assert _any_failed(report, CONTRACTION)
    assert _any_failed(report, NORMS)
    # The components split the changed column psi itself, and the
    # restricted projectors still sum to 1: the completeness check reads
    # the same psi on both sides and cannot see this change.
    assert not _any_failed(report, COMPLETENESS)


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 1, 0, 0), (3, 3, 2, 0)], ids=str)
def test_invariants_residuals_fail_on_a_moved_restricted_entry(lam, replace_generator):
    """An entry of the gl(n) generator a_nn moved to a row with another
    row n: the restricted matrix then mixes branches and no longer commutes
    with its operator nodes.  With n >= 3 nodes the restricted projectors
    stop summing to 1; with two, Pbar_1 + Pbar_2 = 1 holds for any matrix
    (the Lagrange sum of degree one), so completeness still passes."""
    rep = Representation(lam)
    n = rep.N - 1
    start = row_starts(rep.N)[n]
    rows_n = rep.table[:, start:start + n]
    moved = rep.gen(n, n).copy()
    row, col = np.argwhere(moved)[0]
    other = next(k for k in range(rep.dim) if not np.array_equal(rows_n[k], rows_n[row]))
    moved[other, col], moved[row, col] = moved[row, col], 0.0
    replace_generator(rep, n, n, moved)
    report = run_suite("invariants", rep=rep)
    assert _any_failed(report, CONTRACTION)
    assert _any_failed(report, NORMS)
    assert _any_failed(report, COMPLETENESS) == (n >= 3)
