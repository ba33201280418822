"""The batched closed forms of the melcross and invariants suites against
their scalar forms.

The references below walk the basis one GTPattern at a time, the way the
closed forms read: every shift combination through shifted_many and
nonelementary_coefficient, every M*Cbar product through
elementary_square_from_invariants.  The batched forms on the integer
pattern table must give the same floats bit for bit and the same exact
rationals, and the factor templates of the batched invariants must hold
the scalar forms' factor lists."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from charid.charident import (_c_factors, _invariant_layout, _m_factors, _roots,
                              elementary_square_from_invariants)
from charid.glrep import Representation, nonelementary_coefficient
from charid.gtbasis import row_starts
from charid.verify import run_suite
from reference import elementary_square_table, nonelementary_magnitudes, ordinal

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


def _scalar_factor_lists(pattern):
    """The (sign, numerator, denominator) lists of every closed form of
    invariant_tables on one pattern, from _c_factors and _m_factors, by
    form name and index."""
    N = pattern.size
    n = N - 1
    tops, subs = _roots(pattern.row(N)), _roots(pattern.row(n))
    lows = _roots(pattern.row(n - 1)) if n > 1 else []
    lists = {name: [_c_factors(tops, subs, k, bar) for k in range(1, N + 1)]
             for name, bar in (("C", False), ("Cbar", True))}
    lists.update({name: [_m_factors(tops, subs, r, bar) for r in range(1, n + 1)]
                  for name, bar in (("M", False), ("Mbar", True))})
    lists["MCbar"] = [(m[0] * c[0], m[1] + c[1], m[2] + c[2])
                      for m, c in zip(lists["M"], (_c_factors(subs, lows, r, True)
                                                   for r in range(1, n + 1)))]
    return lists


@pytest.mark.parametrize("shift", [Fraction(0), Fraction(1, 2)], ids=str)
def test_invariant_templates_hold_the_scalar_factor_lists(shift):
    """Every template row of _invariant_layout, on the int64 roots of every
    pattern's table row, gives the factor lists of the scalar forms, in
    their order, then only the padding template (0, 0, 1)."""
    weights = [lam for n in (2, 3, 4)
               for lam in itertools.combinations_with_replacement(range(3, -1, -1), n)]
    for lam in weights + LARGER:
        rep = Representation(tuple(x + shift for x in lam))
        layout = _invariant_layout(rep.N)
        roots = (rep.table[:, layout.columns] + layout.offsets).tolist()
        assert set(layout.forms) == {"C", "Cbar", "M", "Mbar", "MCbar"}
        for pattern, row_roots in zip(rep.patterns, roots):
            for name, lists in _scalar_factor_lists(pattern).items():
                rows = range(*layout.forms[name].indices(len(layout.signs)))
                assert len(rows) == len(lists), (lam, name)
                for f, (sign, num, den) in zip(rows, lists):
                    assert int(layout.signs[f]) == sign, (lam, name, f)
                    for template, factors in zip(layout.factors[f].tolist(), (num, den)):
                        made = [row_roots[a] - row_roots[b] + c for a, b, c in template]
                        assert made[:len(factors)] == factors, (lam, pattern.rows, name, f)
                        assert template[len(factors):] == [[0, 0, 1]] * (
                            len(template) - len(factors)), (lam, name, f)
                        assert len(template) > len(factors), (lam, name, f)


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


def _fails_only_the_exact_check_on_a_changed_ladder_numerator(rep):
    prefix = "squared ladder coefficients equal M*Cbar"
    assert _check(run_suite("invariants", rep=rep), prefix).passed
    rows, cols, nums, dens = rep._ladders[rep.N - 1]
    nums = nums.copy()
    nums[np.flatnonzero(nums)[0]] += 1
    rep._ladders[rep.N - 1] = (rows, cols, nums, dens)
    report = run_suite("invariants", rep=rep)
    assert not _check(report, prefix).passed
    assert all(c.passed for c in report.checks if not c.description.startswith(prefix))


def test_invariants_exact_check_fails_on_a_changed_ladder_numerator():
    _fails_only_the_exact_check_on_a_changed_ladder_numerator(Representation((2, 1, 0)))


def test_invariants_exact_check_on_python_int_ladder_squares():
    """gl(12) (3/2, -1/2 x 11), dim 78: the top level's stored squares are
    Python ints, and the M*Cbar products they are compared with too."""
    rep = Representation((Fraction(3, 2),) + (Fraction(-1, 2),) * 11)
    assert all(a.dtype == object for a in rep._ladders[rep.N - 1][2:])
    _fails_only_the_exact_check_on_a_changed_ladder_numerator(rep)


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


def _shift_of(rep, row, col):
    """The r of row n of basis vector row minus that of col, which is e_r,
    or 0 where the difference is no e_r."""
    n = rep.N - 1
    start = row_starts(rep.N)[n]
    rows_n = rep.table[:, start:start + n]
    step = rows_n[row] - rows_n[col]
    return int(np.argmax(step)) + 1 if sorted(step.tolist()) == [0] * (n - 1) + [1] else 0


# (2,1,0) restricts to a single whole block; (3,3,2,0) to 135 rows, which are
# split into blocks and joined with psi's triplets.
@pytest.mark.parametrize("lam", [(2, 1, 0), (3, 3, 2, 0)], ids=str)
def test_invariants_support_fails_on_an_entry_moved_off_its_shift(lam, replace_generator):
    """The first entry of a_{1,N}, of shift r, moved within its column to a
    row off that shift: the projectors spread it over the components, and
    the r-th then reaches off its shift."""
    rep = Representation(lam)
    moved = rep.gen(1, rep.N).copy()
    row, col = np.argwhere(moved)[0]
    r = _shift_of(rep, row, col)
    assert r
    other = next(k for k in range(rep.dim) if moved[k, col] == 0 and _shift_of(rep, k, col) != r)
    moved[other, col], moved[row, col] = moved[row, col], 0.0
    replace_generator(rep, 1, rep.N, moved)
    report = run_suite("invariants", rep=rep)
    assert _any_failed(report, f"shift component supports only the +D_{r} weight shift")


@pytest.mark.parametrize("lam", [(2, 1, 0), (3, 3, 2, 0)], ids=str)
def test_invariants_residuals_fail_on_a_flipped_raising_sign(lam, replace_generator):
    rep = Representation(lam)
    flipped = rep.gen(1, rep.N).copy()
    row, col = np.argwhere(flipped)[0]
    flipped[row, col] = -flipped[row, col]
    replace_generator(rep, 1, rep.N, flipped)
    report = run_suite("invariants", rep=rep)
    assert _any_failed(report, CONTRACTION)
    assert _any_failed(report, NORMS)
