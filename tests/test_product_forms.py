"""The one exact batch of glrep._product_forms against the per-index loops
it replaced.

The build took the ladder coefficients level by level (_per_level_ladders)
and the melcross suite took the product form of one generator a_{l,n+1}
at a time (_per_pair_melcross), each on the integer pattern table.  Both
are kept here as references: the batch must give the same stored ladder
squares, the same entries and the same check records, bit for bit."""

import importlib.util
import itertools
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charid.glrep import (
    Representation,
    _admissible_shifts,
    _cancelled_ratios,
    _layout,
    nonelementary_magnitudes,
)
from charid.gtbasis import row_starts, table_interlaces
from charid.kernel import ConsistencyError, Tolerance, max_abs
from charid.verify import run_suite

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    """perfbench/workloads.py, loaded from its file (its dataclasses look
    their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_shapes():
    """Every shape of every EXACT_SLOTS, DENSE_SLOTS and EXPORT_SLOTS class."""
    work = _workloads()
    classes = [slot[1:] for slot in work.EXACT_SLOTS] + list(work.DENSE_SLOTS + work.EXPORT_SLOTS)
    return sorted({lam for key in classes for lam in work.shape_class(*key)},
                  key=lambda lam: (len(lam), lam))


BENCHMARK_SHAPES = _benchmark_shapes()
DIM_ONE = [(0, 0, 0), (1, 1, 1, 1, 1, 1)]
GL7 = (1, 1, 1, 0, 0, 0, 0)  # 15 generator pairs, ranges of up to 6 levels
SHIFTS = [Fraction(0), Fraction(1, 2)]


def _ladder_factors(rows, starts, k, r, drop_upper=None, drop_lower=None):
    """The factors of the squared ladder coefficient at level k, index r,
    one row of factors per pattern table row; a dropped factor is 1."""
    up = rows[:, starts[k + 1]:starts[k + 1] + k + 1]
    mid = rows[:, starts[k]:starts[k] + k]
    low = rows[:, starts[k - 1]:starts[k - 1] + k - 1]
    at = np.arange(len(rows))
    labels = np.concatenate((up, low, mid), axis=1)
    sign = np.repeat([1, -1, -1], [k + 1, k - 1, k])
    shift = np.concatenate((-np.arange(1, k + 2), np.arange(2, k + 1), np.arange(1, k + 1)))
    factors = sign * (labels - mid[at, r][:, None] + (r[:, None] + 1)) + shift
    num, t = factors[:, :2 * k], factors[:, 2 * k:]
    den = t * (t + 1)
    den[at, r] = 1
    if drop_upper is not None:
        num[at, drop_upper] = 1
    if drop_lower is not None:
        num[at, k + 1 + drop_lower] = 1
    return (-1 if k % 2 else 1), num, den


def _row_index(table):
    return {row: c for c, row in enumerate(map(tuple, table.tolist()))}


def _per_level_ladders(rep):
    """{k: (rows, cols, nums, dens, values)} of a_{k,k+1}, as the build
    took them before the batch: one level at a time, in basis order of the
    column, r fastest."""
    table, starts, index = rep.table, row_starts(rep.N), _row_index(rep.table)
    out = {}
    for k in range(1, rep.N):
        up = table[:, starts[k + 1]:starts[k + 1] + k + 1]
        mid = table[:, starts[k]:starts[k] + k]
        low = table[:, starts[k - 1]:starts[k - 1] + k - 1]
        ok = mid < up[:, :k]
        ok[:, 1:] &= low > mid[:, 1:]
        cols, r = np.nonzero(ok)
        nums, dens, values, unmatched = _cancelled_ratios(
            *_ladder_factors(table[cols], starts, k, r))
        assert not unmatched.any() and not np.any(nums < 0)
        targets = table[cols]
        targets[np.arange(len(cols)), starts[k] + r] += 1
        rows = np.array([index[row] for row in map(tuple, targets.tolist())], dtype=np.intp)
        out[k] = rows, cols, nums, dens, values
    return out


def _per_pair_magnitudes(rep, l, n):
    """nonelementary_magnitudes as taken before the batch: every shift
    combination applied to the whole table, each level's factors from
    _ladder_factors."""
    starts, index = row_starts(rep.N), _row_index(rep.table)
    levels = range(n, l - 1, -1)
    combos = np.array(list(itertools.product(*(range(level) for level in levels))))
    moves = np.zeros((len(combos), rep.table.shape[1]), dtype=np.int64)
    for pos, level in enumerate(levels):
        moves[np.arange(len(combos)), starts[level] + combos[:, pos]] = 1
    moved = rep.table[:, None, :] + moves
    ok = np.ones(moved.shape[:2], dtype=bool)
    for m in range(rep.N, 1, -1):
        upper = moved[..., starts[m]:starts[m] + m]
        lower = moved[..., starts[m - 1]:starts[m - 1] + m - 1]
        ok &= ((upper[..., :-1] >= lower) & (lower >= upper[..., 1:])).all(axis=-1)
    cols, combo = np.nonzero(ok)
    rows = np.array([index[row] for row in map(tuple, moved[cols, combo].tolist())],
                    dtype=np.intp)
    shifts, sources = combos[combo], rep.table[cols]
    sign, num, den = 1, [], []
    for pos, level in enumerate(levels):
        s, level_num, level_den = _ladder_factors(
            sources, starts, level, shifts[:, pos],
            drop_upper=shifts[:, pos - 1] if level < n else None,
            drop_lower=shifts[:, pos + 1] if level > l else None)
        sign *= s
        num.append(level_num)
        den.append(level_den)
    nums, _, values, unmatched = _cancelled_ratios(
        sign, np.concatenate(num, axis=1), np.concatenate(den, axis=1))
    assert not unmatched.any() and not np.any(nums < 0)
    keep = np.flatnonzero(values)
    order = keep[np.argsort(rows[keep] * rep.dim + cols[keep])]
    return rows[order], cols[order], np.sqrt(values[order])


def _per_pair_melcross(rep, tol):
    """The melcross records as the suite took them before the batch: one
    product form and one keyed sum per generator a_{l,j}, j - l >= 2."""
    out = []
    for l in range(1, rep.N - 1):
        for j in range(l + 2, rep.N + 1):
            actual = rep.triplets(l, j)
            expected = _per_pair_magnitudes(rep, l, j - 1)
            keys = np.concatenate([actual.rows * rep.dim + actual.cols,
                                   expected[0] * rep.dim + expected[1]])
            terms = np.concatenate((np.abs(actual.values), -expected[2]))
            resid = max_abs(np.bincount(np.unique(keys, return_inverse=True)[1], weights=terms))
            out.append((f"|a_{l},{j}| entries match the product form on "
                        f"({','.join(str(x) for x in rep.weight)})",
                        resid, tol.threshold(max_abs(terms))))
    return out


def _assert_ladders_match(rep):
    reference = _per_level_ladders(rep)
    assert sorted(rep._ladders) == sorted(reference)
    for k, (rows, cols, nums, dens, values) in reference.items():
        stored = rep._ladders[k]
        for got, want in zip(stored, (rows, cols, nums, dens)):
            assert np.array_equal(got, want), (rep.weight, k)
        keep = np.flatnonzero(values)
        order = keep[np.argsort(rows[keep] * rep.dim + cols[keep])]
        triplets = rep.triplets(k, k + 1)
        assert np.array_equal(triplets.rows, rows[order]), (rep.weight, k)
        assert np.array_equal(triplets.cols, cols[order]), (rep.weight, k)
        assert np.array_equal(triplets.values, np.sqrt(values[order])), (rep.weight, k)


def _assert_melcross_matches(rep):
    tol = Tolerance()
    checks = run_suite("melcross", rep=rep, tol=tol).checks
    assert [(c.description, c.residual, c.threshold) for c in checks] \
        == _per_pair_melcross(rep, tol)
    for l in range(1, rep.N - 1):
        for n in range(l + 1, rep.N):
            got, want = nonelementary_magnitudes(rep, l, n), _per_pair_magnitudes(rep, l, n)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (rep.weight, l, n)


def _assert_matches_loops(lam):
    rep = Representation(lam)
    _assert_ladders_match(rep)
    if rep.N >= 3:
        _assert_melcross_matches(rep)


@pytest.mark.parametrize("shift", SHIFTS, ids=str)
@pytest.mark.parametrize("lam", BENCHMARK_SHAPES, ids=str)
def test_batch_equals_the_loops_on_every_benchmark_shape(lam, shift):
    _assert_matches_loops(tuple(x + shift for x in lam))


@pytest.mark.parametrize("lam", DIM_ONE + [GL7], ids=str)
def test_batch_equals_the_loops_on_dim_one_and_gl7(lam):
    """A dim-1 module has no ladder entry; gl(7) has 15 generators a_{l,j},
    a_{1,7} taking the range of 6 levels."""
    _assert_matches_loops(lam)
    rep = Representation(lam)
    checks = run_suite("melcross", rep=rep).checks
    assert len(checks) == (rep.N - 1) * (rep.N - 2) // 2 and all(c.passed for c in checks)
    if rep.dim == 1:
        assert all(len(a) == 0 for ladder in rep._ladders.values() for a in ladder)


@st.composite
def small_weights(draw):
    """A dominant gl(2..6) weight of small dimension, shifted by c or
    c + 1/2 with c in -5..5."""
    n = draw(st.integers(2, 6))
    top = {2: 8, 3: 4, 4: 3, 5: 2, 6: 1}[n]
    lam = sorted(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), reverse=True)
    c = draw(st.integers(-5, 5)) + draw(st.sampled_from((Fraction(0), Fraction(1, 2))))
    return tuple(x + c for x in lam)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_weights())
def test_batch_equals_the_loops_on_random_weights(lam):
    _assert_matches_loops(lam)


def _moved_entry(rep, i, j):
    """a_ij with its first stored entry moved to the first position of its
    row that holds none."""
    moved = rep.gen(i, j).copy()
    row, col = np.argwhere(moved)[0]
    free = np.flatnonzero(moved[row] == 0)[0]
    moved[row, free], moved[row, col] = moved[row, col], 0.0
    return moved


# (l, j) of the first and of the last non-elementary generator of gl(5)
@pytest.mark.parametrize("generator", [(1, 3), (3, 5)], ids=["first", "last"])
def test_a_moved_entry_fails_only_its_own_generator(generator, replace_generator):
    """The batch folds its one keyed union per generator: an entry moved in
    one generator shows in that generator's record alone."""
    rep = Representation((2, 1, 1, 0, 0))
    assert run_suite("melcross", rep=rep).passed
    replace_generator(rep, *generator, _moved_entry(rep, *generator))
    prefix = f"|a_{generator[0]},{generator[1]}|"
    tol = Tolerance()
    checks = run_suite("melcross", rep=rep, tol=tol).checks
    assert len(checks) == 6
    assert [c.passed for c in checks] == [not c.description.startswith(prefix) for c in checks]
    assert [(c.description, c.residual, c.threshold) for c in checks] \
        == _per_pair_melcross(rep, tol)


def test_a_negative_product_form_raises_in_the_scalar_words(monkeypatch):
    """A negative square is a construction bug; the batch reports the
    first, in range and then basis order, as nonelementary_coefficient
    words it."""
    import charid.glrep as glrep

    rep = Representation((2, 1, 0))
    exact = glrep._exact_ratios
    monkeypatch.setattr(glrep, "_exact_ratios", lambda sign, num, den: exact(-sign, num, den))
    pattern, shifts = next((p, (i, 1)) for p in rep.patterns for i in (1, 2)
                           if p.shifted_many([(2, i, 1), (1, 1, 1)]) is not None)
    with pytest.raises(ConsistencyError,
                       match=rf"negative squared coefficient -\d+(/\d+)? for a_1,3 shifts "
                             rf"{re.escape(str(shifts))} on {re.escape(str(pattern.rows))}$"):
        nonelementary_magnitudes(rep, 1, 2)


@pytest.mark.parametrize("lam", [(2, 1, 0), (3, 2, 2, 0), (2, 2, 1, 0, 0), (2, 1, 1, 0, 0, 0), GL7],
                         ids=str)
def test_admissible_shifts_are_the_interlacing_targets(lam):
    """Every (range, pattern, shift combination) whose raised pattern
    interlaces, and no other, in range, basis and itertools.product order."""
    rep = Representation(lam)
    N, starts = rep.N, row_starts(rep.N)
    ranges = tuple((l, n) for l in range(1, N) for n in range(l, N))
    owner, sources, shifts = _admissible_shifts(rep.table, _layout(N, ranges))
    for i, (l, n) in enumerate(ranges):
        levels = range(n, l - 1, -1)
        combos = np.array(list(itertools.product(*(range(level) for level in levels))))
        moves = np.zeros((len(combos), rep.table.shape[1]), dtype=np.int64)
        for pos, level in enumerate(levels):
            moves[np.arange(len(combos)), starts[level] + combos[:, pos]] = 1
        cols, combo = np.nonzero(table_interlaces(rep.table[:, None, :] + moves, N))
        mine = owner == i
        assert np.array_equal(sources[mine], cols), (lam, l, n)
        assert np.array_equal(shifts[mine][:, list(levels)], combos[combo]), (lam, l, n)
        outside = np.setdiff1d(np.arange(N + 1), list(levels))
        assert np.all(shifts[mine][:, outside] == -1), (lam, l, n)
