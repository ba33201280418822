"""The block layout of a module's matrices: one rule per module, read from
its N*d rows (blocks.DENSE_BELOW), for its characteristic matrices and
their restrictions alike, and no verdict that depends on it."""

import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import charid.blocks
from charid.blocks import DENSE_BELOW
from charid.charident import KIND_A, KIND_ABAR, build_char_matrix
from charid.glrep import Representation
from charid.gtbasis import dimension
from charid.shifts import _restricted_matrices
from charid.verify import run_suite

SUITES = ("identity", "projectors", "invariants")
WHOLE, SPLIT = sys.maxsize, 0  # DENSE_BELOW values that force each layout

# Near both crossovers: restrictions of 45-160 rows and characteristic
# matrices of 75-120 rows.
CROSSOVER_WEIGHTS = [
    (59, 0), (5, 3, 0), (2, 2, 1, 0), (3, 3, 3, 0), (2, 1, 1, 1, 0),
    (Fraction(5, 2), Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), Fraction(1, 2)),
    (2, 2, 2, 2, 0), (1, 1, 1, 1, 0, 0),
]


def _layouts(rep):
    """Whether each characteristic matrix and each restriction is whole."""
    matrices = [build_char_matrix(rep, kind).blocks for kind in (KIND_A, KIND_ABAR)]
    if rep.N > 1:
        matrices += [blocks for blocks, _ in _restricted_matrices(rep, rep.N - 1)]
    return [blocks.whole for blocks in matrices]


def _checks(rep, dense_below):
    """The check records of every suite with DENSE_BELOW set to dense_below,
    and the layouts it gave."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charid.blocks, "DENSE_BELOW", dense_below)
        return [run_suite(suite, rep=rep).checks for suite in SUITES], _layouts(rep)


def _same_verdicts(rep):
    """Run the suites whole and split, check that both layouts were taken
    and that every record agrees; return the records (whole layout)."""
    (whole, whole_layouts), (split, split_layouts) = _checks(rep, WHOLE), _checks(rep, SPLIT)
    assert all(whole_layouts) and not any(split_layouts)
    for suite, a, b in zip(SUITES, whole, split):
        assert [c.description for c in a] == [c.description for c in b], suite
        assert [c.passed for c in a] == [c.passed for c in b], suite
        assert [c.threshold for c in a] == [c.threshold for c in b], suite
        for x, y in zip(a, b):
            assert x.exact == y.exact
            if not x.exact:
                assert abs(x.residual - y.residual) <= 1e-12, (suite, x.description)
    return whole


@pytest.mark.parametrize("lam", CROSSOVER_WEIGHTS, ids=str)
def test_layout_changes_no_verdict(lam):
    checks = _same_verdicts(Representation(lam))
    assert all(c.passed for suite in checks for c in suite)


def _shapes_between(low, high):
    """gl(2)-gl(5) shapes (last label 0, labels up to 8) with N*d rows in
    [low, high]."""
    out = []
    for n in range(2, 6):
        for gaps in itertools.product(range(9), repeat=n - 1):
            lam = tuple(int(x) for x in np.cumsum((0,) + gaps[::-1])[::-1])
            if lam[0] <= 8 and low <= n * dimension(lam) <= high:
                out.append(lam)
    return out


@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.sampled_from(_shapes_between(40, 200)),
       st.sampled_from([0, Fraction(1, 2), -3, Fraction(-7, 2)]))
def test_layout_changes_no_verdict_on_drawn_weights(shape, shift):
    checks = _same_verdicts(Representation(tuple(x + shift for x in shape)))
    assert all(c.passed for suite in checks for c in suite)


def _moved(matrix):
    """The first nonzero entry moved to the next zero place of its row."""
    matrix = matrix.copy()
    row, col = (int(x[0]) for x in np.nonzero(matrix))
    free = int(np.flatnonzero(matrix[row] == 0)[0])
    matrix[row, free], matrix[row, col] = matrix[row, col], 0.0
    return matrix


def _scaled(matrix):
    """The first nonzero entry scaled by 1 + 1e-6."""
    matrix = matrix.copy()
    row, col = (int(x[0]) for x in np.nonzero(matrix))
    matrix[row, col] *= 1 + 1e-6
    return matrix


TAMPERED = [(5, 3, 0), (2, 1, 1, 1, 0), (1, 1, 1, 1, 0, 0)]


@pytest.mark.parametrize("tamper", [_moved, _scaled], ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("lam, kept", [pytest.param(lam, False, id=str(lam)) for lam in TAMPERED]
                         + [pytest.param(lam, True, id=f"{lam} kept") for lam in TAMPERED])
def test_tampered_module_fails_the_same_records_in_both_layouts(lam, kept, tamper,
                                                                replace_generator):
    """Negative control: a changed entry of a_12, a generator of every
    restriction, fails records, and the same ones whole and split.  A kept
    module has run an identity job first, so it kept the split layouts of
    its characteristic matrices: the tamper must drop them, or the split
    records would read the old pattern's layout."""
    rep = Representation(lam)
    if kept:
        assert run_suite("identity", rep=rep).passed and rep._memo
    replace_generator(rep, 1, 2, tamper(rep.gen(1, 2)))
    checks = _same_verdicts(rep)
    failed = {suite: [c.description for c in records if not c.passed]
              for suite, records in zip(SUITES, checks)}
    assert failed["identity"] and failed["invariants"], failed


# Every benchmark module that builds blocks, by its shape (each draw shifts
# the labels, which leaves the layout as it is), and whether its
# characteristic matrices and restrictions are whole.  melcross and rep
# jobs build none.
BENCHMARK_LAYOUTS = [
    # exact-small invariants, gl(2) dims 4-9: at most 18 rows N*d
    *[((k, 0), True) for k in range(3, 9)],
    # gl(3) dim 15 (also the relations, identity and projectors slots) and
    # dim 27 (81 and 54 rows), gl(4) dim 20 (80 and 60 rows)
    ((3, 2, 0), True), ((3, 1, 0), True), ((4, 2, 0), True),
    ((2, 2, 1, 0), True), ((2, 1, 0, 0), True),
    # gl(4) dim 45, gl(5) dim 24 (120 and 96 rows), gl(6) dim 21
    ((3, 3, 2, 0), False), ((3, 1, 0, 0), False),
    ((2, 1, 1, 1, 0), False),
    ((Fraction(5, 2), Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), Fraction(1, 2)), False),
    ((2, 2, 2, 2, 2, 0), False), ((2, 0, 0, 0, 0, 0), False),
    # the gl(3) dim-8 probes of every workload
    ((2, 1, 0), True),
    # dense-verify: gl(4) dims 216 and 224, gl(5) dim 160
    ((6, 6, 5, 0), False), ((6, 1, 0, 0), False), ((5, 5, 3, 0), False),
    ((5, 2, 0, 0), False), ((4, 3, 3, 3, 0), False), ((4, 1, 1, 1, 0), False),
]


@pytest.mark.parametrize("lam, whole", BENCHMARK_LAYOUTS, ids=lambda x: str(x))
def test_benchmark_layouts(lam, whole):
    rep = Representation(lam)
    assert (rep.N * rep.dim < DENSE_BELOW) == whole
    assert _layouts(rep) == [whole] * 4


def test_benchmark_layouts_at_the_crossover():
    """The rows of the classes the rule separates: gl(5) dim 24 is split at
    96 restricted rows, gl(4) dim 20 and gl(3) dim 27 stay whole at 80 and
    81 rows, and gl(2) (120,0) restricts to 121 one-row blocks."""
    for lam, rows, whole in (((2, 1, 1, 1, 0), (120, 96), False),
                             ((2, 2, 1, 0), (80, 60), True),
                             ((4, 2, 0), (81, 54), True)):
        rep = Representation(lam)
        char, restricted = (build_char_matrix(rep, KIND_A).blocks,
                            _restricted_matrices(rep, rep.N - 1)[0][0])
        assert (char.size, restricted.size) == rows
        assert (char.whole, restricted.whole) == (whole, whole)
    restricted = _restricted_matrices(Representation((120, 0)), 1)
    for blocks, _ in restricted:
        assert [index.shape for index in blocks.index] == [(121, 1)]
        assert [stack.shape for stack in blocks.stacks] == [(121, 1, 1)]
