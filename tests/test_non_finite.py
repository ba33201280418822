"""A residual or threshold that is not finite judges nothing: a NaN entry,
an overflowing product and labels whose offsets pass int64 are refused
with exit code 2 and one error line, never passed or failed."""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import charid.cli
import charid.verify
from charid.charident import Blocks
from charid.cli import main
from charid.glrep import Representation
from charid.kernel import DomainError, Tolerance
from charid.verify import run_suite

LAM = (3, 2, 1, 0)
# Elementary raising and lowering, non-elementary, the last elementary
# (raising column of the invariants suite) and a diagonal generator, which
# keeps both facts of the relations suite's orbit path.
NAN_GENERATORS = [(1, 2), (2, 1), (1, 3), (3, 4), (2, 2)]
GL_SUITES = ("relations", "identity", "projectors", "invariants", "melcross")


def _suites_reading(i, j):
    """The suites that read a_ij of a gl(4) module: melcross reads only the
    non-elementary a_13, a_24 and a_14."""
    return [s for s in GL_SUITES if s != "melcross" or j - i >= 2]


def _with_nan(replace_generator, i, j, position):
    """(3,2,1,0) with the first (position 0) or last (-1) stored entry of
    a_ij set to NaN."""
    rep = Representation(LAM)
    rows, cols, _ = rep.triplets(i, j)
    matrix = rep.gen(i, j).copy()
    matrix[rows[position], cols[position]] = np.nan
    replace_generator(rep, i, j, matrix)
    return rep


CASES = [(i, j, position) for i, j in NAN_GENERATORS for position in (0, -1)]


def _case_id(case):
    i, j, position = case
    return f"a_{i}{j}-{'first' if position == 0 else 'last'}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_a_nan_entry_is_refused_by_every_suite_that_reads_it(case, replace_generator,
                                                              monkeypatch):
    i, j, position = case
    rep = _with_nan(replace_generator, i, j, position)
    # Only a diagonal generator keeps a_ji = a_ij^T (NaN equals nothing).
    assert charid.verify._transpose_closed(rep) == (i == j)
    for suite in _suites_reading(i, j):
        with pytest.raises(DomainError, match="not finite"):
            run_suite(suite, rep=rep)
    monkeypatch.setattr(charid.verify, "_transpose_closed", lambda rep: False)
    with pytest.raises(DomainError, match="not finite"):
        run_suite("relations", rep=rep)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_a_nan_entry_exits_2_through_the_cli(case, replace_generator, monkeypatch, capsys):
    i, j, position = case
    monkeypatch.setattr(charid.cli, "Representation",
                        lambda labels: _with_nan(replace_generator, i, j, position))
    for suite in _suites_reading(i, j):
        code = main(["verify", "--algebra", "gl4", "--weight=3,2,1,0", "--suite", suite])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), suite
        assert err.startswith("error:") and err.count("\n") == 1, (suite, err)


def test_a_nan_in_a_later_stack_survives_the_fold():
    """Blocks.max_abs folds one maximum per stack; a NaN in the second
    stack is not dropped behind the first stack's maximum."""
    blocks = Blocks(3, (np.array([[0]]), np.array([[1, 2]])),
                    (np.full((1, 1, 1), 2.0), np.array([[[1.0, np.nan], [0.0, 1.0]]])))
    assert np.isnan(blocks.max_abs())
    assert not Tolerance().is_zero(np.zeros(2), np.zeros(2), [0.0, np.nan])


@pytest.mark.parametrize("argv", [
    ("verify", "--algebra", "gl2", "--weight=1e200,1e200", "--suite", "relations"),
    ("verify", "--algebra", "gl3", "--weight=1e200,1e200,1e200", "--suite", "relations"),
    ("verify", "--algebra", "gl2", "--weight=1e200,1e200", "--suite", "identity"),
    ("rep", "--algebra", "gl3", "--weight=1e30,0,0"),
    ("verify", "--algebra", "gl3", "--weight=1e30,0,0", "--suite", "relations"),
], ids=" ".join)
def test_overflowing_and_oversized_jobs_exit_2_with_one_line(argv, capsys):
    """The relations products of 1e200 labels overflow (inf - inf = NaN);
    the rank-2 closed form's constant does not fit a float; the offset
    1e30 does not fit the int64 pattern table."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err


@st.composite
def extreme_jobs(draw):
    """A verify job of any gl suite, or a rep export, on gl(1..4) with a
    base label up to +-1e300 (or a half more) and small label offsets, one
    gap of which may be at least 2^63."""
    n = draw(st.integers(1, 4))
    base = draw(st.integers(-10 ** 300, 10 ** 300) | st.integers(-10, 10))
    base += draw(st.sampled_from((Fraction(0), Fraction(1, 2))))
    gaps = draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
    if gaps and draw(st.booleans()):
        gaps[draw(st.integers(0, n - 2))] = draw(st.integers(2 ** 63, 2 ** 80))
    labels = [base]
    for gap in reversed(gaps):
        labels.insert(0, labels[0] + gap)
    weight = "--weight=" + ",".join(map(str, labels))
    command = draw(st.sampled_from(GL_SUITES + ("json", "csv")))
    if command in GL_SUITES:
        return ["verify", "--algebra", f"gl{n}", weight, "--suite", command]
    return ["rep", "--algebra", f"gl{n}", weight, "--format", command]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(extreme_jobs())
def test_extreme_labels_never_crash(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1) and err.getvalue() == ""
        if argv[-1] != "csv":
            json.loads(out.getvalue())
