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
    """Labels of 1e200 pass 2^52 (their relations products would also
    overflow, inf - inf = NaN); the offset 1e30 does not fit the int64
    pattern table."""
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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ("gl2", "100000000000000000001,100000000000000000000", "relations"),
    ("gl2", "100000000000000000001,100000000000000000000", "projectors"),
    ("gl2", "9007199254740991/2,9007199254740989/2", "identity"),
    ("gl2", "9007199254740991/2,9007199254740989/2", "projectors"),
    ("gl2", "1e200,1e200", "projectors"),
    ("gl2", "1e200,1e200", "invariants"),
], ids=" ".join)
def test_labels_past_2_52_are_refused_by_the_float_checks(argv):
    """Float64 holds 10^20 + 1 and 10^20 as one value, and 2^52 + 1/2 as
    2^52, so the checks would fail these exact modules (exit 1); on the
    dim-1 module of (1e200,1e200) they would pass with every residual 0."""
    algebra, weight, suite = argv
    code, out, err = _run(["verify", "--algebra", algebra, f"--weight={weight}",
                           "--suite", suite])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "2^52" in err and err.count("\n") == 1, err


def _staircase(n, top):
    return ",".join(str(top - j) for j in range(n))


# The largest top labels L of the staircases (L, L-1, ..., L-N+1) that the
# gl(N) suites accept, found by bisection on L: L + N - 1 is 2^52 - 1 for
# integer labels and 2^52 - 1/2 for half-integers.
LARGEST_ACCEPTED = [(2, 4503599627370494), (2, Fraction(9007199254740989, 2)),
                    (3, 4503599627370493), (3, Fraction(9007199254740987, 2)),
                    (4, 4503599627370492), (4, Fraction(9007199254740985, 2))]


@pytest.mark.parametrize("n, top, suite", [
    (n, top, suite)
    for n, top in LARGEST_ACCEPTED for suite in GL_SUITES if suite != "melcross" or n > 2
], ids=str)
def test_the_largest_accepted_labels_pass_every_suite(n, top, suite):
    assert max(abs(Fraction(top)), abs(Fraction(top) - n + 1)) + n - 1 < 2 ** 52
    code, out, err = _run(["verify", "--algebra", f"gl{n}",
                           f"--weight={_staircase(n, top)}", "--suite", suite])
    assert (code, err) == (0, ""), out
    assert json.loads(out)["summary"]["overall"] is True


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("top", [10 ** 8, 10 ** 12], ids=str)
def test_exact_staircases_far_below_2_52_pass_relations(n, top):
    """gl(3)-gl(5) staircases failed relations from top labels near 2^24 on,
    when each product D_k v was rounded before the difference was taken;
    on exact label differences every residual stays at a few ulp of 1."""
    code, out, err = _run(["verify", "--algebra", f"gl{n}",
                           f"--weight={_staircase(n, top)}", "--suite", "relations"])
    (check,) = json.loads(out)["checks"]
    assert (code, err) == (0, "") and check["residual"] < 1e-14, check


@pytest.mark.parametrize("n, top", LARGEST_ACCEPTED, ids=str)
def test_one_step_past_the_largest_accepted_labels_is_refused(n, top):
    weight = f"--weight={_staircase(n, top + 1)}"
    for suite in GL_SUITES:
        code, out, err = _run(["verify", "--algebra", f"gl{n}", weight, "--suite", suite])
        assert (code, out) == (2, "") and "2^52" in err, suite
    # rep and roots are exact, so they take any label.
    for argv in (["rep", "--algebra", f"gl{n}", weight, "--format", "csv"],
                 ["roots", "--algebra", f"gl{n}", weight]):
        code, _, err = _run(argv)
        assert (code, err) == (0, ""), argv

