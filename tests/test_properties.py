"""Property tests over random dominant gl(2..4) weights, shifted by a
rational multiple of the identity.  Derandomized, so every run draws the
same examples."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charid.glrep import Representation
from charid.verify import run_suite

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
