from fractions import Fraction

import pytest

from charid.kernel import DomainError
from charid.gtbasis import (
    GTPattern,
    branch,
    dimension,
    enumerate_patterns,
    pattern_weight,
    weight,
)


def w(*labels):
    return weight(labels)


def test_branch_defining_gl2():
    assert branch(w(1, 0)) == [w(1), w(0)]


def test_branch_adjoint_gl3():
    assert branch(w(2, 1, 0)) == [w(2, 1), w(2, 0), w(1, 1), w(1, 0)]


def test_branch_trivial():
    assert branch(w(0, 0)) == [w(0)]


def test_branch_rejects_bad_weights():
    with pytest.raises(DomainError):
        branch(w(0, 1))
    with pytest.raises(DomainError):
        branch((Fraction(1), Fraction(1, 2)))
    with pytest.raises(DomainError):
        branch(w(3))  # no gl(0) below gl(1)


def test_enumerate_defining_gl2():
    pats = enumerate_patterns(w(1, 0))
    assert [p.row(1) for p in pats] == [(1,), (0,)]


def test_enumerate_adjoint_gl3_count():
    # the eight-dimensional module, count must match the Weyl formula
    pats = enumerate_patterns(w(2, 1, 0))
    assert len(pats) == 8 == dimension(w(2, 1, 0))


def test_enumerate_trivial_always_single():
    for n in range(1, 5):
        assert len(enumerate_patterns(w(*([0] * n)))) == 1


@pytest.mark.parametrize("lam", [
    (1,), (3,), (2, 0), (3, 3), (2, 1, 0), (3, 1, 1), (2, 2, 0),
    (1, 1, 0, 0), (2, 1, 1, 0), (3, 2, 1, 0),
])
def test_pattern_count_equals_weyl_dimension(lam):
    assert len(enumerate_patterns(w(*lam))) == dimension(w(*lam))


def test_pattern_weight_defining_gl2():
    pats = enumerate_patterns(w(1, 0))
    assert pattern_weight(pats[0]) == w(1, 0)
    assert pattern_weight(pats[1]) == w(0, 1)


def test_pattern_weight_zero():
    (pat,) = enumerate_patterns(w(0, 0, 0))
    assert pattern_weight(pat) == w(0, 0, 0)


def test_highest_pattern_carries_highest_weight():
    for lam in [(2, 1, 0), (3, 1), (2, 2, 1, 0)]:
        pats = enumerate_patterns(w(*lam))
        assert pattern_weight(pats[0]) == w(*lam)
        # ordinal 0 is the pattern with every row maximal
        assert all(pats[0].row(k) == w(*lam)[:k] for k in range(1, len(lam) + 1))


def test_canonical_order_is_descending_and_stable():
    pats = enumerate_patterns(w(2, 1, 0))
    flats = [p.flat() for p in pats]
    assert flats == sorted(flats, reverse=True)
    assert enumerate_patterns(w(2, 1, 0)) == pats


def test_branch_is_top_row_fiber_of_enumeration():
    lam = w(2, 1, 0)
    pats = enumerate_patterns(lam)
    for mu in branch(lam):
        fiber = [p for p in pats if p.row(2) == mu]
        assert len(fiber) == dimension(mu)


def test_dimension_examples():
    assert dimension(w(2, 1, 0)) == 8
    for k in range(7):
        assert dimension(w(k, 0)) == k + 1
    assert dimension(w(0, 0, 0, 0, 0)) == 1


def test_dimension_with_common_fractional_shift():
    # only label differences matter
    assert dimension((Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))) == \
        dimension(w(2, 1, 0))


def test_shifted_validity():
    pats = enumerate_patterns(w(2, 0))
    top = pats[0]  # row1 = (2,)
    assert top.shifted(1, 1) is None  # 3 > 2 breaks interlacing
    lowered = top.shifted_many([(1, 1, -1)])
    assert lowered is not None and lowered.row(1) == (1,)


def test_shifted_many_allows_broken_intermediates():
    # lowest pattern of the gl(3) defining module: raising row 1 alone is
    # invalid, raising rows 2 and 1 together is valid
    pats = enumerate_patterns(w(1, 0, 0))
    low = pats[-1]
    assert low.shifted(1, 1) is None
    target = low.shifted_many([(2, 1, 1), (1, 1, 1)])
    assert target is not None and target == pats[0]


def test_row_accessors():
    pat = enumerate_patterns(w(2, 1, 0))[0]
    assert pat.row(3) == (2, 1, 0)
    assert pat.label(2, 2) == 1
    with pytest.raises(DomainError):
        pat.row(4)
