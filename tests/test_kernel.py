import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from charid.kernel import (
    DimensionError,
    DomainError,
    Surd,
    Tolerance,
    entry_index,
    matrix_power,
    max_abs,
    partial_trace_block,
    rationalize,
    to_rational,
)
from reference import is_zero


def test_matrix_power_zero_exponent_gives_identity():
    m = np.array([[2.0, 3.0], [5.0, 7.0]])
    assert np.array_equal(matrix_power(m, 0), np.eye(2))


def test_matrix_power_identity_fixed_point():
    assert np.array_equal(matrix_power(np.eye(2), 5), np.eye(2))


def test_matrix_power_nilpotent():
    # [[0,1],[0,0]] squares to zero by hand multiplication
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(matrix_power(m, 2), np.zeros((2, 2)))


def test_matrix_power_addition_law():
    rng = random.Random(20240301)
    tol = Tolerance()
    for _ in range(25):
        n = rng.randint(1, 5)
        m = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        lhs = matrix_power(m, a + b)
        rhs = matrix_power(m, a) @ matrix_power(m, b)
        assert is_zero(tol, lhs - rhs, lhs, rhs)


def test_matrix_power_rejects_bad_input():
    with pytest.raises(DimensionError):
        matrix_power(np.zeros((2, 3)), 2)
    with pytest.raises(DomainError):
        matrix_power(np.eye(2), -1)
    with pytest.raises(DomainError):
        matrix_power(np.array([[np.nan]]), 1)


def test_partial_trace_of_identity():
    assert np.array_equal(partial_trace_block(np.eye(6), 3, 2), 3 * np.eye(2))


def test_partial_trace_scalar_blocks():
    # diagonal blocks [[1]] and [[2]], arbitrary off-diagonal
    b = np.array([[1.0, 9.0], [-4.0, 2.0]])
    assert np.array_equal(partial_trace_block(b, 2, 1), np.array([[3.0]]))


def test_partial_trace_matches_hand_block_sum():
    rng = np.random.default_rng(7)
    s, d = 3, 4
    big = rng.uniform(-1, 1, size=(s * d, s * d))
    expected = np.zeros((d, d))
    for i in range(s):  # same summation order as the implementation
        expected += big[i * d:(i + 1) * d, i * d:(i + 1) * d]
    assert np.array_equal(partial_trace_block(big, s, d), expected)


def test_partial_trace_first_casimir_on_defining_rep():
    # blocks e_ij for the two-dimensional defining module: the block trace
    # of the generator matrix is sum(labels) = 1 times the identity
    big = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            block = np.zeros((2, 2))
            block[i, j] = 1.0
            big[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2] = block
    assert np.array_equal(partial_trace_block(big, 2, 2), np.eye(2))


def test_partial_trace_dimension_error():
    with pytest.raises(DimensionError):
        partial_trace_block(np.eye(6), 4, 2)


def test_rational_field_properties():
    rng = random.Random(99)

    def rand():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 23))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_rational_coercion():
    assert to_rational("3/2") == Fraction(3, 2)
    assert to_rational(4) == Fraction(4)
    with pytest.raises(DomainError):
        to_rational(0.5)


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0"])
def test_zero_denominator_is_domain_error(text):
    with pytest.raises(DomainError, match="zero denominator"):
        to_rational(text)


def test_surd_multiplication_is_componentwise():
    rng = random.Random(5)
    for _ in range(100):
        s1, s2 = rng.choice((-1, 1)), rng.choice((-1, 1))
        r1 = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        r2 = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        assert Surd(s1, r1) * Surd(s2, r2) == Surd(s1 * s2, r1 * r2)


def test_surd_square_is_rational_and_non_negative():
    assert Surd(-1, Fraction(7, 3)).squared == Fraction(7, 3)
    assert Surd.zero().squared == 0


def test_surd_zero_and_float():
    assert float(Surd.zero()) == 0.0
    assert float(Surd.sqrt(Fraction(9, 4))) == pytest.approx(1.5, abs=1e-15)
    assert float(-Surd.sqrt(2)) == pytest.approx(-1.4142135623730951)


def test_surd_string_form():
    assert str(Surd.sqrt(Fraction(2))) == "1*sqrt(2/1)"
    assert str(-Surd.sqrt(Fraction(1, 2))) == "-1*sqrt(1/2)"
    assert str(Surd.zero()) == "0"


def test_surd_invariants_enforced():
    with pytest.raises(DomainError):
        Surd(1, Fraction(-1))
    with pytest.raises(DomainError):
        Surd(0, Fraction(3))
    with pytest.raises(DomainError):
        Surd(2, Fraction(1))


def test_tolerance_validation_and_scale():
    for value in (0.0, -1e-9, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            Tolerance(value)
    tol = Tolerance(1e-12)
    big = np.full((2, 2), 1e6)
    noise = np.full((2, 2), 1e-7)
    assert max_abs(noise) <= tol.threshold(max_abs(big))  # relative part carries it
    assert not max_abs(noise) <= tol.threshold(max_abs(noise))


def test_tolerance_rejects_vacuous_components():
    for value in (2e-3, 1.0, 1e300):
        with pytest.raises(DomainError):
            Tolerance(value)
    for value in (Tolerance.MAX_EPS, 1e-9, 1e-30):
        assert Tolerance(value).threshold() == value
        assert Tolerance(value).threshold(3.0) == value + value * 3.0
    assert Tolerance() == Tolerance(1e-9)


def test_tolerance_is_one_value():
    """One settable value is both the absolute and the relative component."""
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["eps"]
    with pytest.raises(TypeError):
        Tolerance(abs_eps=1e-9)


def test_rationalize_roundtrip_and_failure():
    tol = Tolerance()
    assert rationalize(1.5, tol) == Fraction(3, 2)
    assert rationalize(float(Fraction(-9, 4)), tol) == Fraction(-9, 4)
    with pytest.raises(Exception):
        rationalize(0.1234567891234, Tolerance(1e-15))


def test_max_abs_empty():
    assert max_abs(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("count", [0, 1, 1000])
def test_entry_index_unique_fallback(monkeypatch, count):
    """A bound too large to pack a position beside each key falls back to
    np.unique, with the same (size, inverse) as the packed path on the
    same keys."""
    keys = np.random.default_rng(count).integers(0, 300, count)
    entries, expected = np.unique(keys, return_inverse=True)
    packed = entry_index(keys, 300)
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
    bound = 2 ** 64 >> count.bit_length()
    fallback = entry_index(keys, bound)
    assert len(calls) == 1
    entry_index(keys, bound >> 1)  # the largest bound that still packs
    assert len(calls) == 1
    for size, inverse in (fallback, packed):
        assert size == len(entries)
        assert np.array_equal(inverse, expected)
