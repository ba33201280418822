"""The batched build of Representation against the scalar closed forms.

The reference below builds a module one pattern at a time, the way the
closed forms read: patterns by branching down the chain, diagonal entries
from pattern_weight, each ladder coefficient from elementary_coefficient on
the shifted pattern, the other generators as dense commutators.  The
batched build must give the same floats bit for bit, store exactly their
nonzero entries as triplets, and give the same exact sidecar."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import charid.glrep
import charid.kernel
import charid.verify
from charid.cli import main
from charid.glrep import Representation, _exact_ratios, elementary_coefficient
from charid.gtbasis import GTPattern, branch, check_highest_weight, pattern_weight
from charid.kernel import ConsistencyError, Surd, commutator
from charid.verify import run_suite
from reference import ordinal

DENSE_VERIFY_SHAPES = [(6, 6, 5, 0), (6, 1, 0, 0), (5, 5, 3, 0), (5, 2, 0, 0),
                       (4, 3, 3, 3, 0), (4, 1, 1, 1, 0)]
SHIFTS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(-22, 7)]
SMALL_WEIGHTS = [lam for n in range(1, 5)
                 for lam in itertools.combinations_with_replacement(range(3, -1, -1), n)]


def _reference_patterns(lam):
    if len(lam) == 1:
        return [GTPattern((lam,))]
    return [GTPattern((lam,) + sub.rows)
            for mu in branch(lam) for sub in _reference_patterns(mu)]


def _reference(lam):
    """(patterns, ordinal, generators, raising surds) built pattern by pattern."""
    lam = check_highest_weight(lam)
    patterns = _reference_patterns(lam)
    ordinal = {p: c for c, p in enumerate(patterns)}
    n, d = len(lam), len(patterns)
    gen, surds = {}, {}
    for k in range(1, n + 1):
        gen[(k, k)] = np.diag([float(pattern_weight(p)[k - 1]) for p in patterns])
    for k in range(1, n):
        mat = np.zeros((d, d))
        surds[k] = {}
        for c, p in enumerate(patterns):
            for r in range(1, k + 1):
                target = p.shifted(k, r)
                if target is not None:
                    coeff = elementary_coefficient(p, k, r)
                    mat[ordinal[target], c] = float(coeff)
                    surds[k][(ordinal[target], c)] = coeff
        gen[(k, k + 1)], gen[(k + 1, k)] = mat, mat.T.copy()
    for span in range(2, n):
        for i in range(1, n - span + 1):
            j = i + span
            gen[(i, j)] = commutator(gen[(i, j - 1)], gen[(j - 1, j)])
            gen[(j, i)] = gen[(i, j)].T.copy()
    return patterns, ordinal, gen, surds


def _assert_matches_reference(lam):
    rep = Representation(lam)
    patterns, ordinals, gen, surds = _reference(lam)
    assert rep.generator_labels() == sorted(gen)
    for key, expected in gen.items():
        # the stored triplets are the row-major nonzeros of the dense
        # matrices, the commutator-built ones too
        rows, cols, values = rep.triplets(*key)
        r, c = np.nonzero(expected)
        assert np.array_equal(rows, r) and np.array_equal(cols, c), (lam, key)
        assert np.array_equal(values, expected[r, c]), (lam, key)
        assert np.array_equal(rep.gen(*key), expected), (lam, key)
    assert rep.patterns == patterns
    assert ordinal(rep) == ordinals
    assert rep.raising_surds == surds
    for k in surds:  # the same entries in the same order
        assert list(rep.raising_surds[k]) == list(surds[k])


@pytest.mark.parametrize("shift", SHIFTS, ids=str)
def test_build_matches_scalar_reference_on_small_weights(shift):
    for lam in SMALL_WEIGHTS:
        _assert_matches_reference(tuple(x + shift for x in lam))


@pytest.mark.parametrize("shift", SHIFTS, ids=str)
@pytest.mark.parametrize("lam", DENSE_VERIFY_SHAPES, ids=str)
def test_build_matches_scalar_reference_on_dense_verify_shapes(lam, shift):
    _assert_matches_reference(tuple(x + shift for x in lam))


def test_exact_ratios_beyond_float_precision():
    """Products that may reach 2**53 are taken in Python ints; every
    quotient is the correctly rounded float of the exact Fraction."""
    rng = np.random.default_rng(7)
    for width in (2, 6, 10):
        num = rng.integers(1, 10 ** 6, size=(20, width)) * rng.choice([-1, 1], size=(20, width))
        den = rng.integers(1, 10 ** 6, size=(20, width))
        for sign in (1, -1):
            nums, dens, values = _exact_ratios(sign, num, den)
            for i in range(len(num)):
                exact = sign * Fraction(math.prod(num[i].tolist()), math.prod(den[i].tolist()))
                assert Fraction(int(nums[i]), int(dens[i])) == exact
                assert values[i] == float(exact)
    assert abs(math.prod(num[0].tolist())) > 2 ** 53  # the last batch needed Python ints
    assert nums.dtype == object


def test_exact_ratios_small_products_stay_int64():
    num = np.array([[3, -5], [7, 1]])
    den = np.array([[2, 9], [1, 1]])
    nums, dens, values = _exact_ratios(-1, num, den)
    assert nums.dtype == np.int64 and dens.dtype == np.int64
    assert nums.tolist() == [15, -7] and dens.tolist() == [18, 1]
    assert values.tolist() == [float(Fraction(15, 18)), -7.0]


def test_negative_squared_coefficient_raises_at_first_pattern(monkeypatch):
    """A negative square is a construction bug; it is reported for the first
    pattern in basis order, as the scalar path would."""
    import charid.glrep as glrep

    exact = glrep._exact_ratios
    monkeypatch.setattr(glrep, "_exact_ratios",
                        lambda sign, num, den: exact(-sign, num, den))
    with pytest.raises(ConsistencyError, match=r"k=1 r=1 on \(\(Fraction\(2, 1\)"):
        Representation((2, 1, 0))


@pytest.mark.parametrize("suite", ["relations", "identity", "projectors", "invariants",
                                   "melcross"])
def test_product_suites_never_build_patterns(suite):
    """The gain of the batched build and of the batched closed forms of
    invariants and melcross rests on these staying unbuilt."""
    rep = Representation((2, 1, 1, 0))
    assert run_suite(suite, rep=rep).passed
    for name in ("patterns", "raising_surds"):
        assert name not in rep.__dict__, name


def _forbidden(*args, **kwargs):
    raise AssertionError("a sparse job reached dense or exact-scalar code")


@pytest.mark.parametrize("argv", [
    ["rep", "--algebra", "gl4", "--weight", "5/2,1/2,-1/2,-7/2"],
    ["rep", "--algebra", "gl5", "--weight", "3,2,2,1,0", "--format", "csv"],
    ["verify", "--algebra", "gl5", "--weight", "3,2,2,1,0", "--suite", "relations"],
], ids=["rep-json", "rep-csv", "relations"])
def test_rep_and_relations_jobs_stay_sparse(argv, monkeypatch, capsys):
    """No dense generator, dense commutator or Surd is made by an export
    or a relations job."""
    monkeypatch.setattr(Representation, "gen", _forbidden)
    for module in (charid.kernel, charid.glrep, charid.verify):
        monkeypatch.setattr(module, "commutator", _forbidden)
    monkeypatch.setattr(Surd, "__post_init__", _forbidden)
    assert main(argv) == 0
    assert capsys.readouterr().out
