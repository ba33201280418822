import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charid.kernel import (
    DegenerateRootError,
    DomainError,
    Tolerance,
    matrix_power,
    max_abs,
    partial_trace_block,
    rationalize,
)
from charid.gtbasis import (
    branch, dimension, enumerate_patterns, format_weight, is_dominant, pattern_weight,
    row_starts, table_labels, weight)
import charid.verify
from charid.glrep import Representation, gl_block_entries, gl_block_matrix
from charid.blocks import DENSE_BELOW, _pattern_components
from charid.shifts import ShiftBatch, _restricted_matrices
from charid.charident import (
    KIND_A,
    KIND_ABAR,
    KIND_GENERAL,
    Blocks,
    CharMatrix,
    DualVectorRep,
    Root,
    _blocked_product,
    _lagrange_stacks,
    build_char_matrix,
    build_projector,
    casimir_sigma,
    cbar_diagonal,
    char_roots,
    dual_vector_weight,
    elementary_square_from_invariants,
    general_root_candidates,
    invariant_C_eigenvalue,
    invariant_M_eigenvalue,
    norm_invariant_diagonals,
    restricted_projector,
    shift_components,
    vector_weight,
    verify_identity,
)
from charid.glrep import casimir_eigenvalue_formula
from charid.superglmn import super_vector_weight
from charid.verify import _corner_residual, run_suite
from reference import (
    every_projector, invariant_C_sums, is_zero, ordinal, rank, row_shift_ids, support_residual)

TOL = Tolerance()


def _block(big, i, j, d):
    return big[(i - 1) * d:i * d, (j - 1) * d:j * d]


def test_char_matrix_blocks_defining_gl2():
    rep = Representation((1, 0))
    cm = build_char_matrix(rep, KIND_A)
    expected = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            expected[i * 2 + i, j * 2 + j] = 1.0  # e_ij (x) e_ij
    assert np.array_equal(cm.big, expected)
    # oracle: dense eigensolve
    eigs = sorted(np.linalg.eigvalsh(cm.big))
    assert eigs == pytest.approx([0.0, 0.0, 0.0, 2.0], abs=1e-12)
    values = [float(r.value) for r in char_roots((1, 0), KIND_A)]
    assert values == [2.0, 0.0]


def test_char_roots_examples():
    spec = char_roots((2, 1, 0), KIND_A)
    assert [r.value for r in spec] == [4, 2, 0]
    spec_bar = char_roots((2, 1, 0), KIND_ABAR)
    assert [r.value for r in spec_bar] == [-2, 0, 2]


def test_char_roots_constituents_and_multiplicities():
    spec = char_roots((2, 1, 0), KIND_ABAR)
    assert [r.constituent for r in spec] == \
        [weight((3, 1, 0)), weight((2, 2, 0)), weight((2, 1, 1))]
    assert [r.multiplicity for r in spec] == [15, 6, 3]
    # absent root: raising the repeated label is not dominant
    spec = char_roots((1, 1), KIND_ABAR)
    assert [r.multiplicity for r in spec] == [dimension(weight((2, 1))), 0]


def test_general_kind_reproduces_both_plain_kinds():
    rep = Representation((2, 1, 0))
    general_vec = build_char_matrix(rep, KIND_GENERAL,
                                    aux=Representation(vector_weight(3)))
    assert max_abs(general_vec.big - build_char_matrix(rep, KIND_ABAR).big) < 1e-12
    general_dual = build_char_matrix(rep, KIND_GENERAL, aux=DualVectorRep(3))
    assert max_abs(general_dual.big - build_char_matrix(rep, KIND_A).big) < 1e-12


def test_general_roots_with_vector_aux_match_abar_values():
    lam = weight((2, 1, 0))
    # oracle: direct quadratic-Casimir eigenvalue differences
    chi_lam = casimir_eigenvalue_formula(lam, 2)
    chi_mu = casimir_eigenvalue_formula(vector_weight(3), 2)
    expected = {}
    for k in range(3):
        nu = list(lam)
        nu[k] += 1
        if all(nu[i] >= nu[i + 1] for i in range(2)):
            value = -(casimir_eigenvalue_formula(nu, 2) - chi_mu - chi_lam) / 2
            expected[tuple(nu)] = value
    candidates = general_root_candidates(lam, vector_weight(3))
    for value, nus in candidates.items():
        assert len(nus) == 1
        assert expected[nus[0]] == value
    bar_values = {r.value for r in char_roots(lam, KIND_ABAR)}
    assert set(candidates) == bar_values


def test_general_spectrum_is_subset_of_candidates():
    rep = Representation((2, 1, 0))
    mu = weight((2, 0, 0))
    cm = build_char_matrix(rep, KIND_GENERAL, aux=Representation(mu))
    spec = char_roots(rep.weight, KIND_GENERAL, mu=mu, cm=cm)
    assert sum(r.multiplicity for r in spec) == cm.big.shape[0]
    candidates = set(general_root_candidates(rep.weight, mu))
    assert {r.value for r in spec} <= candidates


def test_verify_identity_gl1_exact():
    rep = Representation((7,))
    cm = build_char_matrix(rep, KIND_A)
    reports = verify_identity(cm, char_roots((7,), KIND_A))
    assert all(r.passed for r in reports)
    assert reports[0].residual == 0.0
    assert any("rank-1" in r.description for r in reports)


def test_verify_identity_gl2_quadratic_form():
    rep = Representation((3, 1))
    reports = verify_identity(build_char_matrix(rep, KIND_A),
                              char_roots((3, 1), KIND_A))
    assert any("rank-2" in r.description and r.passed for r in reports)


@pytest.mark.parametrize("kind", [KIND_A, KIND_ABAR])
def test_verify_identity_gl3(kind):
    rep = Representation((2, 1, 0))
    reports = verify_identity(build_char_matrix(rep, kind),
                              char_roots((2, 1, 0), kind))
    assert reports[0].residual < 1e-9
    assert reports[0].passed


def test_perturbed_root_fails_identity():
    rep = Representation((2, 1, 0))
    cm = build_char_matrix(rep, KIND_A)
    spec = list(char_roots((2, 1, 0), KIND_A))
    spec[0] = Root(spec[0].value + Fraction(1, 1000), spec[0].constituent,
                   spec[0].multiplicity)
    report = verify_identity(cm, spec)[0]
    assert not report.passed
    assert report.residual > 1e-4


def test_zero_weight_char_matrix():
    rep = Representation((0, 0, 0))
    cm = build_char_matrix(rep, KIND_A)
    assert max_abs(cm.big) == 0.0
    spec = char_roots((0, 0, 0), KIND_A)
    assert [r.value for r in spec] == [2, 1, 0]  # n - j shifts
    assert verify_identity(cm, spec)[0].passed


def test_projector_single_root_is_identity():
    rep = Representation((5,))
    cm = build_char_matrix(rep, KIND_A)
    proj = build_projector(cm, char_roots((5,), KIND_A), 1)
    assert np.array_equal(proj.blocks.dense(), np.eye(1))


def test_projector_rank_counts_constituent_dimension():
    rep = Representation((1, 0))
    cm = build_char_matrix(rep, KIND_ABAR)
    spec = char_roots((1, 0), KIND_ABAR)
    proj = build_projector(cm, spec, 1)
    assert rank(proj) == 3 == dimension(weight((2, 0)))
    assert rank(build_projector(cm, spec, 2)) == 1


def test_projector_absent_root_is_zero():
    rep = Representation((1, 1))
    cm = build_char_matrix(rep, KIND_ABAR)
    spec = char_roots((1, 1), KIND_ABAR)
    assert spec[1].multiplicity == 0
    proj = build_projector(cm, spec, 2)
    assert max_abs(proj.blocks.dense()) == 0.0


def test_projector_algebra():
    rep = Representation((2, 1, 0))
    for kind in (KIND_A, KIND_ABAR):
        cm = build_char_matrix(rep, kind)
        spec = char_roots((2, 1, 0), kind)
        projs = [build_projector(cm, spec, r).blocks.dense() for r in (1, 2, 3)]
        for p in projs:
            assert max_abs(p @ p - p) < 1e-10
        for p, q in itertools.combinations(projs, 2):
            assert max_abs(p @ q) < 1e-10
        assert max_abs(sum(projs) - np.eye(3 * rep.dim)) < 1e-10


def test_projector_degenerate_spectrum_raises():
    rep = Representation((1, 0))
    cm = build_char_matrix(rep, KIND_A)
    fake = (Root(Fraction(1), None, 2), Root(Fraction(1), None, 2))
    with pytest.raises(DegenerateRootError):
        build_projector(cm, fake, 1)


def test_spectral_calculus_degree_three():
    rng = random.Random(11)
    rep = Representation((2, 1, 0))
    cm = build_char_matrix(rep, KIND_A)
    spec = char_roots((2, 1, 0), KIND_A)
    projs = {r: build_projector(cm, spec, r).blocks.dense() for r in (1, 2, 3)}
    for _ in range(5):
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        lhs = sum(c * np.linalg.matrix_power(cm.big, k)
                  for k, c in enumerate(coeffs))
        rhs = sum(
            float(sum(c * root.value ** k for k, c in enumerate(coeffs)))
            * projs[r]
            for r, root in enumerate(spec, start=1))
        assert max_abs(lhs - rhs) < 1e-8


def test_shift_components_move_one_label():
    rep = Representation((1, 0))
    sc = shift_components(rep, 1)
    assert sc.contraction_residual < 1e-12
    assert sc.support_residual == 0.0
    # the single component reproduces the raising generator
    assert max_abs(sc.components[0] - rep.gen(1, 2)) < 1e-12


def test_shift_components_completeness_and_consistency():
    rep = Representation((2, 1, 0))
    comps_by_r = [shift_components(rep, r) for r in (1, 2)]
    for sc in comps_by_r:
        assert sc.contraction_residual < 1e-10
        assert sc.support_residual < 1e-10
    for j in range(2):
        total = sum(sc.components[j] for sc in comps_by_r)
        assert max_abs(total - rep.gen(j + 1, 3)) < 1e-10


def test_shift_components_hand_back_their_projectors():
    # (3,3,2,0) has 180 rows N*d, above DENSE_BELOW: its 135-row restriction
    # is split into blocks
    for lam in [(2, 1, 0), (3, 3, 2, 0)]:
        rep = Representation(lam)
        n = rep.N - 1
        for r in range(1, n + 1):
            sc = shift_components(rep, r)
            for kind, projector in ((KIND_A, sc.p), (KIND_ABAR, sc.pbar)):
                expected = restricted_projector(rep, n, r, kind)
                assert projector.size == n * rep.dim
                assert np.array_equal(projector.dense(), expected), (lam, r, kind)


def test_shift_component_zero_when_shift_forbidden():
    rep = Representation((1, 1))
    sc = shift_components(rep, 1)
    assert max_abs(sc.components[0]) < 1e-12  # a_12 annihilates V(1,1)


def test_invariant_c_sums_to_one():
    for lam in [(2, 1, 0), (1, 0), (3, 1, 1, 0)]:
        lam = weight(lam)
        for mu in branch(lam):
            total = sum(invariant_C_eigenvalue(lam, mu, k, "C")
                        for k in range(1, len(lam) + 1))
            assert total == 1


def test_invariant_cbar_example():
    assert invariant_C_eigenvalue((1, 0), (1,), 1, "Cbar") == Fraction(1, 2)
    assert invariant_C_eigenvalue((1, 0), (1,), 2, "Cbar") == Fraction(1, 2)


def test_invariant_cbar_vanishes_on_absent_branches():
    # raising the second label of (1,1) is not admissible, the closed form
    # must vanish on every branch
    lam = weight((1, 1))
    for mu in branch(lam):
        assert invariant_C_eigenvalue(lam, mu, 2, "Cbar") == 0


def test_cbar_operator_blocks_match_formula():
    rep = Representation((2, 1, 0))
    cm = build_char_matrix(rep, KIND_ABAR)
    spec = char_roots(rep.weight, KIND_ABAR)
    for k in (1, 2, 3):
        proj = build_projector(cm, spec, k)
        block = _block(proj.blocks.dense(), 3, 3, rep.dim)
        assert max_abs(block - np.diag(cbar_diagonal(rep, k))) < 1e-9


def test_invariant_c_rejects_non_branch():
    with pytest.raises(DomainError):
        invariant_C_eigenvalue((2, 1, 0), (3, 0), 1, "C")


def test_norm_identities_cleared():
    rep = Representation((2, 1, 0))
    n, d = 2, rep.dim
    for r in (1, 2):
        sc = shift_components(rep, r)
        p_mat = restricted_projector(rep, n, r, KIND_A)
        pbar_mat = restricted_projector(rep, n, r, KIND_ABAR)
        mbar_num, mbar_den = norm_invariant_diagonals(rep, r, bar=True)
        m_num, m_den = norm_invariant_diagonals(rep, r, bar=False)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = mbar_den[:, None] * (sc.components[i - 1]
                                           @ sc.components[j - 1].T)
                rhs = mbar_num[:, None] * _block(p_mat, i, j, d)
                assert max_abs(lhs - rhs) < 1e-9
                lhs = m_den[:, None] * (sc.components[i - 1].T
                                        @ sc.components[j - 1])
                rhs = m_num[:, None] * _block(pbar_mat, i, j, d)
                assert max_abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("lam", [(2, 1, 0), (1, 1, 0), (2, 2, 0), (2, 1, 1, 0)])
def test_squared_ladder_equals_m_cbar_exactly(lam):
    rep = Representation(lam)
    n = rep.N - 1
    surds = rep.raising_surds[n]
    ordinals = ordinal(rep)
    for c, pat in enumerate(rep.patterns):
        for r in range(1, n + 1):
            expected = elementary_square_from_invariants(pat, r)
            target = pat.shifted(n, r)
            if target is None:
                assert expected == 0
            else:
                assert expected == surds[(ordinals[target], c)].squared


def test_invariant_m_vanishes_on_forbidden_shift():
    # branch (1,0) of (1,0,0): raising its first label collides with the
    # top row, so the squared-norm invariant vanishes
    assert invariant_M_eigenvalue((1, 0, 0), (1, 0), 1, "M") == 0


def test_invariant_m_example_value():
    # by hand: top roots (2,0), branch (1): Mbar = -(2-1)(0-1) = 1
    assert invariant_M_eigenvalue((1, 0), (1,), 1, "Mbar") == 1


def test_invariant_m_degenerate_denominator_raises():
    with pytest.raises(DegenerateRootError):
        invariant_M_eigenvalue((1, 1, 0), (1, 1), 1, "Mbar")


def test_restricted_projectors_resolve_branches():
    # ranks of the operator-node projectors equal branch dimensions
    rep = Representation((2, 1, 0))
    n = rep.N - 1
    for r in (1, 2):
        pbar = restricted_projector(rep, n, r, KIND_ABAR)
        p = restricted_projector(rep, n, r, KIND_A)
        assert max_abs(pbar @ pbar - pbar) < 1e-10
        assert max_abs(p @ p - p) < 1e-10
    total = sum(restricted_projector(rep, n, r, KIND_ABAR) for r in (1, 2))
    assert max_abs(total - np.eye(n * rep.dim)) < 1e-10


# Every dominant gl(1..4) weight with labels <= 3, plus two gl(5) weights
# large enough that their characteristic matrices split into many blocks.
BLOCK_SWEEP = [
    lam for n in range(1, 5)
    for lam in itertools.product(range(3, -1, -1), repeat=n) if is_dominant(lam)
] + [(4, 1, 1, 1, 0), (3, 2, 1, 0, 0)]


@functools.lru_cache(maxsize=None)
def _sweep_rep(lam):
    return Representation(lam)


def _components(big):
    """_pattern_components of the nonzero entries of a dense square matrix."""
    return _pattern_components(*np.nonzero(big), big.shape[0])


def _split(big, index):
    """Cut a dense matrix along the given (k, b) index tables."""
    return Blocks(big.shape[0], tuple(index), tuple(big[i[:, :, None], i[:, None, :]] for i in index))


def _dense_split(big, module_rows=None):
    """Reference blocks cut from the dense matrix: the components of its
    nonzero pattern, or one whole block where its module has fewer than
    DENSE_BELOW rows N*d (module_rows, by default the matrix's own)."""
    size = big.shape[0]
    whole = (size if module_rows is None else module_rows) < DENSE_BELOW
    return _split(big, (np.arange(size)[None, :],) if whole else _components(big))


def _dense_product(big, nodes, target=None):
    """Reference ordered product on the dense matrix, one factor at a time."""
    eye = np.eye(big.shape[0])
    out = eye
    for node in nodes:
        out = out @ (big - float(node) * eye)
        if target is not None:
            out = out / float(target - node)
    return out


@pytest.mark.parametrize("lam", BLOCK_SWEEP, ids=str)
def test_blocked_products_match_dense_reference(lam):
    rep = _sweep_rep(lam)
    for kind in (KIND_A, KIND_ABAR):
        cm = build_char_matrix(rep, kind)
        spectrum = char_roots(lam, kind)
        layouts = (cm.blocks, _split(cm.big, _components(cm.big)))
        values = sorted({root.value for root in spectrum})
        reference = _dense_product(cm.big, values)
        for layout in layouts:
            blocked = _blocked_product(layout, values)
            assert max_abs(blocked.dense() - reference) <= 1e-12, (lam, kind)
        present = [root.value for root in spectrum if root.multiplicity > 0]
        # Every projector of build_projector, on the blocks and on the
        # components whatever the module's size, against its own dense
        # Lagrange product.
        projectors = every_projector(cm, spectrum)
        forced = every_projector(CharMatrix(kind, cm.weight, layouts[1]), spectrum)
        assert len(projectors) == len(forced) == len(spectrum)
        for r, (root, projector, split) in enumerate(zip(spectrum, projectors, forced), start=1):
            if root.multiplicity == 0:
                reference = np.zeros(cm.big.shape)
            else:
                reference = _dense_product(
                    cm.big, [v for v in present if v != root.value], root.value)
            assert projector.r == r and projector.root == root
            for matrix in (projector.blocks.dense(), split.blocks.dense()):
                assert max_abs(matrix - reference) <= 1e-12, (lam, kind, r)
            assert rank(projector) == int(round(np.trace(reference))), (lam, kind, r)
            assert rank(projector) == root.multiplicity


def test_blocks_keep_an_entry_joining_two_blocks(replace_generator):
    """A stray entry of a_ij in the triplet store lands at (i, j) of the
    kind-A matrix; it joins the two blocks it connects, and the identity
    fails."""
    rep = Representation((3, 2, 1, 0))
    d = rep.dim
    cm = build_char_matrix(rep, KIND_A)
    spectrum = char_roots(rep.weight, KIND_A)
    assert verify_identity(cm, spectrum)[0].passed
    first, second = cm.blocks.index[-1][0], cm.blocks.index[-2][0]
    (i, row), (j, col) = divmod(int(first[0]), d), divmod(int(second[0]), d)
    matrix = rep.gen(i + 1, j + 1).copy()
    assert matrix[row, col] == 0.0
    matrix[row, col] = 0.5
    replace_generator(rep, i + 1, j + 1, matrix)
    corrupted = build_char_matrix(rep, KIND_A)
    assert len(corrupted.blocks.index[-1][0]) == len(first) + len(second)
    bad = cm.big.copy()
    bad[first[0], second[0]] = 0.5
    assert np.array_equal(corrupted.blocks.dense(), bad)
    assert not verify_identity(corrupted, spectrum)[0].passed


def _scattered(gens, i, j, size):
    rows, cols, values = gens.triplets(i, j)
    out = np.zeros((size, size))
    out[rows, cols] = values
    return out


def _kronecker_general(rep, aux):
    """Reference general kind: -sum_ij aux(a_ij) (x) rep(a_ji), one dense
    Kronecker product at a time, in generator order."""
    size = aux.dim * rep.dim
    big = np.zeros((size, size))
    for i, j in rep.generator_labels():
        big -= np.kron(_scattered(aux, i, j, aux.dim), rep.gen(j, i))
    return big


# (3,2,1,0) gives 256 rows with either 4-dimensional aux, split into blocks.
GENERAL_CASES = [((2, 1, 0), (1, 0, 0)), ((2, 1, 0), (2, 0, 0)), ((2, 1, 0), "dual"),
                 ((3, 1, 0), (2, 0, 0)), ((1, 1, 0, 0), (1, 0, 0, 0)), ((5,), (2,)),
                 ((2, 1, 0, 0), (1, 1, 0, 0)), ((3, 2, 1, 0), (1, 0, 0, 0)),
                 ((3, 2, 1, 0), "dual")]


@pytest.mark.parametrize("lam, mu", GENERAL_CASES, ids=str)
def test_general_kind_is_the_kronecker_sum(lam, mu):
    """The general kind scattered from the triplets is the dense Kronecker
    sum bit for bit, and its blocks are those cut from that sum."""
    rep = _sweep_rep(lam)
    aux = DualVectorRep(rep.N) if mu == "dual" else Representation(mu)
    reference = _kronecker_general(rep, aux)
    blocks = build_char_matrix(rep, KIND_GENERAL, aux=aux).blocks
    assert np.array_equal(blocks.dense(), reference)
    expected = _dense_split(reference)
    assert _same_arrays(blocks.index, expected.index), (lam, mu)
    assert _same_arrays(blocks.stacks, expected.stacks), (lam, mu)


@pytest.mark.parametrize("mu, kind", [("dual", KIND_A), ((1, 0, 0, 0), KIND_ABAR)], ids=str)
def test_general_kind_keeps_a_stray_entry_joining_two_blocks(mu, kind, replace_generator):
    """A stray entry of rep(a_ji) lands in the general kind wherever aux(a_ij)
    has an entry; it joins the two blocks it connects, and the identity of
    the plain kind the general one reproduces fails."""
    rep = Representation((3, 2, 1, 0))
    d = rep.dim
    aux = DualVectorRep(rep.N) if mu == "dual" else Representation(mu)
    cm = build_char_matrix(rep, KIND_GENERAL, aux=aux)
    spectrum = char_roots(rep.weight, kind)
    assert verify_identity(cm, spectrum)[0].passed
    first, second = cm.blocks.index[-1][0], cm.blocks.index[-2][0]
    (a, row), (c, col) = divmod(int(first[0]), d), divmod(int(second[0]), d)
    # The one aux generator with an entry at (a, c) and its value there.
    ((i, j, value),) = [(i, j, v) for i, j in rep.generator_labels()
                        for r, s, v in zip(*aux.triplets(i, j)) if (r, s) == (a, c)]
    matrix = rep.gen(j, i)
    assert matrix[row, col] == 0.0
    matrix[row, col] = -0.5 / value
    replace_generator(rep, j, i, matrix)
    corrupted = build_char_matrix(rep, KIND_GENERAL, aux=aux)
    assert len(corrupted.blocks.index[-1][0]) == len(first) + len(second)
    bad = cm.big.copy()
    bad[first[0], second[0]] = 0.5
    assert np.array_equal(corrupted.blocks.dense(), bad)
    assert not verify_identity(corrupted, spectrum)[0].passed


DENSE_VERIFY_SHAPES = [(6, 6, 5, 0), (6, 1, 0, 0), (5, 5, 3, 0), (5, 2, 0, 0),
                       (4, 3, 3, 3, 0), (4, 1, 1, 1, 0)]


@pytest.mark.parametrize("lam", BLOCK_SWEEP + DENSE_VERIFY_SHAPES, ids=str)
def test_blocks_from_triplets_equal_the_dense_split(lam):
    """The blocks scattered from the triplets are those cut from the dense
    matrix, bit for bit, for both kinds at every level."""
    rep = _sweep_rep(lam)
    for kind in (KIND_A, KIND_ABAR):
        for level in range(1, rep.N + 1):
            rows, cols, values, size = gl_block_entries(rep, kind, level)
            big = gl_block_matrix(rep, kind, level)
            index = _pattern_components(rows, cols, size)
            assert _same_arrays(index, _components(big)), (lam, kind, level)
            blocks = Blocks.from_entries(rows, cols, values, size, rep.N * rep.dim)
            expected = _dense_split(big, rep.N * rep.dim)
            assert blocks.size == expected.size
            assert _same_arrays(blocks.index, expected.index), (lam, kind, level)
            assert _same_arrays(blocks.stacks, expected.stacks), (lam, kind, level)
            if level == rep.N:
                assert _same_arrays(build_char_matrix(rep, kind).blocks.stacks, blocks.stacks)
            if level == rep.N - 1 and kind == KIND_A:
                restricted = _restricted_matrices(rep, level)[0][0]
                assert _same_arrays(restricted.index, blocks.index), lam
                assert _same_arrays(restricted.stacks, blocks.stacks), lam
            for start in range(0, size, rep.dim):
                window = _window(blocks, start, start + rep.dim)
                assert np.array_equal(window, big[start:start + rep.dim, start:start + rep.dim])
                places = blocks.corner_places(start)
                rows, cols = (np.concatenate([p[x] for p in places]) for x in (1, 2))
                values = np.concatenate([stack.ravel()[at]
                                         for stack, (at, _, _) in zip(blocks.stacks, places)])
                corner = np.zeros((size - start, size - start))
                corner[rows, cols] = values
                assert np.array_equal(corner, big[start:, start:]), (lam, kind, level, start)
                assert np.all(np.bincount(rows[rows == cols], minlength=size - start) == 1)


def _per_projector_checks(rep, tol):
    """Reference for the projectors suite, as it ran before it batched
    the projectors: one product per projector (pair) and block size, the
    completeness sum over every projector, absent ones included, and the
    ranks from the projectors' traces.  Returns the suite's records as (residual,
    threshold) or the exact verdict."""
    out = []
    for kind in (KIND_A, KIND_ABAR):
        projectors = every_projector(build_char_matrix(rep, kind), char_roots(rep.weight, kind))
        present = [p.blocks.stacks for p in projectors if p.root.multiplicity > 0]
        scale = max(p.blocks.max_abs() for p in projectors)
        idem = max(max_abs(s @ s - s) for stacks in present for s in stacks)
        ortho = 0.0
        for a, b in itertools.combinations(present, 2):
            ortho = max(ortho, *(max_abs(s @ t) for s, t in zip(a, b)))
        completeness = 0.0
        for stacks in zip(*(p.blocks.stacks for p in projectors)):
            total = sum(stacks)
            diag = np.arange(total.shape[-1])
            total[:, diag, diag] -= 1.0
            completeness = max(completeness, max_abs(total))
        out += [(idem, tol.threshold(scale * scale)), (ortho, tol.threshold(scale * scale)),
                (completeness, tol.threshold(scale)),
                all(rank(p) == p.root.multiplicity for p in projectors)]
    return out


# (4,3,2,1,0), dim 1024, has block sizes split into several batches of at
# most BATCH_ENTRIES entries; (5,5,3,0) has an absent kind-A root.
@pytest.mark.parametrize("lam", BLOCK_SWEEP + DENSE_VERIFY_SHAPES + [(4, 3, 2, 1, 0)], ids=str)
def test_projector_suite_equals_the_per_projector_loop(lam):
    """The batched checks give the loop's residuals and thresholds bit for
    bit, and the same rank verdicts."""
    rep = _sweep_rep(lam)
    tol = Tolerance()
    checks = run_suite("projectors", rep=rep, tol=tol).checks
    assert [c.passed if c.exact else (c.residual, c.threshold) for c in checks] \
        == _per_projector_checks(rep, tol)


@pytest.mark.parametrize("lam", [lam for lam in BLOCK_SWEEP if len(lam) >= 2]
                         + [(3, 2, 1, 0), (2, 2, 2, 2, 2, 0)], ids=str)
def test_corner_residual_equals_the_window_residual(lam):
    """The Cbar corner residual and scale, read in one pass from the
    lockstep projector blocks' entries, equal bit for bit the maxima over
    every projector of its dense d x d corner window against the dense
    diagonal matrix of the closed form, with the floor (0.0, 1.0)."""
    rep = _sweep_rep(lam)
    n, d = rep.N - 1, rep.dim
    cm = build_char_matrix(rep, KIND_ABAR)
    projectors = every_projector(cm, char_roots(rep.weight, KIND_ABAR))
    diagonals = np.array([cbar_diagonal(rep, k) for k in range(1, rep.N + 1)])
    windows = [(0.0, 1.0)]
    for proj, diagonal in zip(projectors, diagonals):
        window = _window(proj.blocks, n * d, rep.N * d)
        expected = np.diag(diagonal)
        windows.append((max_abs(window - expected), max(max_abs(window), max_abs(expected))))
    assert _corner_residual(rep, n * d, diagonals) == tuple(map(max, zip(*windows))), lam


CORNER = "Cbar corner blocks match the closed form"


# (2,1,0) is one whole block; (3,3,2,0) has 180 rows, split into blocks.
@pytest.mark.parametrize("lam", [(2, 1, 0), (3, 3, 2, 0)], ids=str)
def test_corner_check_fails_on_a_changed_lowering_entry(lam, replace_generator):
    """An entry of a_{N,N-1} changed by 1e-3: the Abar matrix and its
    projectors change, but the closed form does not, so the Cbar corner
    check fails."""
    rep = Representation(lam)
    assert run_suite("invariants", rep=rep).passed
    moved = rep.gen(rep.N, rep.N - 1).copy()
    row, col = np.argwhere(moved)[0]
    moved[row, col] *= 1 + 1e-3
    replace_generator(rep, rep.N, rep.N - 1, moved)
    (check,) = [c for c in run_suite("invariants", rep=rep).checks
                if c.description.startswith(CORNER)]
    assert not check.passed, check


def _window(blocks, start, stop):
    """Reference for the corner reads: the diagonal square [start:stop,
    start:stop] of the matrix as a dense array, scattered from the blocks
    without assembling the rest."""
    out = np.zeros((stop - start, stop - start))
    for i, stack in zip(blocks.index, blocks.stacks):
        inside = (start <= i) & (i < stop)
        pick = inside[:, :, None] & inside[:, None, :]
        at = np.broadcast_to(i[:, :, None] - start, stack.shape)
        out[at[pick], np.swapaxes(at, 1, 2)[pick]] = stack[pick]
    return out


def _same_arrays(first, second) -> bool:
    return len(first) == len(second) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(first, second))


def _refuse(*args, **kwargs):
    raise AssertionError("a dense view or a dense power was evaluated")


@pytest.fixture
def blocked_only(monkeypatch):
    """Blocks.dense, CharMatrix.big and the dense block matrix, power and
    partial trace raise wherever they are looked up.  Returns the list of
    the node lists _blocked_product is called with."""
    monkeypatch.setattr(Blocks, "dense", _refuse)
    monkeypatch.setattr(CharMatrix, "big", property(_refuse))
    for module in (charid.kernel, charid.glrep, charid.charident, charid.superglmn,
                   charid.verify):
        for name in ("gl_block_matrix", "matrix_power", "partial_trace_block"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    calls = []
    product = charid.charident._blocked_product

    def counted(blocks, nodes, *args, **kwargs):
        calls.append(list(nodes))
        return product(blocks, nodes, *args, **kwargs)

    monkeypatch.setattr(charid.charident, "_blocked_product", counted)
    return calls


@pytest.mark.parametrize("suite", ["identity", "projectors", "invariants"])
def test_suites_assemble_no_dense_characteristic_matrix(suite, monkeypatch, blocked_only):
    """On a module of DENSE_BELOW or more rows N*d the suites read the
    characteristic matrices, their projectors and the restricted
    projectors as blocks only: no dense view is ever assembled, and a
    projector has none."""
    made = []

    def keep(fn):
        def wrapped(*args, **kwargs):
            made.append(fn(*args, **kwargs))
            return made[-1]
        return wrapped

    monkeypatch.setattr(charid.verify, "build_char_matrix", keep(build_char_matrix))
    monkeypatch.setattr(charid.verify, "build_projector", keep(build_projector))
    lagrange = []
    monkeypatch.setattr(charid.verify, "_lagrange_stacks",
                        lambda cm, spectrum: lagrange.append(cm) or _lagrange_stacks(cm, spectrum))
    rep = Representation((3, 2, 1, 0))
    assert rep.N * rep.dim >= DENSE_BELOW
    assert run_suite(suite, rep=rep).passed
    assert made
    assert bool(lagrange) == (suite != "identity")
    for value in made:
        assert "big" not in value.__dict__ and not hasattr(value, "matrix"), value


@pytest.mark.parametrize("lam", [(Fraction(5, 2),), (3, 1), (60, 0)], ids=str)
def test_identity_and_closed_forms_run_on_blocks_only(lam, blocked_only):
    """The identity and the rank-1 and rank-2 closed forms, on a whole
    block and on (60,0), whose 122 rows are split into blocks."""
    rep = Representation(lam)
    report = run_suite("identity", rep=rep)
    assert report.passed and len(report.checks) == 3
    assert "closed form" in report.checks[1].description
    assert blocked_only


def test_super_suite_runs_on_blocks_only(blocked_only):
    assert run_suite("super", super_weight=super_vector_weight(2, 2)).passed
    assert len(blocked_only) == 2  # the full root product of each kind


@pytest.mark.parametrize("lam", [(2, 1, 0), (3, 2, 1, 0, 0)], ids=str)
def test_casimir_runs_on_blocks_only(lam, blocked_only):
    """casimir_sigma takes A^m as the ordered product of m factors A - 0."""
    rep = _sweep_rep(lam)
    values = [casimir_sigma(rep, order) for order in range(1, 5)]
    assert values[:2] == [casimir_eigenvalue_formula(lam, k) for k in (1, 2)]
    assert blocked_only == [[0] * order for order in range(1, 5)]


@pytest.mark.parametrize("aux", ["vector", "dual"])
def test_general_spectrum_runs_on_blocks_only(aux, blocked_only):
    lam = (3, 2, 1, 0)  # 256 rows with either aux, split into blocks
    rep = _sweep_rep(lam)
    if aux == "dual":
        mu, aux_rep = dual_vector_weight(4), DualVectorRep(4)
    else:
        mu, aux_rep = vector_weight(4), Representation(vector_weight(4))
    cm = build_char_matrix(rep, KIND_GENERAL, aux=aux_rep)
    assert not cm.blocks.whole
    roots = char_roots(lam, KIND_GENERAL, mu, cm=cm)
    assert sum(root.multiplicity for root in roots) == cm.blocks.size
    if aux == "vector":  # char_roots builds the matrix itself
        assert char_roots(lam, KIND_GENERAL, mu) == roots


# ---------------------------------------------------------------------------
# The dense evaluations the blocked ones replaced, kept as references.

def _dense_identity(big, values, tol):
    """An identity's residual and threshold as the dense path took them: the
    ordered product of the whole factors big - value, left to right, and
    the threshold at the largest entry of any factor."""
    eye = np.eye(len(big))
    scale = max((max_abs(big - float(value) * eye) for value in values), default=0.0)
    return max_abs(_dense_product(big, values)), tol.threshold(scale)


def _dense_closed_form(cm, tol):
    """The rank-1 or rank-2 closed form's residual and threshold on the
    whole kind-A matrix."""
    big, eye = cm.big, np.eye(len(cm.big))
    sigma1 = casimir_eigenvalue_formula(cm.weight, 1)
    if len(cm.weight) == 1:
        return max_abs(big - float(sigma1) * eye), tol.threshold(max_abs(big))
    sigma2 = casimir_eigenvalue_formula(cm.weight, 2)
    const = (sigma1 * sigma1 + sigma1 - sigma2) / 2
    square = big @ big
    return (max_abs(square - float(sigma1 + 1) * big + float(const) * eye),
            tol.threshold(max(max_abs(square), max_abs(big))))


def _dense_casimir(rep, order, tol):
    """casimir_sigma on the whole generator block matrix: its order-th
    power, the sum of the power's diagonal blocks, the Schur check and the
    rounding to a rational."""
    powered = matrix_power(gl_block_matrix(rep, KIND_A), order)
    traced = partial_trace_block(powered, rep.N, rep.dim)
    scalar = float(np.trace(traced)) / rep.dim
    assert is_zero(tol, traced - scalar * np.eye(rep.dim), powered)
    return rationalize(scalar, tol)


# 42 gl(1) and gl(2) weights; (60,0), (80,3) and (121/2,1/2) have 122, 156
# and 122 rows and are split into blocks.
CLOSED_FORM_WEIGHTS = (
    [(k,) for k in range(-3, 7)] + [(Fraction(k, 2),) for k in (7, 5, -1)]
    + [(a, b) for a in range(6) for b in range(a + 1)]
    + [(Fraction(5, 2), Fraction(1, 2)), (Fraction(7, 2), Fraction(-1, 2)), (-1, -3),
       (Fraction(9, 2), Fraction(9, 2)), (Fraction(3, 2), Fraction(-5, 2)),
       (60, 0), (80, 3), (Fraction(121, 2), Fraction(1, 2))])


@pytest.mark.parametrize("lam", CLOSED_FORM_WEIGHTS, ids=str)
def test_closed_forms_on_blocks_are_the_dense_ones_bit_for_bit(lam):
    cm = build_char_matrix(Representation(lam), KIND_A)
    check = verify_identity(cm, char_roots(lam, KIND_A), TOL)[1]
    assert (check.residual, check.threshold) == _dense_closed_form(cm, TOL), lam
    assert check.passed


# Every dominant gl(1)-gl(4) weight with labels 0..3 ending in 0, and three
# whose matrices split into many blocks: 152 Casimir values over orders 1-4.
CASIMIR_WEIGHTS = ([lam for lam in BLOCK_SWEEP if len(lam) < 5 and lam[-1] == 0]
                   + [(3, 2, 1, 0, 0), (4, 2, 1, 0), (6, 6, 5, 0)])


@pytest.mark.parametrize("lam", CASIMIR_WEIGHTS, ids=str)
def test_casimir_on_blocks_equals_the_dense_value(lam):
    rep = _sweep_rep(lam)
    for order in range(1, 5):
        assert casimir_sigma(rep, order) == _dense_casimir(rep, order, TOL), (lam, order)


@pytest.mark.parametrize("order", [1, 3])
def test_casimir_rejects_non_finite_entries(order, replace_generator):
    rep = Representation((2, 1, 0))
    matrix = rep.gen(1, 2)
    matrix[tuple(np.argwhere(matrix)[0])] = np.inf
    replace_generator(rep, 1, 2, matrix)
    with pytest.raises(DomainError):
        casimir_sigma(rep, order)


@pytest.mark.parametrize("lam, mu", GENERAL_CASES, ids=str)
def test_general_spectrum_on_blocks_matches_the_whole_matrix(lam, mu):
    """char_roots on the split blocks and on one whole block (a single
    eigensolve of the dense matrix) find the same roots."""
    rep = _sweep_rep(lam)
    aux = DualVectorRep(rep.N) if mu == "dual" else Representation(mu)
    mu = dual_vector_weight(rep.N) if mu == "dual" else mu
    cm = build_char_matrix(rep, KIND_GENERAL, aux=aux)
    whole = CharMatrix(KIND_GENERAL, cm.weight, _split(cm.big, (np.arange(cm.blocks.size)[None, :],)))
    assert char_roots(lam, KIND_GENERAL, mu, cm=cm) == char_roots(lam, KIND_GENERAL, mu, cm=whole)


@pytest.mark.parametrize("lam", BLOCK_SWEEP, ids=str)
def test_blocks_follow_the_weight_grading(lam):
    """A state (i, v) is graded by wt(v) - e_i for kind A and by wt(v) + e_i
    for kind Abar; each block lies within one grade."""
    rep = _sweep_rep(lam)
    d = rep.dim
    weights = np.array([[float(x) for x in pattern_weight(p)] for p in rep.patterns])
    unit = np.eye(rep.N)
    for kind, sign in ((KIND_A, -1), (KIND_ABAR, 1)):
        index = _components(build_char_matrix(rep, kind).big)
        grade = np.concatenate([weights + sign * unit[i] for i in range(rep.N)])
        for table in index:
            assert np.all(grade[table] == grade[table[:, :1]]), (lam, kind)
        states = np.sort(np.concatenate([table.ravel() for table in index]))
        assert np.array_equal(states, np.arange(rep.N * d)), (lam, kind)


@pytest.mark.parametrize("shift", [Fraction(0), Fraction(1, 2), Fraction(-22, 7)], ids=str)
def test_c_sums_match_the_scalar_form(shift):
    """The integer-table sums of C_k over k, one per branch, against the
    exact Fraction sums of invariant_C_eigenvalue on the acceptance sweep."""
    for lam in BLOCK_SWEEP:
        if len(lam) < 2:
            continue
        rep = Representation(tuple(x + shift for x in lam))
        branches, sums, common = invariant_C_sums(rep)
        mus = [tuple(row) for row in table_labels(rep.weight, branches, Fraction).tolist()]
        assert sorted(mus) == sorted(branch(rep.weight)), lam
        for mu, total in zip(mus, sums):
            assert Fraction(total, common) == sum(
                invariant_C_eigenvalue(rep.weight, mu, k) for k in range(1, rep.N + 1)), (lam, mu)
            assert total == common, (lam, mu)


def _loop_support_residual(rep, r, components):
    """Reference for the support residual: every entry of every component,
    one at a time, against the row n of its column shifted by e_r."""
    n = rep.N - 1
    rows_n = [tuple(pat.row(n)) for pat in rep.patterns]
    support = 0.0
    for comp in components:
        for row in range(rep.dim):
            for col in range(rep.dim):
                entry = float(abs(comp[row, col]))
                if entry == 0.0:
                    continue
                expected = list(rows_n[col])
                expected[r - 1] += 1
                if rows_n[row] != tuple(expected):
                    support = max(support, entry)
    return support


@pytest.mark.parametrize("lam", [lam for lam in BLOCK_SWEEP if 2 <= len(lam) <= 4],
                         ids=str)
def test_support_residual_matches_loop_reference(lam):
    rep = _sweep_rep(lam)
    for r in range(1, rep.N):
        sc = shift_components(rep, r)
        assert sc.support_residual == _loop_support_residual(rep, r, sc.components)


def test_support_residual_sees_an_injected_off_shift_entry(monkeypatch):
    """psi[2;1]_1 given the entry -0.25 at (1, 0) -> (1, 1) of row 2, off
    its shift: the suite's support record for r = 1 reads 0.25, as does the
    loop over the dense components."""
    rep = _sweep_rep((2, 1, 0))
    support = "shift component supports only the +D_1 weight shift"
    (check,) = [c for c in run_suite("invariants", rep=rep).checks
                if c.description.startswith(support)]
    assert check.residual < 1e-12
    rows_n = [pat.row(2) for pat in rep.patterns]
    # a_{1,3} may move row 2 from (1, 0) to (2, 0) only; (1, 0) -> (1, 1) is off the shift
    row = rows_n.index((1, 1))
    col = rows_n.index((1, 0))
    key = row * rep.dim + col  # psi[2;1]_1 at (row, col)
    sums = ShiftBatch.sums

    def injected(batch, rs):
        comps, other = sums(batch, rs)
        (at,) = np.flatnonzero(batch.keys == key)
        comps[0 - rs.start, at] = -0.25
        return comps, other

    monkeypatch.setattr(ShiftBatch, "sums", injected)
    (check,) = [c for c in run_suite("invariants", rep=rep).checks
                if c.description.startswith(support)]
    assert check.residual == 0.25 and not check.passed
    comps = list(shift_components(rep, 1).components)
    comps[0] = comps[0].copy()
    comps[0][row, col] = -0.25
    assert _loop_support_residual(rep, 1, comps) == 0.25


def _reference_shift_checks(rep, tol):
    """The shift-component and squared-norm checks of the invariants suite
    as (description, residual, scale), computed the way the suite first
    did: dense restricted projectors, every psi[n;r]_j as a sum of d x d
    products psi_i Pbar_ij, and the identities block by block over every
    (i, j)."""
    n, d = rep.N - 1, rep.dim
    lam = format_weight(rep.weight)
    psi = [rep.gen(j, rep.N) for j in range(1, n + 1)]
    checks = []
    comps_by_r = []
    norm_resid, norm_scale = 0.0, 1.0
    for r in range(1, n + 1):
        p = restricted_projector(rep, n, r, KIND_A)
        pbar = restricted_projector(rep, n, r, KIND_ABAR)
        comps, cross = [], []
        for j in range(1, n + 1):
            comp = np.zeros((d, d))
            alt = np.zeros((d, d))
            for i in range(1, n + 1):
                comp += psi[i - 1] @ _block(pbar, i, j, d)
                alt += _block(p, j, i, d) @ psi[i - 1]
            comps.append(comp)
            cross.append(alt)
        comps_by_r.append(comps)
        checks.append((f"shift component contractions agree, r={r} on {lam}",
                       max(max_abs(c - a) for c, a in zip(comps, cross)),
                       max(max_abs(c) for c in comps)))
        checks.append((f"shift component supports only the +D_{r} weight shift on {lam}",
                       support_residual(row_shift_ids(rep), r, comps), 1.0))
        mbar_num, mbar_den = norm_invariant_diagonals(rep, r, bar=True)
        m_num, m_den = norm_invariant_diagonals(rep, r, bar=False)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for lhs, rhs in (
                        (mbar_den[:, None] * (comps[i - 1] @ comps[j - 1].T),
                         mbar_num[:, None] * _block(p, i, j, d)),
                        (m_den[:, None] * (comps[i - 1].T @ comps[j - 1]),
                         m_num[:, None] * _block(pbar, i, j, d))):
                    norm_resid = max(norm_resid, max_abs(lhs - rhs))
                    norm_scale = max(norm_scale, max_abs(lhs), max_abs(rhs))
    completeness = max(max_abs(sum(comps[j] for comps in comps_by_r) - psi[j])
                       for j in range(n))
    checks.append((f"shift components sum back to the raising column on {lam}",
                   completeness, max(max_abs(m) for m in psi)))
    checks.append((f"squared-norm identities psi psi+ = Mbar P and psi+ psi = M Pbar "
                   f"(cleared denominators) on {lam}", norm_resid, norm_scale))
    return checks


# Rounding allowance in units of eps: the suite sums each component over
# the terms of its join, or one product per block, and each Gram entry over
# one component's columns, where the reference summed d-term products one
# block at a time, so entries may differ in their last bits.  Residuals are
# compared against max(scale, 1): a contraction's scale is its components'
# largest entry, itself rounding noise where the r-th shift is forbidden,
# while the raising column and the projectors have entries of order one.
# On the sweep and on every REFERENCE_WEIGHTS weight, integer and shifted by
# 1/2, the largest difference is 1.6 ulps, and 1.7 ulps of a threshold.
REFERENCE_ULPS = 4


@pytest.mark.parametrize("lam", [lam for lam in BLOCK_SWEEP if len(lam) >= 2]
                         + [(4, 2, 1, 0)], ids=str)
def test_invariants_suite_matches_the_per_block_reference(lam):
    _assert_matches_the_per_block_reference(_sweep_rep(lam))


# Every dominant gl(2)-gl(5) weight of dimension at most 200 with labels up
# to 9, 6, 4 and 3: 275 weights, the largest 175 (gl(4)) and 189 (gl(5)).
REFERENCE_WEIGHTS = [
    lam for n, top in ((2, 9), (3, 6), (4, 4), (5, 3))
    for lam in itertools.product(range(top, -1, -1), repeat=n)
    if is_dominant(lam) and dimension(lam) <= 200]


@st.composite
def reference_weights(draw):
    """A weight of REFERENCE_WEIGHTS shifted by an integer, and by 1/2 or
    not."""
    lam = draw(st.sampled_from(REFERENCE_WEIGHTS))
    shift = draw(st.integers(-5, 5)) + draw(st.sampled_from((Fraction(0), Fraction(1, 2))))
    return tuple(x + shift for x in lam)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(reference_weights())
def test_invariants_suite_matches_the_per_block_reference_property(lam):
    """Restrictions of a module of DENSE_BELOW or more rows N*d are split
    into blocks and psi is joined with them as triplets; the others are
    one block."""
    _assert_matches_the_per_block_reference(Representation(lam))


def _with_a_moved_restricted_entry(lam, replace_generator):
    """lam's module with an entry of a_nn moved to a row with another row
    n: its restricted matrices, and so its restricted projectors, stop
    being symmetric."""
    rep = Representation(lam)
    n = rep.N - 1
    rows_n = rep.table[:, row_starts(rep.N)[n]:row_starts(rep.N)[n] + n]
    moved = rep.gen(n, n).copy()
    row, col = np.argwhere(moved)[0]
    other = next(k for k in range(rep.dim) if not np.array_equal(rows_n[k], rows_n[row]))
    moved[other, col], moved[row, col] = moved[row, col], 0.0
    replace_generator(rep, n, n, moved)
    return rep


# (2,1,0,0) restricts to one block of 60 rows; (3,3,2,0) to 135, split.
@pytest.mark.parametrize("lam", [(2, 1, 0, 0), (3, 3, 2, 0)], ids=str)
def test_invariants_suite_matches_the_per_block_reference_on_a_tampered_module(
        lam, replace_generator):
    """The records follow the reference's on a module whose restricted
    projectors are not symmetric, failed ones included."""
    _assert_matches_the_per_block_reference(_with_a_moved_restricted_entry(lam, replace_generator))


@pytest.mark.parametrize("lam", [(2, 1, 0, 0), (3, 3, 2, 0)], ids=str)
def test_shift_routes_equal_the_dense_products_on_a_tampered_module(lam, replace_generator):
    """Both routes of ShiftBatch.sums, at every key, against the dense
    products Pbar^T [psi_1^T; ...] and P [psi_1; ...] on a module whose
    restricted projectors are not symmetric, so that each route must read
    its own side of the blocks; every entry no key reaches is zero."""
    rep = _with_a_moved_restricted_entry(lam, replace_generator)
    batch = ShiftBatch(rep)
    n, d = batch.n, batch.d
    psi = np.stack([rep.gen(j, rep.N) for j in range(1, n + 1)])
    for r in range(1, n + 1):
        (comps,), (other,) = batch.sums(slice(r - 1, r))
        pbar = restricted_projector(rep, n, r, KIND_ABAR)
        p = restricted_projector(rep, n, r, KIND_A)
        expected = ((pbar.T @ psi.swapaxes(1, 2).reshape(n * d, d))
                    .reshape(n, d, d).swapaxes(1, 2).ravel(),
                    (p @ psi.reshape(n * d, d)).ravel())
        for got, want in zip((comps, other), expected):
            full = np.zeros(n * d * d)
            full[batch.keys] = got
            assert max_abs(full - want) <= 1e-12 * max(1.0, max_abs(want)), (lam, r)


@pytest.mark.parametrize("lam, shape, whole", [
    ((120, 0), (1, 121, 1, 1), False), ((2, 1, 0), (2, 1, 16, 16), True)], ids=str)
def test_whole_counts_blocks_not_lockstep_projectors(lam, shape, whole):
    """Blocks.whole reads the layout: the (120,0) restriction is one stack
    of 121 blocks of size 1 (one projector), the (2,1,0) one (n = 2) one
    16-row block (two projectors).  ShiftBatch takes its whole-block path
    exactly where whole holds, and a projector cut from the stacks reads
    the same."""
    batch = ShiftBatch(Representation(lam))
    for blocks in (batch.p, batch.pbar):
        assert [stack.shape for stack in blocks.stacks] == [shape]
        assert blocks.whole == whole
        assert blocks.like(stack[0] for stack in blocks.stacks).whole == whole
    assert batch.dense == whole


def _assert_matches_the_per_block_reference(rep):
    """The suite's shift and squared-norm records against
    _reference_shift_checks: the same descriptions, pass or fail, and
    residuals and thresholds within REFERENCE_ULPS."""
    report = run_suite("invariants", rep=rep, tol=TOL)
    reference = _reference_shift_checks(rep, TOL)
    # The shift checks sit between the corner check and the exact one.
    assert len(report.checks) == len(reference) + 3
    checks = report.checks[2:-1]
    assert [c.description for c in checks] == [desc for desc, _, _ in reference]
    eps = np.finfo(float).eps
    for check, (desc, residual, scale) in zip(checks, reference):
        assert check.passed == (residual <= TOL.threshold(scale)), (rep.weight, desc)
        assert abs(check.residual - residual) <= REFERENCE_ULPS * eps * max(scale, 1.0), (
            rep.weight, desc, check.residual, residual)
        assert check.threshold == pytest.approx(
            TOL.threshold(scale), rel=REFERENCE_ULPS * eps, abs=0.0), desc
