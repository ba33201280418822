"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its stated tolerance (run with ``pytest -s`` to see the lines)."""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import charid.verify
from charid.kernel import Tolerance, commutator, join, max_abs, offsets
from charid.gtbasis import branch, dimension, format_weight, weight
from charid.glrep import (
    Representation,
    casimir_eigenvalue_formula,
    nonelementary_coefficient,
)
from charid.charident import (
    KIND_A,
    KIND_ABAR,
    KIND_GENERAL,
    DualVectorRep,
    Root,
    build_char_matrix,
    build_projector,
    casimir_sigma,
    cbar_diagonal,
    char_roots,
    elementary_square_from_invariants,
    general_root_candidates,
    invariant_C_eigenvalue,
    norm_invariant_diagonals,
    restricted_projector,
    shift_components,
    vector_weight,
    verify_identity,
)
from charid.superglmn import (
    ATYPICAL,
    TYPICAL,
    classify_type1_star,
    SuperWeight,
    super_char_matrix,
    super_char_roots,
    super_vector_weight,
    verify_super_identity,
    vector_rep_relations_hold,
)
from charid.cli import main as cli_main
from charid.verify import _transpose_closed, run_suite
from test_superglmn import ungraded_identity


def dominant_sweep(n, top=3):
    """Every dominant integer weight with top <= 3 >= labels >= 0."""
    out = []
    for lam in itertools.product(*[range(top, -1, -1)] * n):
        if all(lam[i] >= lam[i + 1] for i in range(n - 1)):
            out.append(tuple(lam))
    return out


SWEEP = {n: dominant_sweep(n) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def reps():
    cache = {}
    for n, weights in SWEEP.items():
        for lam in weights:
            if dimension(weight(lam)) <= 500:
                cache[lam] = Representation(lam)
    return cache


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_criterion_1_defining_relations():
    with criterion(1, "defining relations residual < 1e-9 for n <= 4, "
                      "lam1 <= 3, dim <= 500, under 60 s"):
        start = time.monotonic()
        checked = 0
        for n, weights in SWEEP.items():
            for lam in weights:
                if dimension(weight(lam)) > 500:
                    continue
                rep = Representation(lam)
                idx = range(1, rep.N + 1)
                for i, j, k, l in itertools.product(idx, idx, idx, idx):
                    lhs = commutator(rep.gen(i, j), rep.gen(k, l))
                    rhs = np.zeros_like(lhs)
                    if k == j:
                        rhs = rhs + rep.gen(i, l)
                    if i == l:
                        rhs = rhs - rep.gen(k, j)
                    assert max_abs(lhs - rhs) < 1e-9, (lam, i, j, k, l)
                checked += 1
        elapsed = time.monotonic() - start
        assert checked == sum(len(v) for v in SWEEP.values())
        assert elapsed < 60.0, f"relations sweep took {elapsed:.1f} s"


def test_criterion_2_low_rank_identities_and_dependencies(reps):
    with criterion(2, "gl(1)/gl(2) closed identities < 1e-10 on >= 10 irreps "
                      "each; Casimir dependencies exact"):
        gl1 = [(k,) for k in range(-3, 7)] + [(Fraction(7, 2),)]
        assert len(gl1) >= 10
        for lam in gl1:
            rep = Representation(lam)
            sigma1 = casimir_eigenvalue_formula(rep.weight, 1)
            big = build_char_matrix(rep, KIND_A).big
            assert max_abs(big - float(sigma1) * np.eye(rep.dim)) < 1e-10
            s1 = casimir_sigma(rep, 1)
            assert casimir_sigma(rep, 2) == s1 ** 2
        gl2 = [lam for lam in SWEEP[2]] + [(Fraction(5, 2), Fraction(1, 2))]
        assert len(gl2) >= 10
        for lam in gl2:
            rep = reps.get(lam) or Representation(lam)
            sigma1 = casimir_eigenvalue_formula(rep.weight, 1)
            sigma2 = casimir_eigenvalue_formula(rep.weight, 2)
            big = build_char_matrix(rep, KIND_A).big
            const = (sigma1 * sigma1 + sigma1 - sigma2) / 2
            residual = max_abs(big @ big - float(sigma1 + 1) * big
                               + float(const) * np.eye(2 * rep.dim))
            assert residual < 1e-10, lam
            s1, s2, s3 = (casimir_sigma(rep, k) for k in (1, 2, 3))
            assert s3 == Fraction(3, 2) * s1 * s2 - Fraction(1, 2) * s1 ** 3 \
                + s2 - Fraction(1, 2) * s1 ** 2, lam


def test_criterion_3_characteristic_identities(reps):
    with criterion(3, "characteristic identities for A and Abar < 1e-8 "
                      "across the sweep"):
        for lam, rep in reps.items():
            for kind in (KIND_A, KIND_ABAR):
                cm = build_char_matrix(rep, kind)
                spectrum = char_roots(rep.weight, kind)
                report = verify_identity(cm, spectrum)[0]
                assert report.residual < 1e-8, (lam, kind, report.residual)


def test_criterion_4_projector_suite(reps):
    with criterion(4, "projector idempotency/orthogonality/completeness "
                      "< 1e-8 and exact ranks across the sweep"):
        for lam, rep in reps.items():
            d = rep.N * rep.dim
            for kind in (KIND_A, KIND_ABAR):
                cm = build_char_matrix(rep, kind)
                spectrum = char_roots(rep.weight, kind)
                projectors = [build_projector(cm, spectrum, r)
                              for r in range(1, rep.N + 1)]
                matrices = [proj.blocks.dense() for proj in projectors]
                for matrix in matrices:
                    assert max_abs(matrix @ matrix - matrix) < 1e-8, (lam, kind)
                for a, b in itertools.combinations(matrices, 2):
                    assert max_abs(a @ b) < 1e-8, (lam, kind)
                total = sum(matrices)
                assert max_abs(total - np.eye(d)) < 1e-8, (lam, kind)
                for proj in projectors:
                    expected = proj.root.multiplicity
                    assert proj.rank == expected, (lam, kind, proj.r)


def test_criterion_5_projector_corner_invariants(reps):
    with criterion(5, "sum_k C_k = 1 exactly and Cbar corner blocks match "
                      "the closed form < 1e-8 for gl(3) and gl(4) sweeps"):
        for n in (3, 4):
            for lam in SWEEP[n]:
                lam_w = weight(lam)
                for mu in branch(lam_w):
                    total = sum(invariant_C_eigenvalue(lam_w, mu, k, "C")
                                for k in range(1, n + 1))
                    assert total == 1, (lam, mu)
                rep = reps[lam]
                cm = build_char_matrix(rep, KIND_ABAR)
                spectrum = char_roots(rep.weight, KIND_ABAR)
                for k in range(1, n + 1):
                    proj = build_projector(cm, spectrum, k)
                    block = proj.blocks.dense()[(n - 1) * rep.dim:, (n - 1) * rep.dim:]
                    expected = np.diag(cbar_diagonal(rep, k))
                    assert max_abs(block - expected) < 1e-8, (lam, k)


def test_criterion_6_norm_identities_and_exact_squares(reps):
    with criterion(6, "psi psi+ = Mbar P and psi+ psi = M Pbar < 1e-8; "
                      "squared ladder coefficients equal M*Cbar exactly on "
                      "every basis state"):
        for lam, rep in reps.items():
            if rep.N < 2:
                continue
            n, d = rep.N - 1, rep.dim
            surds = rep.raising_surds[n]
            for col, pat in enumerate(rep.patterns):
                for r in range(1, n + 1):
                    expected = elementary_square_from_invariants(pat, r)
                    target = pat.shifted(n, r)
                    if target is None:
                        assert expected == 0, (lam, col, r)
                    else:
                        actual = surds[(rep.ordinal[target], col)].squared
                        assert expected == actual, (lam, col, r)
            for r in range(1, n + 1):
                sc = shift_components(rep, r)
                p_mat = restricted_projector(rep, n, r, KIND_A)
                pbar_mat = restricted_projector(rep, n, r, KIND_ABAR)
                mbar_num, mbar_den = norm_invariant_diagonals(rep, r, bar=True)
                m_num, m_den = norm_invariant_diagonals(rep, r, bar=False)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        lhs = mbar_den[:, None] * (sc.components[i - 1]
                                                   @ sc.components[j - 1].T)
                        rhs = mbar_num[:, None] * p_mat[
                            (i - 1) * d:i * d, (j - 1) * d:j * d]
                        assert max_abs(lhs - rhs) < 1e-8, (lam, r, i, j, "Mbar")
                        lhs = m_den[:, None] * (sc.components[i - 1].T
                                                @ sc.components[j - 1])
                        rhs = m_num[:, None] * pbar_mat[
                            (i - 1) * d:i * d, (j - 1) * d:j * d]
                        assert max_abs(lhs - rhs) < 1e-8, (lam, r, i, j, "M")


def test_criterion_7_product_form_cross_check(reps):
    with criterion(7, "|product-form coefficients| match |commutator-built "
                      "entries| < 1e-9 for all a_{l,j} on gl(3)/gl(4)"):
        for n in (3, 4):
            for lam in SWEEP[n]:
                rep = reps[lam]
                for l in range(1, rep.N - 1):
                    for j in range(l + 2, rep.N + 1):
                        actual = np.abs(rep.gen(l, j))
                        expected = np.zeros_like(actual)
                        top = j - 1
                        levels = list(range(top, l - 1, -1))
                        ranges = [range(1, level + 1) for level in levels]
                        for col, pat in enumerate(rep.patterns):
                            for shifts in itertools.product(*ranges):
                                moves = [(level, idx, 1) for level, idx
                                         in zip(levels, shifts)]
                                target = pat.shifted_many(moves)
                                if target is None:
                                    continue
                                coeff = nonelementary_coefficient(
                                    pat, l, top, shifts)
                                expected[rep.ordinal[target], col] = float(coeff)
                        assert max_abs(actual - expected) < 1e-9, (lam, l, j)


def test_criterion_8_general_characteristic_matrix(reps):
    with criterion(8, "coproduct matrix reproduces Abar/A < 1e-10 for "
                      "vector/dual auxiliaries; observed spectrum for "
                      "mu=(2,0,0) on gl(3) lies in the candidate set < 1e-8"):
        for lam in [(2, 0), (2, 1, 0), (1, 1, 0, 0)]:
            rep = reps[lam]
            n = rep.N
            general_vec = build_char_matrix(
                rep, KIND_GENERAL, aux=Representation(vector_weight(n)))
            assert max_abs(general_vec.big
                           - build_char_matrix(rep, KIND_ABAR).big) < 1e-10
            general_dual = build_char_matrix(rep, KIND_GENERAL,
                                             aux=DualVectorRep(n))
            assert max_abs(general_dual.big
                           - build_char_matrix(rep, KIND_A).big) < 1e-10
        mu = weight((2, 0, 0))
        for lam in [(2, 1, 0), (1, 0, 0), (3, 1, 0)]:
            rep = reps[lam]
            cm = build_char_matrix(rep, KIND_GENERAL, aux=Representation(mu))
            eigenvalues = np.linalg.eigvalsh(cm.big)
            candidates = [float(v) for v in general_root_candidates(rep.weight, mu)]
            for eig in eigenvalues:
                assert min(abs(eig - c) for c in candidates) < 1e-8, (lam, eig)
            spectrum = char_roots(rep.weight, KIND_GENERAL, mu=mu, cm=cm)
            assert sum(r.multiplicity for r in spectrum) == cm.big.shape[0]


def test_criterion_9_super_suite():
    with criterion(9, "graded relations exact for m+n <= 5; super identities "
                      "< 1e-10; worked classifications reproduced"):
        grid = [(m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5]
        for m, n in grid:
            assert vector_rep_relations_hold(m, n), (m, n)
            for kind in (KIND_A, KIND_ABAR):
                report = verify_super_identity(m, n, kind, Tolerance())
                assert report.residual < 1e-10, (m, n, kind)
        typical = classify_type1_star(SuperWeight((2, 1), (3,)))
        assert typical.verdict == TYPICAL and typical.witness is None
        atypical = classify_type1_star(SuperWeight((1, 0), (0,)))
        assert atypical.verdict == ATYPICAL and atypical.witness == 1
        trivial = classify_type1_star(SuperWeight((0, 0), (0,)))
        assert trivial.verdict == ATYPICAL and trivial.witness == 1


def test_criterion_10_negative_controls(reps, capsys):
    with criterion(10, "perturbed roots, signs and parities all break their "
                       "suites; CLI exits 1 on failure"):
        rep = reps[(2, 1, 0)]
        cm = build_char_matrix(rep, KIND_A)
        spectrum = list(char_roots(rep.weight, KIND_A))
        spectrum[1] = Root(spectrum[1].value + Fraction(1, 100),
                           spectrum[1].constituent, spectrum[1].multiplicity)
        assert not verify_identity(cm, spectrum)[0].passed

        bad = build_char_matrix(rep, KIND_A).big.copy()
        bad[0, :] = -bad[0, :]  # sign flip of one generator row
        product = np.eye(bad.shape[0])
        for root in sorted({r.value for r in char_roots(rep.weight, KIND_A)}):
            product = product @ (bad - float(root) * np.eye(bad.shape[0]))
        assert max_abs(product) > 1e-3

        residual, threshold = ungraded_identity(2, 1, KIND_A)  # parity dropped
        assert residual > threshold and residual > 1e-3

        lam = super_vector_weight(1, 2)
        roots = super_char_roots(lam, KIND_A)
        big = super_char_matrix(1, 2, KIND_A)
        perturbed = np.eye(big.shape[0])
        for root in roots:
            perturbed = perturbed @ (
                big - (float(root.value) + 1e-2) * np.eye(big.shape[0]))
        assert max_abs(perturbed) > 1e-5

        code = cli_main(["verify", "--algebra", "gl3", "--weight", "2,1,0",
                         "--suite", "identity", "--tolerance", "1e-30"])
        capsys.readouterr()
        assert code == 1


# The six dense-verify shapes of the benchmark (gl(4) dims 216 and 224,
# gl(5) dim 160): each generator there is over 99% zeros.
DENSE_VERIFY_SHAPES = [(6, 6, 5, 0), (6, 1, 0, 0), (5, 5, 3, 0), (5, 2, 0, 0),
                       (4, 3, 3, 3, 0), (4, 1, 1, 1, 0)]


def dense_relations(rep, tol):
    """Reference for the relations suite: every generator pair as a dense
    commutator, returning (residual, threshold, pairs)."""
    worst = scale = 0.0
    pairs = 0
    idx = range(1, rep.N + 1)
    for i, j, k, l in itertools.product(idx, idx, idx, idx):
        lhs = commutator(rep.gen(i, j), rep.gen(k, l))
        rhs = np.zeros_like(lhs)
        if k == j:
            rhs = rhs + rep.gen(i, l)
        if i == l:
            rhs = rhs - rep.gen(k, j)
        worst = max(worst, max_abs(lhs - rhs))
        scale = max(scale, max_abs(lhs), max_abs(rhs))
        pairs += 1
    return worst, tol.threshold(scale), pairs


def diagonal_pair_maxima(rep):
    """The (residual, lhs, rhs) maxima of every pair (a_kk, a_ij) in exact
    form, dense: lhs = (D_k[row] - D_k[col]) a_ij[row, col], with D_k the
    diagonal of a_kk, and rhs = (d_ik - d_jk) a_ij."""
    worst = lhs_max = rhs_max = 0.0
    for k in range(1, rep.N + 1):
        diagonal = np.diag(rep.gen(k, k))
        differences = diagonal[:, None] - diagonal[None, :]
        for i, j in rep.generator_labels():
            lhs = differences * rep.gen(i, j)
            rhs = ((i == k) - (j == k)) * rep.gen(i, j)
            worst = max(worst, max_abs(lhs - rhs))
            lhs_max, rhs_max = max(lhs_max, max_abs(lhs)), max(rhs_max, max_abs(rhs))
    return worst, lhs_max, rhs_max


def unordered_pair_relations(rep, tol):
    """Reference for the relations suite: the loop it ran before it took
    one pair per transpose orbit, each unordered pair of generators joined
    once as (g, h) with h > g, returning (residual, threshold).  Its
    products are the suite's, summed in the same order, so both agree bit
    for bit.  On a _transpose_closed module, as in the suite, the pairs
    with a diagonal generator are taken in exact form instead
    (diagonal_pair_maxima): their joined terms are dropped."""
    N, d = rep.N, rep.dim
    M = N * N
    closed = _transpose_closed(rep)
    row, col, val = rep.entries
    gen, start = rep.entry_gen, rep.entry_starts
    gen_key = gen * d * d
    by_row = np.argsort(row, kind="stable")
    by_col = np.argsort(col, kind="stable")
    table_key = np.concatenate(((gen_key + col)[by_row], (gen_key + row * d)[by_col]))
    table_val = np.concatenate((val[by_row], val[by_col]))
    first = offsets(np.concatenate((row * M + gen, (col + d) * M + gen)), 2 * d * M)
    table_start = first[::M]
    key = gen_key + row * d + col
    with_second = [np.flatnonzero(gen % N == j) for j in range(N)]
    worst = scale = 0.0
    if closed:
        worst, *scales = diagonal_pair_maxima(rep)
        scale = max(scales)
    for g in range(M - 1):
        i, j = divmod(g, N)
        if closed and i == j:
            continue
        own = slice(start[g], start[g + 1])
        probe = np.concatenate((col[own], row[own] + d))
        src, at = join(probe, table_start, first[probe * M + g + 1])
        left_key = np.concatenate((row[own] * d, col[own]))
        left_val = np.concatenate((val[own], val[own]))
        lowest = min(max(g + 1 - (j - i) * N, i * N), (i + 1) * N)
        plus = slice(start[lowest], start[(i + 1) * N])
        minus = with_second[j]
        minus = minus[np.searchsorted(gen[minus], g + 1 + j - i):]
        keys = np.concatenate((table_key[at] + left_key[src],
                               key[plus] + (j - i) * N * d * d,
                               key[minus] + (i - j) * d * d))
        vals = np.concatenate((table_val[at] * left_val[src], val[plus], -val[minus]))
        n_ab = int(np.searchsorted(src, start[g + 1] - start[g]))
        channel = np.repeat([0, 1, 2], [n_ab, len(src) - n_ab, len(keys) - len(src)])
        if closed:
            partner = keys // (d * d)
            keys, vals, channel = (a[partner % (N + 1) != 0] for a in (keys, vals, channel))
        entries, inverse = np.unique(keys, return_inverse=True)
        size = len(entries)
        sums = np.bincount(inverse + channel * size, weights=vals,
                           minlength=3 * size).reshape(3, size)
        sums[1] = sums[0] - sums[1]
        sums[0] = sums[1] - sums[2]
        residual, lhs_max, rhs_max = np.abs(sums).max(axis=1, initial=0.0)
        worst = max(worst, residual)
        scale = max(scale, lhs_max, rhs_max)
    return float(worst), tol.threshold(float(scale))


def _relations_check(rep, tol=Tolerance()):
    (check,) = run_suite("relations", rep=rep, tol=tol).checks
    return check


def _assert_matches_dense(rep, tol=Tolerance()):
    """The suite's residual and threshold equal those of the unordered-pair
    loop bit for bit.  Products are summed in another order than the dense
    matmul, so each sum may differ in its last bit: the threshold, rel_eps
    = 1e-9 times a scale below 8 (ulp at most 8.9e-16), by at most 8.9e-25.
    The residual is at most the dense loop's plus 1e-15: on a module whose
    a_kk are diagonal and a_ji = a_ij^T, a pair with a diagonal generator
    is taken in exact form, with no rounding of D_k v to leave behind."""
    check = _relations_check(rep, tol)
    assert (check.residual, check.threshold) == unordered_pair_relations(rep, tol), rep.weight
    worst, threshold, pairs = dense_relations(rep, tol)
    assert check.residual <= worst + 1e-15, rep.weight
    assert abs(check.threshold - threshold) <= 1e-24, rep.weight
    assert check.description == (f"defining relations on {format_weight(rep.weight)}, "
                                 f"worst of {pairs} generator pairs")
    assert check.passed == (worst <= threshold)
    return check


def _assert_diagonal_pairs_exact(rep):
    """Every pair with a diagonal generator contributes exactly 0."""
    assert all(residual == 0.0 for residual, *_ in charid.verify._diagonal_maxima(rep)), rep.weight


def test_relations_suite_matches_dense_loop(reps):
    for rep in reps.values():
        assert _assert_matches_dense(rep).passed
        _assert_diagonal_pairs_exact(rep)
    for lam in DENSE_VERIFY_SHAPES:
        rep = Representation(lam)
        assert _assert_matches_dense(rep).passed
        _assert_diagonal_pairs_exact(rep)


def _tampered_generators(N):
    """(i, j) of the generators the wrong-entry controls change: both ends
    of the diagonal, the elementary raising and lowering a_12 and a_21, and
    the non-elementary generators with the lowest and the highest index g =
    (i-1)N + j-1.  Every change of an off-diagonal generator breaks a_ji =
    a_ij^T, and a_11 set at its first zero, (0, 1), holds an off-diagonal
    entry: those reach the general path, which joins a_g with the a_h after
    it, so a_NN and the last non-elementary generator are mostly seen as
    partners.  a_11 and a_NN moved where nonzero, and a_NN set at its first
    zero, (0, 0) where lam_N = 0, stay diagonal and reach the closed form
    of the diagonal pairs."""
    return [(1, 1), (N, N), (1, 2), (2, 1), (1, 3), (N, N - 2)]


@pytest.mark.parametrize("where", ["nonzero", "zero"])
def test_relations_suite_fails_on_a_wrong_entry(where, replace_generator):
    """One entry of a generator moved by 1e-3 where it was nonzero, or set
    where it was zero, on the whole-block module (2,1,0) and the split
    module (3,2,1,0), for each generator of _tampered_generators."""
    for lam in [(2, 1, 0), (3, 2, 1, 0)]:
        for i, j in _tampered_generators(len(lam)):
            rep = Representation(lam)
            matrix = rep.gen(i, j).copy()
            entry = tuple(np.argwhere((matrix != 0) == (where == "nonzero"))[0])
            matrix[entry] += 1e-3
            replace_generator(rep, i, j, matrix)
            check = _assert_matches_dense(rep)
            assert not check.passed and check.residual > 1e-4, (lam, i, j, entry)


def _transposed_changes(N):
    """Wrong entries that keep every a_kk diagonal and each a_ji = a_ij^T:
    (i, j, where) moves a_ij and a_ji by 1e-3 at the first nonzero or zero
    entry of a_ij and its transposed position, and (k, k, position) one
    diagonal entry of a_11 or a_NN."""
    return ([(i, j, where) for i, j in [(1, 2), (1, 3), (2, N)] for where in ("nonzero", "zero")]
            + [(k, k, position) for k in (1, N) for position in (0, -1)])


@pytest.mark.parametrize("lam", [(2, 1, 0), (3, 2, 1, 0)], ids=str)
def test_relations_suite_fails_on_changes_that_keep_the_transposes(lam, replace_generator):
    """Negative controls for the orbit path: each change keeps both facts
    it rests on, so the suite still takes it, and must fail."""
    for i, j, where in _transposed_changes(len(lam)):
        rep = Representation(lam)
        matrix = rep.gen(i, j).copy()
        if i == j:
            entry = (where % rep.dim,) * 2
            matrix[entry] += 1e-3
        else:
            entry = tuple(np.argwhere((matrix != 0) == (where == "nonzero"))[0])
            matrix[entry] += 1e-3
            transposed = rep.gen(j, i).copy()
            transposed[entry[::-1]] += 1e-3
            replace_generator(rep, j, i, transposed)
        replace_generator(rep, i, j, matrix)
        assert _transpose_closed(rep), (lam, i, j, where)
        check = _assert_matches_dense(rep)
        assert not check.passed and check.residual > 1e-4, (lam, i, j, where)


def test_built_modules_join_one_left_generator_per_transpose_orbit(monkeypatch,
                                                                   replace_generator):
    """A built module joins only its N(N-1)/2 upper generators as left
    factors; one with a wrong entry in a_12 joins all N^2 - 1."""
    calls = []

    def counting_join(*args):
        calls.append(args)
        return join(*args)

    monkeypatch.setattr(charid.verify, "join", counting_join)
    for lam in [(3,), (0, 0, 0), (2, 1, 0), (3, 2, 1, 0), (4, 3, 3, 3, 0)]:
        N = len(lam)
        rep = Representation(lam)
        calls.clear()
        assert _relations_check(rep).passed
        assert len(calls) == N * (N - 1) // 2, lam
    matrix = rep.gen(1, 2).copy()
    matrix[0, 1] += 1e-3
    replace_generator(rep, 1, 2, matrix)
    calls.clear()
    assert not _relations_check(rep).passed
    assert len(calls) == N * N - 1


@pytest.mark.parametrize("lam", [(0, 0, 0), (0,), (3,), (Fraction(-5, 2),)], ids=str)
def test_relations_suite_on_trivial_and_gl1_modules(lam):
    rep = Representation(lam)
    check = _relations_check(rep)
    assert check.residual == 0.0 and check.passed
    assert check.description.endswith(f"worst of {rep.N ** 4} generator pairs")
