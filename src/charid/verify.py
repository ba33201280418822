"""Named verification suites over built representations, producing
machine-readable reports with per-check residuals."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    GL_SUITES,
    SUITE_NAMES,
    DomainError,
    Tolerance,
    commutator,  # unused here, kept as a name the benchmark's tracer wraps
    entry_index,
    join,
    late_names,
    max_abs,
    offsets,
)
from .gtbasis import (
    branch,  # unused here, kept as a name the benchmark's tracer wraps
    check_highest_weight,
    format_weight,
    row_starts,
)
from .glrep import (
    Representation,
    _product_forms,
    nonelementary_coefficient,  # unused here, kept as a name the benchmark's tracer wraps
)
from .charident import (
    KIND_A,
    KIND_ABAR,
    CheckRecord,
    build_char_matrix,
    char_roots,
    build_projector,  # unused here, kept as a name the benchmark's tracer wraps
    _lagrange_stacks,
    cbar_diagonal,  # unused here, kept as a name the benchmark's tracer wraps
    elementary_square_from_invariants,  # unused here, kept as a name the benchmark's tracer wraps
    invariant_C_eigenvalue,  # unused here, kept as a name the benchmark's tracer wraps
    invariant_tables,
    norm_invariant_diagonals,  # unused here, kept as a name the benchmark's tracer wraps
    restricted_projector,  # unused here, kept as a name the benchmark's tracer wraps
    shift_components,  # unused here, kept as a name the benchmark's tracer wraps
    verify_identity,
)

# gl(m|n) is loaded by the super suite alone, when it first runs
# (SuperWeight appears here in annotations only).
_bind, __getattr__ = late_names(globals(), {
    "superglmn": "SuperWeight super_vector_weight verify_super_identity "
                 "vector_rep_relations_hold",
})

# What a job (suite, family "gl" or "glmn", labels) needs before its suite
# runs, as (suites, test, message) in the order checked.  A gl(n) weight is
# validated after its family, as a build would first (check_highest_weight
# raises its own error), so later tests see it dominant: its largest |label|
# is lam_1 or -lam_N.  Pattern weights lie in [lam_N, lam_1] and roots are
# lam_j + N - j, so below 2^52 float64 holds each label, diagonal entry and
# root exactly; from there on the float checks would judge another module.
PRECONDITIONS = (
    (("super",), lambda family, lam: family == "glmn", "suite {suite} needs a gl(m|n) algebra"),
    (GL_SUITES, lambda family, lam: family == "gl", "suite {suite} needs a gl(n) algebra"),
    (GL_SUITES, lambda family, lam: bool(check_highest_weight(lam)), ""),
    (GL_SUITES, lambda family, lam: max(lam[0], -lam[-1]) < 2 ** 52 + 1 - len(lam),
     "suite {suite} on gl({N}): a label or characteristic root reaches 2^52, "
     "beyond exact float64 checks"),
    (("invariants",), lambda family, lam: len(lam) >= 2,
     "invariant suite needs a gl(n+1) module with n >= 1"),
    (("melcross",), lambda family, lam: len(lam) >= 3, "cross-check needs gl(N) with N >= 3"),
)


def check_job(suite: str, family: str | None, labels: tuple) -> None:
    """Raise DomainError with the message of the first PRECONDITIONS entry
    of the suite that the job fails."""
    for suites, holds, message in PRECONDITIONS:
        if suite in suites and not holds(family, labels):
            raise DomainError(message.format(suite=suite, N=len(labels)))


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckRecord] = field(default_factory=list)
    duration_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def add_residual(self, description: str, residual: float, threshold: float):
        """Judge residual <= threshold; one that is not finite judges nothing."""
        residual, threshold = float(residual), float(threshold)
        if not (math.isfinite(residual) and math.isfinite(threshold)):
            raise DomainError(f"{description}: residual {residual} or threshold "
                              f"{threshold} is not finite")
        self.checks.append(CheckRecord(
            description, residual <= threshold, residual, threshold))

    def add_exact(self, description: str, passed: bool):
        self.checks.append(CheckRecord(description, bool(passed), exact=True))

    def to_dict(self) -> dict:
        """The report without its check records, which cli writes."""
        total = len(self.checks)
        passed = sum(1 for c in self.checks if c.passed)
        return {
            "suite": self.suite,
            "summary": {
                "total": total,
                "passed": passed,
                "failed": total - passed,
                "overall": self.passed,
            },
            "duration_ms": self.duration_ms,
        }


def suite_relations(rep: Representation, tol: Tolerance) -> VerificationReport:
    """[a_ij, a_kl] = d_kj a_il - d_il a_kj over every generator pair.

    The module's one table of stored triplets (row, col, value) is read
    whole, so each stored entry, a wrong one too, takes part.  The maxima
    over all N^4 ordered pairs are taken exactly, each pair standing for
    others whose residuals equal its own bit for bit up to sign or
    transposition:
    - (h, g): its right-hand side is the exact negation of that of (g, h),
      since each entry has at most the two terms a_ii - a_jj and
      fl(y - x) = -fl(x - y), and its two products are those of (g, h),
      each summed in the same order;
    - (g, g) is exactly 0 on both sides while its products are finite.
    Two further exact facts of the table, which Representation._build
    guarantees, are checked first: every a_kk holds only diagonal entries
    D_k, and each a_ji holds a_ij^T (the same positions, the same floats).
    With them
    - a pair (a_kk, a_h), a_h diagonal or not, has the single term
      (D_k[row] - D_k[col]) v on the left at each stored entry v of a_h,
      taken in that exact form (_diagonal_maxima): an honest module gives
      0 there on any labels run_suite accepts;
    - (t(h), t(g)), where t swaps a_ij and a_ji, is (g, h) transposed: the
      same products, each summed in the same ascending inner-index order;
    so of the off-diagonal pairs only one per transpose orbit is joined
    (_orbit_maxima).  If either fact fails, which only a tampered module
    can cause, every unordered pair is joined instead, as (g, h) with h > g
    in index order.
    """
    report = VerificationReport("relations")
    N = rep.N
    if _transpose_closed(rep):
        maxima = _orbit_maxima(rep)
    else:
        maxima = _joined_maxima(rep, np.arange(N * N),
                                [(g, g + 1, N * N) for g in range(N * N - 1)])
    report.add_residual(
        f"defining relations on {format_weight(rep.weight)}, worst of {N ** 4} generator pairs",
        max_abs([m[0] for m in maxima]), tol.threshold(max_abs([m[1:] for m in maxima])))
    return report


def _transpose_closed(rep: Representation) -> bool:
    """Whether every stored entry of an a_kk is diagonal and each stored
    a_ji equals a_ij^T: the same positions and the same floats."""
    N, d = rep.N, rep.dim
    row, col, val = rep.entries
    i, j = np.divmod(rep.entry_gen, N)
    if np.any(row[i == j] != col[i == j]):
        return False
    upper, lower = i < j, i > j
    # a_ij's entries keyed as entries of a_ji, sorted into a_ji's row-major
    # order
    flipped = (((j * N + i) * d + col) * d + row)[upper]
    order = np.argsort(flipped)
    stored = ((rep.entry_gen * d + row) * d + col)[lower]
    return (np.array_equal(flipped[order], stored)
            and np.array_equal(val[upper][order], val[lower]))


def _orbit_maxima(rep: Representation) -> list:
    """The (residual, lhs, rhs) maxima of every pair class of a module whose
    table is _transpose_closed.

    The K = N(N-1)/2 upper generators a_ij (i < j, in index order) are
    labelled u_0 ... u_{K-1} and their transposes u_x^T = a_ji take the
    mirrored labels t(x) = 2K-1-x.  An unordered pair {x, y} of labels and
    its transpose {t(y), t(x)} have one member with x < y <= t(x), so each
    u_x is joined with the partners x+1 ... 2K-1-x, which are contiguous.
    Diagonal generators are no partners: every pair with one is
    _diagonal_maxima.
    """
    N = rep.N
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    K = len(pairs)
    label = np.full(N * N, -1)
    label[[i * N + j for i, j in pairs]] = np.arange(K)
    label[[j * N + i for i, j in pairs]] = 2 * K - 1 - np.arange(K)
    lefts = [(i * N + j, x + 1, 2 * K - x) for x, (i, j) in enumerate(pairs)]
    return _joined_maxima(rep, label, lefts) + _diagonal_maxima(rep)


def _diagonal_maxima(rep: Representation) -> list:
    """The (residual, lhs, rhs) maxima of the pairs (a_kk, a_h) over every
    generator a_h = a_ab, diagonal ones included, one k at a time, for a
    module whose a_kk hold only diagonal entries D_k.

    Each entry of either side sits at a stored v = a_h[row, col] and is a
    single term: lhs = (D_k[row] - D_k[col]) v and rhs = ((a == k) - (b ==
    k)) v (D_k is 0 where a_kk stores nothing).  The D_k of an accepted
    module are labels below 2^52 with integer differences, which float64
    holds exactly, so an honest module gives exactly 0 here, where D_k[row]
    v - v D_k[col], each product rounded, reads about 2^-53 |D_k v|.  A NaN
    or infinite entry still makes the maxima NaN."""
    N, d = rep.N, rep.dim
    row, col, val = rep.entries
    start = rep.entry_starts
    a, b = np.divmod(rep.entry_gen, N)
    maxima = []
    for k in range(N):
        own = slice(start[k * (N + 1)], start[k * (N + 1) + 1])
        diagonal = np.zeros(d)
        diagonal[row[own]] = val[own]
        lhs = (diagonal[row] - diagonal[col]) * val
        rhs = ((a == k) - (b == k).astype(float)) * val
        maxima.append([np.abs(lhs - rhs).max(initial=0.0), np.abs(lhs).max(initial=0.0),
                       np.abs(rhs).max(initial=0.0)])
    return maxima


def _joined_maxima(rep: Representation, label: np.ndarray, lefts) -> list:
    """The (residual, lhs, rhs) maxima of one batch of generator pairs per
    (g, lo, hi) of lefts: a_g with each partner a_h whose label label[h]
    lies in lo..hi-1.  Generators labelled -1 are no partners.

    For a_g, the terms of a_g a_h and a_h a_g come from joining a_g's
    columns with the rows of the partners and a_g's rows with their
    columns (kernel.join, each probe bounded to the entries of its key
    with a label in lo..hi-1); the right-hand side adds a_il and -a_kj as
    further terms.  Terms are summed per entry (h, row, col) and side
    before the maxima are taken, so these are the maxima of the dense
    matrices.  Batches of several lefts each measured slower at dims
    160-224 than one batch per left.
    """
    N, d = rep.N, rep.dim
    L = int(label.max(initial=-1)) + 1
    row, col, val = rep.entries
    start = rep.entry_starts
    # An entry (h, row, col) of a product or of the right-hand side has the
    # key label[h]*d^2 + row*d + col.  One table holds every partner
    # triplet twice: sorted by (row, label), where a_g's column j finds the
    # rows j of the partners (terms of a_g a_h), then sorted by (column,
    # label) at offset d, where a_g's row j finds their columns j (terms of
    # a_h a_g).  first[k*L + y] is the first entry with join key k and
    # label at least y.  Each table entry carries its part of the key; a_g's
    # entry adds row*d or col.
    lab = label[rep.entry_gen]
    part = np.flatnonzero(lab >= 0)
    row_key = row[part] * L + lab[part]
    col_key = (col[part] + d) * L + lab[part]
    by_row, by_col = part[np.argsort(row_key)], part[np.argsort(col_key)]
    lab_key = lab * d * d
    table_key = np.concatenate(((lab_key + col)[by_row], (lab_key + row * d)[by_col]))
    table_val = np.concatenate((val[by_row], val[by_col]))
    first = offsets(np.concatenate((row_key, col_key)), 2 * d * L)
    key = row * d + col
    maxima = []
    for g, lo, hi in lefts:
        i, j = divmod(g, N)
        own = slice(start[g], start[g + 1])
        probe = np.concatenate((col[own], row[own] + d))
        src, at = join(probe, first[::L], first[probe * L + lo], first[probe * L + hi])
        left_key = np.concatenate((row[own] * d, col[own]))
        left_val = np.concatenate((val[own], val[own]))
        # +a_il lands on h = (j, l) and -a_kj on h = (k, i), where h is a
        # partner.
        rhs = ([(i * N + l, label[j * N + l], 1.0) for l in range(N)]
               + [(k * N + j, label[k * N + i], -1.0) for k in range(N)])
        rhs = [(slice(start[s], start[s + 1]), y, sign) for s, y, sign in rhs if lo <= y < hi]
        keys = np.concatenate([table_key[at] + left_key[src]]
                              + [key[s] + y * d * d for s, y, _ in rhs])
        vals = np.concatenate([table_val[at] * left_val[src]]
                              + [sign * val[s] for s, _, sign in rhs])
        n_ab = int(np.searchsorted(src, start[g + 1] - start[g]))  # terms of a_g a_h first
        channel = np.repeat([0, 1, 2], [n_ab, len(src) - n_ab, len(keys) - len(src)])
        size, inverse = entry_index(keys, hi * d * d)
        sums = np.bincount(inverse + channel * size, weights=vals,
                           minlength=3 * size).reshape(3, size)
        sums[1] = sums[0] - sums[1]  # lhs = a_g a_h - a_h a_g
        sums[0] = sums[1] - sums[2]  # lhs - rhs
        maxima.append(np.abs(sums).max(axis=1, initial=0.0))
    return maxima


def suite_identity(rep: Representation, tol: Tolerance) -> VerificationReport:
    report = VerificationReport("identity")
    for kind in (KIND_A, KIND_ABAR):
        cm = build_char_matrix(rep, kind)
        spectrum = char_roots(rep.weight, kind)
        for check in verify_identity(cm, spectrum, tol):
            report.add_residual(f"{check.description} on {format_weight(rep.weight)}",
                                check.residual, check.threshold)
    return report


# The largest batch of projector blocks suite_projectors checks at once, in
# float64 entries.  Measured on 2 vCPUs, (4,3,2,1,0) (dim 1024), kind A:
# batches of at most 2^14, 2^16 and 2^30 entries (whole block sizes) took
# 14.7, 12.8 and 19.9 ms against 13.8 ms for one product per projector
# and block size; at dim 224 every size fits one batch.
BATCH_ENTRIES = 2 ** 16


def suite_projectors(rep: Representation, tol: Tolerance) -> VerificationReport:
    """Projector algebra, checked block by block on the characteristic
    matrix's diagonal blocks.  The blocks of one size of the m present
    projectors, a lockstep (m, k, b, b) stack, are checked in views of at
    most BATCH_ENTRIES entries: idempotency, all products P_a P_b with b >
    a, the sum, the scale and the traces are one operation each per view.
    Projectors of absent roots are exactly zero, so they add nothing to the
    maxima, the sum or the traces and are not made."""
    report = VerificationReport("projectors")
    for kind in (KIND_A, KIND_ABAR):
        spectrum = char_roots(rep.weight, kind)
        present = [root for root in spectrum if root.multiplicity > 0]
        scales, idem, ortho, completeness = [], [], [], []
        traces = np.zeros(len(present))
        for stack in _lagrange_stacks(build_char_matrix(rep, kind), spectrum):
            m, count, b = stack.shape[:3]
            step = max(1, BATCH_ENTRIES // (m * b * b))
            for at in range(0, count, step):
                batch = stack[:, at:at + step]
                scales.append(max_abs(batch))
                square = batch @ batch
                square -= batch
                idem.append(max_abs(square))
                for a in range(len(batch) - 1):
                    ortho.append(max_abs(batch[a] @ batch[a + 1:]))
                total = batch.sum(axis=0)  # in projector order, as a loop adds
                diag = np.arange(b)
                total[:, diag, diag] -= 1.0
                completeness.append(max_abs(total))
                traces += np.trace(batch, axis1=2, axis2=3).sum(axis=1)
        scale = max_abs(scales)
        report.add_residual(
            f"idempotency, kind {kind} on {format_weight(rep.weight)}",
            max_abs(idem), tol.threshold(scale * scale))
        report.add_residual(
            f"mutual orthogonality, kind {kind} on {format_weight(rep.weight)}",
            max_abs(ortho), tol.threshold(scale * scale))
        report.add_residual(
            f"completeness (sum equals identity), kind {kind} on {format_weight(rep.weight)}",
            max_abs(completeness), tol.threshold(scale))
        ranks_ok = all(round(trace) == root.multiplicity for trace, root in zip(traces, present))
        report.add_exact(
            f"projector ranks equal constituent dimensions, kind {kind} "
            f"on {format_weight(rep.weight)}", ranks_ok)
    return report


def suite_invariants(rep: Representation, tol: Tolerance) -> VerificationReport:
    """Projector-corner and squared-norm invariants of the top branching step.

    Every closed form comes from one exact pass (invariant_tables), and the
    stored ladder squares are compared with its M*Cbar products by
    cross-multiplication in Python ints.  The shift checks run
    on ShiftBatch, the raising column psi_j = a_{j,n+1} read as triplets
    and joined with the lockstep restricted projectors of both kinds, for
    batches of r at once (one batch on small modules): both contraction
    routes, psi[n;r]_j = sum_i psi_i Pbar_ij and sum_i P_ji psi_i, are
    summed at every key a term reaches, and every other entry of either is
    exactly zero.  The support check reads each key's shift from the
    pattern table, and completeness adds the components of every r against
    psi's own entries.  The squared-norm identities take C C^T of the
    components on a GramLayout, which holds every entry of C C^T and of the
    projector.  The records, their order and their thresholds are those of
    the dense products; residuals may differ in their last bits.
    """
    report = VerificationReport("invariants")
    n = rep.N - 1
    d = rep.dim
    lam = rep.weight
    weight = format_weight(lam)

    # The stored square of a_{n,n+1} at (target, source) for every shift
    # of label (n, r) that stays in the lattice, and exactly 0 elsewhere.
    # The build stores a_{n,n+1}'s squares in this order, so each admissible
    # shift must meet its own stored square, position for position.
    moves = np.zeros((n, rep.table.shape[1]), dtype=np.int64)
    moves[np.arange(n), row_starts(rep.N)[n] + np.arange(n)] = 1
    cols, move, rows = rep.raised(moves)
    stored_rows, stored_cols, stored_nums, stored_dens = rep._ladders[n]
    in_place = np.array_equal(rows, stored_rows) and np.array_equal(cols, stored_cols)
    tables = invariant_tables(rep)

    report.add_exact(
        f"sum_k C_k = 1 on each of {tables.branches} branches of {weight}",
        bool(np.all(tables.c_sums == tables.c_common)))

    corner, corner_scale = _corner_residual(rep, n * d, tables.cbar)
    report.add_residual(
        f"Cbar corner blocks match the closed form on {weight}",
        corner, tol.threshold(corner_scale))

    from .shifts import ShiftBatch  # on first use (see charid.shifts)

    batch = ShiftBatch(rep)
    total = np.zeros(batch.size)
    norms = [(0.0, 1.0)]
    grams = [(batch.gram_layout(over_cols), projectors, bar)
             for over_cols, projectors, bar in ((True, batch.p, 1), (False, batch.pbar, 0))]
    for rs in batch.chunks():
        comps, other = batch.sums(rs)
        total += comps.sum(axis=0)
        norms += [_cleared_residual(layout, comps, projectors, rs, tables.norm_nums[bar],
                                    tables.norm_dens[bar])
                  for layout, projectors, bar in grams]
        other -= comps
        off_shift = batch.key_steps != batch.steps[rs, None]
        comps = np.abs(comps, out=comps)
        for r, contraction, scale, support in zip(
                range(rs.start + 1, rs.stop + 1), np.abs(other).max(axis=1, initial=0.0).tolist(),
                comps.max(axis=1, initial=0.0).tolist(),
                np.where(off_shift, comps, 0.0).max(axis=1, initial=0.0).tolist()):
            report.add_residual(
                f"shift component contractions agree, r={r} on {weight}",
                contraction, tol.threshold(scale))
            report.add_residual(
                f"shift component supports only the +D_{r} weight shift on {weight}",
                support, tol.threshold(1.0))
    total[batch.psi_at] -= batch.values
    norm_resid, norm_scale = map(max_abs, zip(*norms))
    report.add_residual(
        f"shift components sum back to the raising column on {weight}",
        max_abs(total), tol.threshold(max_abs(batch.values)))
    report.add_residual(
        f"squared-norm identities psi psi+ = Mbar P and psi+ psi = M Pbar "
        f"(cleared denominators) on {weight}",
        norm_resid, tol.threshold(norm_scale))

    admissible = np.zeros((d, n), dtype=bool)
    admissible[cols, move] = True
    # p/q == s/t as p t == s q in Python ints: an int64 product could wrap.
    exact_ok = (in_place and not np.any(tables.square_nums[~admissible] != 0)
                and bool(np.all(tables.square_nums[cols, move].astype(object)
                                * stored_dens.astype(object)
                                == stored_nums.astype(object)
                                * tables.square_dens[cols, move].astype(object))))
    report.add_exact(
        f"squared ladder coefficients equal M*Cbar products exactly, "
        f"all {rep.dim} states of {lam}", exact_ok)
    return report


def _corner_residual(rep: Representation, start: int, diagonals) -> tuple[float, float]:
    """max |corner - diag(diagonal)| over every kind-Abar projector and the
    bottom-right square [start:, start:] of its matrix, and the largest
    entry of either side, at least (0.0, 1.0), for one diagonal per root.
    The present projectors are read from their lockstep stacks at the
    block entries in that square (every other entry is zero on both
    sides); an absent root's projector is zero, so its residual and scale
    are its closed-form row's largest entry."""
    spectrum = char_roots(rep.weight, KIND_ABAR)
    cm = build_char_matrix(rep, KIND_ABAR)
    present = np.array([root.multiplicity > 0 for root in spectrum])
    targets, absent = diagonals[present], max_abs(diagonals[~present])
    residuals, scales = [0.0, absent], [1.0, max_abs(targets), absent]
    for stack, (at, rows, cols) in zip(_lagrange_stacks(cm, spectrum),
                                       cm.blocks.corner_places(start)):
        # taken at the flat places: 2-5 times faster than stack[:, pick]
        values = np.take(stack.reshape(len(stack), -1), at, axis=1)
        scales.append(max_abs(values))
        on_diagonal = rows == cols
        values[:, on_diagonal] -= targets[:, rows[on_diagonal]]
        residuals.append(max_abs(values))
    return max_abs(residuals), max_abs(scales)


def _cleared_residual(layout, comps: np.ndarray, projectors, rs: slice, nums: np.ndarray,
                      dens: np.ndarray) -> tuple[float, float]:
    """max |den C C^T - num projector| over the r - 1 in rs and the larger
    of the two sides' largest entries, where num and den (one value per r
    and basis vector, (n, d)) scale each row of every d x d block.

    comps holds the components of those r at every key, the entries of C,
    and projectors the lockstep Blocks of one kind.  Both sides are taken
    on the GramLayout's squares, where every entry of either lies: C C^T
    is one batched product per stack of components, the projector's block
    entries are subtracted at their places, and every other entry is zero
    on both sides."""
    R = len(comps)
    num, den = nums[rs], dens[rs]
    c = np.zeros((R, layout.c_size))
    c[:, layout.c_at] = comps
    gram = np.empty((R, layout.g_size))
    for c_range, g_range, k, g, m, rows in layout.stacks:
        block = c[:, c_range].reshape(R, k, g, m)
        # a view: the Gram range of each r splits into the k squares
        np.multiply(block @ block.swapaxes(2, 3), den[:, rows, None],
                    out=gram[:, g_range].reshape(R, k, g, g))
    scales = [max_abs(gram)]
    for index, stack, at in zip(projectors.index, projectors.stacks, layout.p_at):
        rhs = np.multiply(num[:, index % den.shape[1], None], stack[rs])
        scales.append(max_abs(rhs))
        gram[:, at] -= rhs.reshape(R, -1)
    return float(np.abs(gram, out=gram).max(initial=0.0)), max_abs(scales)


def suite_melcross(rep: Representation, tol: Tolerance) -> VerificationReport:
    """Closed product-form magnitudes against the commutator-built entries
    for every generator a_{l,j} with j - l >= 2, one record per generator.

    The product forms of all of them are one batch (glrep._product_forms
    over the level ranges l..j-1).  Their entries and the stored ones of
    every such a_{l,j} are keyed by (generator, row, col) into one union:
    +|actual| and -expected summed per key, with all the stored entries
    first, are the dense |actual| - expected bit for bit, since neither
    table holds a position twice.  The maxima of the sums and of the terms
    are then folded per generator, so each record sees only its own
    entries."""
    report = VerificationReport("melcross")
    N, d = rep.N, rep.dim
    weight = format_weight(rep.weight)
    # a_{l,n+1} is the range l..n and generator (l - 1)N + n
    ranges = [(l, n) for l in range(1, N - 1) for n in range(l + 1, N)]
    owner, cols, rows, _, _, values = _product_forms(rep, ranges)
    keep = values != 0
    pair_of = np.full(N * N, -1)
    pair_of[[(l - 1) * N + n for l, n in ranges]] = np.arange(len(ranges))
    stored = pair_of[rep.entry_gen]
    at = np.flatnonzero(stored >= 0)
    pair = np.concatenate((stored[at], owner[keep]))
    row = np.concatenate((rep.entries.rows[at], rows[keep]))
    col = np.concatenate((rep.entries.cols[at], cols[keep]))
    terms = np.concatenate((np.abs(rep.entries.values[at]), -np.sqrt(values[keep])))
    keys = (pair * d + row) * d + col
    size, inverse = entry_index(keys, len(ranges) * d * d)
    sums = np.bincount(inverse, weights=terms, minlength=size)
    residuals, scales = np.zeros(len(ranges)), np.zeros(len(ranges))
    with np.errstate(invalid="ignore"):  # a NaN makes its own generator's maxima NaN
        np.maximum.at(residuals, pair, np.abs(sums)[inverse])
        np.maximum.at(scales, pair, np.abs(terms))
    for (l, n), resid, scale in zip(ranges, residuals.tolist(), scales.tolist()):
        report.add_residual(f"|a_{l},{n + 1}| entries match the product form on {weight}",
                            resid, tol.threshold(scale))
    return report


def suite_super(lam: SuperWeight, tol: Tolerance) -> VerificationReport:
    """Graded defining relations plus both super characteristic identities
    on the vector representation of gl(m|n), whose weight lam must be."""
    _bind("super_vector_weight", "verify_super_identity", "vector_rep_relations_hold")
    m, n = lam.m, lam.n
    if lam != super_vector_weight(m, n):
        raise DomainError(
            f"super suite runs on the vector weight {super_vector_weight(m, n)}")
    report = VerificationReport("super")
    report.add_exact(
        f"graded defining relations hold exactly on gl({m}|{n})",
        vector_rep_relations_hold(m, n))
    for kind in (KIND_A, KIND_ABAR):
        check = verify_super_identity(m, n, kind, tol)
        report.add_residual(check.description, check.residual, check.threshold)
    return report


def run_suite(name: str, *, rep: Representation | None = None,
              super_weight: SuperWeight | None = None,
              tol: Tolerance | None = None) -> VerificationReport:
    """Dispatch one named suite, on rep for a gl(n) suite and on
    super_weight for "super", and stamp its wall-clock duration.  A job
    that fails PRECONDITIONS is refused first."""
    tol = tol or Tolerance()
    start = time.perf_counter()
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}")
    if super_weight is not None:
        family, labels = "glmn", super_weight.labels()
    else:
        family, labels = ("gl", rep.weight) if rep is not None else (None, ())
    check_job(name, family, labels)
    if name == "super":
        report = suite_super(super_weight, tol)
    else:
        # suite_<name> is looked up when it runs, so that a suite replaced on
        # this module after import (perfbench/spans.py wraps them) is the one run.
        report = globals()[f"suite_{name}"](rep, tol)
    report.duration_ms = (time.perf_counter() - start) * 1000.0
    return report
