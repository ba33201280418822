"""Named verification suites over built representations, producing
machine-readable reports with per-check residuals."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    DomainError,
    Tolerance,
    commutator,  # unused here, kept as a name the benchmark's tracer wraps
    join,
    max_abs,
    offsets,
)
from .gtbasis import (
    branch,  # unused here, kept as a name the benchmark's tracer wraps
    format_weight,
    row_starts,
)
from .glrep import (
    Representation,
    _exact_products,
    nonelementary_coefficient,  # unused here, kept as a name the benchmark's tracer wraps
    nonelementary_magnitudes,
)
from .charident import (
    KIND_A,
    KIND_ABAR,
    CheckRecord,
    build_char_matrix,
    char_roots,
    build_projector,  # unused here, kept as a name the benchmark's tracer wraps
    build_projectors,
    cbar_diagonal,  # unused here, kept as a name the benchmark's tracer wraps
    cbar_diagonal_table,
    elementary_square_from_invariants,  # unused here, kept as a name the benchmark's tracer wraps
    elementary_square_table,
    invariant_C_eigenvalue,  # unused here, kept as a name the benchmark's tracer wraps
    invariant_C_sums,
    norm_invariant_diagonals,  # unused here, kept as a name the benchmark's tracer wraps
    norm_invariant_table,
    raising_column,
    restricted_projector,  # unused here, kept as a name the benchmark's tracer wraps
    shift_components,  # unused here, kept as a name the benchmark's tracer wraps
    shift_contractions,
    verify_identity,
)
from .superglmn import (
    SuperWeight,
    super_vector_weight,
    verify_super_identity,
    vector_rep_relations_hold,
)

SUITE_NAMES = ("relations", "identity", "projectors", "invariants",
               "melcross", "super")


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
    guarantees, are checked first: every a_kk holds only diagonal entries,
    and each a_ji holds a_ij^T (the same positions, the same floats).  With
    them
    - a pair of diagonal generators is 0 on both sides, or NaN on the left
      once a product of their entries overflows;
    - a pair (a_kk, a_h) with a_h off the diagonal has single-term sums,
      computed in closed form over a_h's entries (_diagonal_maxima);
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
    Diagonal generators are no partners: the pairs (a_kk, a_h) are
    _diagonal_maxima, and the pairs of two of them enter as top*top -
    top*top (top the largest |diagonal entry|), a dense loop's value: 0,
    or NaN once a product overflows.
    """
    N = rep.N
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    K = len(pairs)
    label = np.full(N * N, -1)
    label[[i * N + j for i, j in pairs]] = np.arange(K)
    label[[j * N + i for i, j in pairs]] = 2 * K - 1 - np.arange(K)
    lefts = [(i * N + j, x + 1, 2 * K - x) for x, (i, j) in enumerate(pairs)]
    diagonal = rep.entries.values[rep.entry_gen % (N + 1) == 0]
    top = float(np.abs(diagonal).max(initial=0.0))
    zero = top * top - top * top
    return _joined_maxima(rep, label, lefts) + _diagonal_maxima(rep) + [[zero, zero, 0.0]]


def _diagonal_maxima(rep: Representation) -> list:
    """The (residual, lhs, rhs) maxima of the pairs (a_kk, a_h) with a_h =
    a_ab off the diagonal, one k at a time, for a module whose a_kk hold
    only diagonal entries D_k.

    Each entry of either side sits at a stored v = a_h[row, col] and is a
    single-term sum: lhs = D_k[row] v - v D_k[col] and rhs = ((a == k) -
    (b == k)) v, as a join would sum them (D_k is 0 where a_kk stores
    nothing, as a join finds no term there)."""
    N, d = rep.N, rep.dim
    row, col, val = rep.entries
    start = rep.entry_starts
    a, b = np.divmod(rep.entry_gen, N)
    off = a != b
    a, b, rows, cols, vals = a[off], b[off], row[off], col[off], val[off]
    maxima = []
    for k in range(N):
        own = slice(start[k * (N + 1)], start[k * (N + 1) + 1])
        diagonal = np.zeros(d)
        diagonal[row[own]] = val[own]
        lhs = diagonal[rows] * vals - vals * diagonal[cols]
        rhs = ((a == k) - (b == k).astype(float)) * vals
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
        size, inverse = _entry_index(keys, hi * d * d)
        sums = np.bincount(inverse + channel * size, weights=vals,
                           minlength=3 * size).reshape(3, size)
        sums[1] = sums[0] - sums[1]  # lhs = a_g a_h - a_h a_g
        sums[0] = sums[1] - sums[2]  # lhs - rhs
        maxima.append(np.abs(sums).max(axis=1, initial=0.0))
    return maxima


def _entry_index(keys: np.ndarray, bound: int) -> tuple[int, np.ndarray]:
    """(size, inverse) of np.unique(keys, return_inverse=True) for keys in
    0..bound-1: one sort of the keys with each position packed into the
    low bits, about twice as fast as the argsort behind np.unique."""
    n = len(keys)
    bits = n.bit_length()
    if bound << bits > 2 ** 63:
        entries, inverse = np.unique(keys, return_inverse=True)
        return len(entries), inverse
    packed = np.sort(keys << bits | np.arange(n))
    ordered = packed >> bits
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    count = np.cumsum(new)
    inverse = np.empty(n, dtype=np.intp)
    inverse[packed & ((1 << bits) - 1)] = count - 1
    return int(count[-1]) if n else 0, inverse


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
    projectors are checked together, as (m, k, b, b) batches of at most
    BATCH_ENTRIES entries: idempotency, all products P_a P_b with b > a,
    the sum, the scale and the traces are one operation each per batch.
    Projectors of absent roots are exactly zero, so they add nothing to the
    maxima, the sum or the traces and are skipped."""
    report = VerificationReport("projectors")
    for kind in (KIND_A, KIND_ABAR):
        cm = build_char_matrix(rep, kind)
        spectrum = char_roots(rep.weight, kind)
        present = [p for p in build_projectors(cm, spectrum) if p.root.multiplicity > 0]
        scales, idem, ortho, completeness = [], [], [], []
        traces = np.zeros(len(present))
        for stacks in zip(*(p.blocks.stacks for p in present)):
            count, b = stacks[0].shape[:2]
            step = max(1, BATCH_ENTRIES // (len(stacks) * b * b))
            for at in range(0, count, step):
                batch = np.stack([stack[at:at + step] for stack in stacks])
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
        ranks_ok = all(round(trace) == p.root.multiplicity for trace, p in zip(traces, present))
        report.add_exact(
            f"projector ranks equal constituent dimensions, kind {kind} "
            f"on {format_weight(rep.weight)}", ranks_ok)
    return report


def suite_invariants(rep: Representation, tol: Tolerance) -> VerificationReport:
    """Projector-corner and squared-norm invariants of the top branching step."""
    if rep.N < 2:
        raise DomainError("invariant suite needs a gl(n+1) module with n >= 1")
    report = VerificationReport("invariants")
    n = rep.N - 1
    d = rep.dim
    lam = rep.weight

    branches, c_sums, c_denominator = invariant_C_sums(rep)
    report.add_exact(
        f"sum_k C_k = 1 on each of {len(branches)} branches of {format_weight(lam)}",
        bool(np.all(c_sums == c_denominator)))

    projectors = build_projectors(build_char_matrix(rep, KIND_ABAR), char_roots(lam, KIND_ABAR))
    corners = [(0.0, 1.0)] + [_corner_residual(proj.blocks, n * d, diagonal)
                              for proj, diagonal in zip(projectors, cbar_diagonal_table(rep))]
    corner, corner_scale = map(max_abs, zip(*corners))
    del projectors  # not kept alive through the restricted products below
    report.add_residual(
        f"Cbar corner blocks match the closed form on {format_weight(lam)}",
        corner, tol.threshold(corner_scale))

    # Each squared-norm identity is one (n*d)^2 product per r against the
    # restricted projector's blocks.  With C the components stacked,
    # [psi[n;r]_1; ...; psi[n;r]_n], block (i, j) of C C^T is
    # psi[n;r]_i psi[n;r]_j^T; stacking their transposes instead gives
    # psi[n;r]_i^T psi[n;r]_j.
    psi = raising_column(rep)
    total = np.zeros_like(psi)
    norms = [(0.0, 1.0)]
    norm_nums, norm_dens = norm_invariant_table(rep)
    for sc in shift_contractions(rep, psi, range(1, n + 1)):
        r, comps = sc.r, sc.components
        report.add_residual(
            f"shift component contractions agree, r={r} on {format_weight(lam)}",
            sc.contraction_residual, tol.threshold(max_abs(comps)))
        report.add_residual(
            f"shift component supports only the +D_{r} weight shift on {format_weight(lam)}",
            sc.support_residual, tol.threshold(1.0))
        total += comps
        for stacked, projector, bar in ((comps.reshape(n * d, d), sc.p, 1),
                                        (comps.swapaxes(1, 2).reshape(n * d, d), sc.pbar, 0)):
            norms.append(_cleared_residual(
                stacked @ stacked.T, projector, norm_nums[bar, r - 1], norm_dens[bar, r - 1]))
    norm_resid, norm_scale = map(max_abs, zip(*norms))
    report.add_residual(
        f"shift components sum back to the raising column on {format_weight(lam)}",
        max_abs(total - psi), tol.threshold(max_abs(psi)))
    report.add_residual(
        f"squared-norm identities psi psi+ = Mbar P and psi+ psi = M Pbar "
        f"(cleared denominators) on {format_weight(lam)}",
        norm_resid, tol.threshold(norm_scale))

    # The stored square of a_{n,n+1} at (target, source) for every shift
    # of label (n, r) that stays in the lattice, and exactly 0 elsewhere.
    moves = np.zeros((n, rep.table.shape[1]), dtype=np.int64)
    moves[np.arange(n), row_starts(rep.N)[n] + np.arange(n)] = 1
    cols, move, rows = rep.raised(moves)
    nums, dens = elementary_square_table(rep)
    admissible = np.zeros((d, n), dtype=bool)
    admissible[cols, move] = True
    # The build stores a_{n,n+1}'s squares in this order, so each admissible
    # shift must meet its own stored square, position for position.
    stored_rows, stored_cols, stored_nums, stored_dens = rep._ladders[n]
    exact_ok = (np.array_equal(rows, stored_rows) and np.array_equal(cols, stored_cols)
                and not np.any(nums[~admissible] != 0)
                and _same_ratios(nums[cols, move], dens[cols, move], stored_nums, stored_dens))
    report.add_exact(
        f"squared ladder coefficients equal M*Cbar products exactly, "
        f"all {rep.dim} states of {lam}", exact_ok)
    return report


def _corner_residual(blocks, start: int, diagonal: np.ndarray) -> tuple[float, float]:
    """max |corner - diag(diagonal)| over the bottom-right square [start:,
    start:] of the blocks' matrix, and the larger of the two sides' largest
    entries, read from the block entries in that square: every entry
    outside the blocks is zero on both sides."""
    rows, cols, values = blocks.corner(start)
    expected = np.where(rows == cols, diagonal[rows], 0.0)
    return max_abs(values - expected), max_abs([max_abs(values), max_abs(diagonal)])


def _cleared_residual(gram: np.ndarray, projector, num: np.ndarray, den: np.ndarray
                      ) -> tuple[float, float]:
    """max |den gram - num projector| and the larger of the two sides'
    largest entries, where num and den (one value per basis vector of the
    d-dimensional module) scale the rows of every d x d block.  gram is
    overwritten; the projector (Blocks) is zero off its blocks."""
    d = len(den)
    slabs = gram.reshape(-1, d, gram.shape[1])  # a view, one slab per block row
    slabs *= den[:, None]
    scales = [gram.max(), gram.min()]
    for index, stack in zip(projector.index, projector.stacks):
        rhs = num[index % d][:, :, None] * stack
        scales.append(max_abs(rhs))
        if projector.whole:
            gram -= rhs[0]
        else:
            gram[index[:, :, None], index[:, None, :]] -= rhs
    return float(np.abs(gram, out=gram).max()), max_abs(scales)


def _same_ratios(p, q, s, t) -> bool:
    """p/q == s/t entry by entry, by exact cross-multiplication, the
    products p t and s q taken as glrep._exact_products takes them."""
    pt, sq = _exact_products(1, np.stack((p, t), axis=1), np.stack((s, q), axis=1))
    return bool(np.all(pt == sq))


def suite_melcross(rep: Representation, tol: Tolerance) -> VerificationReport:
    """Closed product-form magnitudes against the commutator-built entries
    for every generator a_{l,j} with j - l >= 2: +|actual| and -expected
    summed per position of either triplet table, neither of which holds a
    position twice, are the dense |actual| - expected bit for bit."""
    report = VerificationReport("melcross")
    if rep.N < 3:
        raise DomainError("cross-check needs gl(N) with N >= 3")
    for l in range(1, rep.N - 1):
        for j in range(l + 2, rep.N + 1):
            actual = rep.triplets(l, j)
            expected = nonelementary_magnitudes(rep, l, j - 1)
            keys = np.concatenate([t.rows * rep.dim + t.cols for t in (actual, expected)])
            terms = np.concatenate((np.abs(actual.values), -expected.values))
            resid = max_abs(np.bincount(np.unique(keys, return_inverse=True)[1], weights=terms))
            report.add_residual(
                f"|a_{l},{j}| entries match the product form on {format_weight(rep.weight)}",
                resid, tol.threshold(max_abs(terms)))
    return report


def suite_super(m: int, n: int, tol: Tolerance,
                lam: SuperWeight | None = None) -> VerificationReport:
    """Graded defining relations plus both super characteristic identities
    on the vector representation."""
    report = VerificationReport("super")
    if lam is not None and lam != super_vector_weight(m, n):
        raise DomainError(
            f"super suite runs on the vector weight {super_vector_weight(m, n)}")
    report.add_exact(
        f"graded defining relations hold exactly on gl({m}|{n})",
        vector_rep_relations_hold(m, n))
    for kind in (KIND_A, KIND_ABAR):
        check = verify_super_identity(m, n, kind, tol)
        report.add_residual(check.description, check.residual, check.threshold)
    return report


def run_suite(name: str, *, rep: Representation | None = None,
              super_mn: tuple[int, int] | None = None,
              super_weight: SuperWeight | None = None,
              tol: Tolerance | None = None) -> VerificationReport:
    """Dispatch one named suite and stamp its wall-clock duration.  A gl(n)
    suite on labels whose magnitude plus N - 1 reaches 2^52 is refused."""
    tol = tol or Tolerance()
    start = time.perf_counter()
    if name == "super":
        if super_mn is None:
            raise DomainError("super suite needs a gl(m|n) algebra")
        report = suite_super(*super_mn, tol, lam=super_weight)
    else:
        if rep is None:
            raise DomainError(f"suite {name!r} needs a gl(n) representation")
        if name not in SUITE_NAMES:
            raise DomainError(f"unknown suite {name!r}")
        # Every pattern weight lies in [lam_N, lam_1] and every root is
        # lam_j + N - j, so this bounds each label, diagonal entry and root.
        # From 2^52 on float64 drops halves and then units, and the float
        # checks would judge a module other than the exact one.
        if max(map(abs, rep.weight)) + rep.N - 1 >= 2 ** 52:
            raise DomainError(f"suite {name} on gl({rep.N}): a label or characteristic "
                              f"root reaches 2^52, beyond exact float64 checks")
        # suite_<name> is looked up when it runs, so that a suite replaced on
        # this module after import (perfbench/spans.py wraps them) is the one run.
        report = globals()[f"suite_{name}"](rep, tol)
    report.duration_ms = (time.perf_counter() - start) * 1000.0
    return report
