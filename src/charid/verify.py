"""Named verification suites over built representations, producing
machine-readable reports with per-check residuals."""

from __future__ import annotations

import itertools
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
    nonelementary_coefficient,  # unused here, kept as a name the benchmark's tracer wraps
    nonelementary_magnitudes,
)
from .charident import (
    KIND_A,
    KIND_ABAR,
    build_char_matrix,
    char_roots,
    build_projector,
    cbar_diagonal,
    elementary_square_from_invariants,  # unused here, kept as a name the benchmark's tracer wraps
    elementary_squares_from_invariants,
    invariant_C_eigenvalue,  # unused here, kept as a name the benchmark's tracer wraps
    invariant_C_sums,
    norm_invariant_diagonals,
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


@dataclass(frozen=True)
class CheckRecord:
    description: str
    passed: bool
    residual: float | None = None
    threshold: float | None = None
    exact: bool = False

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "kind": "exact" if self.exact else "residual",
            "residual": self.residual,
            "threshold": self.threshold,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckRecord] = field(default_factory=list)
    duration_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def add_residual(self, description: str, residual: float, threshold: float):
        residual, threshold = float(residual), float(threshold)
        self.checks.append(CheckRecord(
            description, residual <= threshold, residual, threshold))

    def add_exact(self, description: str, passed: bool):
        self.checks.append(CheckRecord(description, bool(passed), exact=True))

    def to_dict(self) -> dict:
        total = len(self.checks)
        passed = sum(1 for c in self.checks if c.passed)
        return {
            "suite": self.suite,
            "checks": [c.to_dict() for c in self.checks],
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
    whole, so each stored entry, a wrong one too, takes part.  Each
    unordered pair of generators {a_g, a_h} is formed once, as (g, h) with
    h > g.  The maxima over all N^4 ordered pairs are still taken exactly:
    - the right-hand side of (h, g) is the exact negation of that of
      (g, h), since each entry has at most the two terms a_ii - a_jj and
      fl(y - x) = -fl(x - y);
    - the two products of (h, g) are those of (g, h), each summed in the
      same order, so the residual of (h, g) is bit for bit the negation of
      that of (g, h);
    - (g, g) is exactly 0 on both sides, as in a dense loop.
    For one left generator a_g at a time, the terms of a_g a_h and a_h a_g
    for every h > g come from joining a_g's columns with the rows of those
    a_h and a_g's rows with their columns (kernel.join, each probe starting
    at its key's first entry with a generator after g); the right-hand side
    adds a_il and -a_kj on h > g as further terms.  Terms are summed per
    entry (h, row, col) before the maxima are taken, so the residual and
    the scale are the maxima of the dense matrices.
    """
    report = VerificationReport("relations")
    N, d = rep.N, rep.dim
    M = N * N
    row, col, val = rep.entries
    gen, start = rep.entry_gen, rep.entry_starts  # generator g = (i-1)N + j-1
    # An entry (h, row, col) of a product or of the right-hand side has the
    # key h*d^2 + row*d + col.  One table holds every triplet twice: sorted
    # by row, where a_g's column j finds the rows j of the a_h (terms of
    # a_g a_h), then sorted by column at offset d, where a_g's row j finds
    # the columns j of the a_h (terms of a_h a_g).  The triplets are stored
    # in generator order, so both halves are sorted by (join key, h), and
    # first[k*N^2 + h] is the first entry with join key k and generator at
    # least h.  Each table entry carries its part of the key; a_g's entry
    # adds row*d or col.
    gen_key = gen * d * d
    by_row = np.argsort(row, kind="stable")
    by_col = np.argsort(col, kind="stable")
    table_key = np.concatenate(((gen_key + col)[by_row], (gen_key + row * d)[by_col]))
    table_val = np.concatenate((val[by_row], val[by_col]))
    first = offsets(np.concatenate((row * M + gen, (col + d) * M + gen)), 2 * d * M)
    table_start = first[::M]
    key = gen_key + row * d + col
    with_second = [np.flatnonzero(gen % N == j) for j in range(N)]  # a_kj, k ascending
    worst = 0.0
    scale = 0.0
    for g in range(M - 1):  # the last generator has no partner after it
        i, j = divmod(g, N)
        own = slice(start[g], start[g + 1])
        probe = np.concatenate((col[own], row[own] + d))
        src, at = join(probe, table_start, first[probe * M + g + 1])
        left_key = np.concatenate((row[own] * d, col[own]))
        left_val = np.concatenate((val[own], val[own]))
        # +a_il lands on h = (j, l), its own index plus (j - i)N, and -a_kj
        # on h = (k, i), its own index plus i - j; each is kept where h > g.
        lowest = min(max(g + 1 - (j - i) * N, i * N), (i + 1) * N)
        plus = slice(start[lowest], start[(i + 1) * N])
        minus = with_second[j]
        minus = minus[np.searchsorted(gen[minus], g + 1 + j - i):]
        keys = np.concatenate((table_key[at] + left_key[src],
                               key[plus] + (j - i) * N * d * d,
                               key[minus] + (i - j) * d * d))
        vals = np.concatenate((table_val[at] * left_val[src], val[plus], -val[minus]))
        n_ab = int(np.searchsorted(src, start[g + 1] - start[g]))  # terms of a_g a_h first
        channel = np.repeat([0, 1, 2], [n_ab, len(src) - n_ab, len(keys) - len(src)])
        entries, inverse = np.unique(keys, return_inverse=True)
        size = len(entries)
        sums = np.bincount(inverse + channel * size, weights=vals,
                           minlength=3 * size).reshape(3, size)
        sums[1] = sums[0] - sums[1]  # lhs = a_g a_h - a_h a_g
        sums[0] = sums[1] - sums[2]  # lhs - rhs
        residual, lhs_max, rhs_max = np.abs(sums).max(axis=1, initial=0.0)
        worst = max(worst, residual)
        scale = max(scale, lhs_max, rhs_max)
    report.add_residual(
        f"defining relations on {format_weight(rep.weight)}, worst of {N ** 4} generator pairs",
        worst, tol.threshold(scale))
    return report


def suite_identity(rep: Representation, tol: Tolerance) -> VerificationReport:
    report = VerificationReport("identity")
    for kind in (KIND_A, KIND_ABAR):
        cm = build_char_matrix(rep, kind)
        spectrum = char_roots(rep.weight, kind)
        for check in verify_identity(cm, spectrum, tol):
            report.add_residual(f"{check.description} on {format_weight(rep.weight)}",
                                check.residual, check.threshold)
    return report


def suite_projectors(rep: Representation, tol: Tolerance) -> VerificationReport:
    """Projector algebra, checked block by block on the characteristic
    matrix's diagonal blocks.  Projectors of absent roots are exactly zero,
    so their products add nothing to the maxima and are skipped."""
    report = VerificationReport("projectors")
    for kind in (KIND_A, KIND_ABAR):
        cm = build_char_matrix(rep, kind)
        spectrum = char_roots(rep.weight, kind)
        projectors = [build_projector(cm, spectrum, r)
                      for r in range(1, rep.N + 1)]
        present = [p.blocks.stacks for p in projectors if p.root.multiplicity > 0]
        scale = max(p.blocks.max_abs() for p in projectors)
        idem = max(max_abs(s @ s - s) for stacks in present for s in stacks)
        report.add_residual(
            f"idempotency, kind {kind} on {format_weight(rep.weight)}",
            idem, tol.threshold(scale * scale))
        ortho = 0.0
        for a, b in itertools.combinations(present, 2):
            ortho = max(ortho, *(max_abs(s @ t) for s, t in zip(a, b)))
        report.add_residual(
            f"mutual orthogonality, kind {kind} on {format_weight(rep.weight)}",
            ortho, tol.threshold(scale * scale))
        completeness = 0.0
        for index, *stacks in zip(cm.blocks.index, *(p.blocks.stacks for p in projectors)):
            total = sum(stacks)
            diag = np.arange(index.shape[1])
            total[:, diag, diag] -= 1.0
            completeness = max(completeness, max_abs(total))
        report.add_residual(
            f"completeness (sum equals identity), kind {kind} on {format_weight(rep.weight)}",
            completeness, tol.threshold(scale))
        ranks_ok = all(p.rank == p.root.multiplicity for p in projectors)
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

    cm_bar = build_char_matrix(rep, KIND_ABAR)
    spectrum_bar = char_roots(lam, KIND_ABAR)
    corner = 0.0
    corner_scale = 1.0
    for k in range(1, rep.N + 1):
        proj = build_projector(cm_bar, spectrum_bar, k)
        block = proj.blocks.window(n * d, rep.N * d)
        expected = np.diag(cbar_diagonal(rep, k))
        corner = max(corner, max_abs(block - expected))
        corner_scale = max(corner_scale, max_abs(block), max_abs(expected))
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
    norm_resid = 0.0
    norm_scale = 1.0
    for sc in shift_contractions(rep, psi, range(1, n + 1)):
        r, comps = sc.r, sc.components
        report.add_residual(
            f"shift component contractions agree, r={r} on {format_weight(lam)}",
            sc.contraction_residual, tol.threshold(max_abs(comps)))
        report.add_residual(
            f"shift component supports only the +D_{r} weight shift on {format_weight(lam)}",
            sc.support_residual, tol.threshold(1.0))
        total += comps
        for stacked, projector, bar in ((comps.reshape(n * d, d), sc.p, True),
                                        (comps.swapaxes(1, 2).reshape(n * d, d), sc.pbar, False)):
            resid, scale = _cleared_residual(
                stacked @ stacked.T, projector, *norm_invariant_diagonals(rep, r, bar=bar))
            norm_resid = max(norm_resid, resid)
            norm_scale = max(norm_scale, scale)
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
    squares = [elementary_squares_from_invariants(rep, r) for r in range(1, n + 1)]
    nums = np.stack([p for p, _ in squares], axis=1)
    dens = np.stack([q for _, q in squares], axis=1)
    admissible = np.zeros((d, n), dtype=bool)
    admissible[cols, move] = True
    stored_rows, stored_cols, stored_nums, stored_dens = rep._ladders[n]
    stored = dict(zip(zip(stored_rows.tolist(), stored_cols.tolist()),
                      zip(stored_nums.tolist(), stored_dens.tolist())))
    actual = np.array([stored.get(key, (0, 1)) for key in zip(rows.tolist(), cols.tolist())],
                      dtype=object).reshape(-1, 2)
    exact_ok = (not np.any(nums[~admissible] != 0)
                and _same_ratios(nums[cols, move], dens[cols, move], actual[:, 0], actual[:, 1]))
    report.add_exact(
        f"squared ladder coefficients equal M*Cbar products exactly, "
        f"all {rep.dim} states of {lam}", exact_ok)
    return report


def _cleared_residual(gram: np.ndarray, projector, num: np.ndarray, den: np.ndarray
                      ) -> tuple[float, float]:
    """max |den gram - num projector| and the larger of the two sides'
    largest entries, where num and den (one value per basis vector of the
    d-dimensional module) scale the rows of every d x d block.  gram is
    overwritten; the projector (Blocks) is zero off its blocks."""
    d = len(den)
    slabs = gram.reshape(-1, d, gram.shape[1])  # a view, one slab per block row
    slabs *= den[:, None]
    scale = max(gram.max(), -gram.min())
    for index, stack in zip(projector.index, projector.stacks):
        rhs = num[index % d][:, :, None] * stack
        scale = max(scale, max_abs(rhs))
        if projector.whole:
            gram -= rhs[0]
        else:
            gram[index[:, :, None], index[:, None, :]] -= rhs
    return float(np.abs(gram, out=gram).max()), float(scale)


def _same_ratios(p, q, s, t) -> bool:
    """p/q == s/t entry by entry, by exact cross-multiplication: in int64
    while no product can reach 2**63, in Python ints otherwise."""
    big = max(int(np.abs(a).max(initial=0)) for a in (p, q, s, t))
    dtype = np.int64 if big * big < 2 ** 63 else object
    p, q, s, t = (a.astype(dtype) for a in (p, q, s, t))
    return bool(np.all(p * t == s * q))


def suite_melcross(rep: Representation, tol: Tolerance) -> VerificationReport:
    """Closed product-form magnitudes against the commutator-built entries
    for every generator a_{l,j} with j - l >= 2."""
    report = VerificationReport("melcross")
    if rep.N < 3:
        raise DomainError("cross-check needs gl(N) with N >= 3")
    for l in range(1, rep.N - 1):
        for j in range(l + 2, rep.N + 1):
            actual = np.abs(rep.gen(l, j))
            expected = nonelementary_magnitudes(rep, l, j - 1)
            resid = max_abs(actual - expected)
            report.add_residual(
                f"|a_{l},{j}| entries match the product form on {format_weight(rep.weight)}",
                resid, tol.threshold(max(max_abs(actual), max_abs(expected))))
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
    """Dispatch one named suite and stamp its wall-clock duration."""
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
        # suite_<name> is looked up when it runs, so that a suite replaced on
        # this module after import (perfbench/spans.py wraps them) is the one run.
        report = globals()[f"suite_{name}"](rep, tol)
    report.duration_ms = (time.perf_counter() - start) * 1000.0
    return report
