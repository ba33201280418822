"""Characteristic matrices of gl(n) modules: polynomial identities, spectral
projectors, shift components of vector operators, and the subalgebra
invariants attached to them.

Two constructions coexist.  On an irreducible module the characteristic
roots are scalars and projectors are Lagrange products with scalar nodes.
Restricted to the gl(n) subalgebra of a gl(n+1) module the roots become
diagonal operators (functions of the row-n pattern labels), and the same
Lagrange products with operator nodes project onto branch components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .kernel import (
    KIND_A,
    KIND_ABAR,
    ConsistencyError,
    DegenerateRootError,
    DomainError,
    SchurViolationError,
    Tolerance,
    Triplets,
    freeze,
    max_abs,
    rationalize,
)
from .glrep import (
    Representation,
    _cancelled_ratio,
    _exact_products,
    casimir_eigenvalue_formula,
    gl_block_entries,
    gl_block_matrix,  # unused here, kept as a name the benchmark's tracer wraps
)
from .gtbasis import (
    Weight,
    check_highest_weight,
    dimension,  # unused here, kept as a name the benchmark's tracer wraps
    is_dominant,
    offset_dimension,
    pattern_table,
    pattern_weight,  # unused here, kept as a name the benchmark's tracer wraps
    row_starts,
    rows_interlace,
    table_weights,
    weight,
)
from .blocks import Blocks, ordered_product, split_layout, subtract_node

KIND_GENERAL = "general"


@dataclass(frozen=True)
class Root:
    """One characteristic root: exact value, the constituent highest weight
    it belongs to (None when merged or unresolved) and the dimension of its
    eigenspace (0 marks a root absent from the module)."""

    value: Fraction
    constituent: Weight | None
    multiplicity: int


@dataclass(frozen=True)
class CharMatrix:
    kind: str
    weight: Weight
    blocks: Blocks

    @cached_property
    def big(self) -> np.ndarray:
        """The whole matrix, assembled from the blocks on first use: a dense
        view for tests and callers, which no check of charid reads."""
        return self.blocks.dense()


@dataclass(frozen=True)
class Projector:
    """The r-th root's eigenspace projector; its rank is round(blocks.trace())."""

    r: int
    root: Root
    blocks: Blocks


@dataclass(frozen=True)
class CheckRecord:
    """One check of a verification report: a residual against its
    threshold, or an exact yes or no."""

    description: str
    passed: bool
    residual: float | None = None
    threshold: float | None = None
    exact: bool = False


def vector_weight(n: int) -> Weight:
    return weight((1,) + (0,) * (n - 1))


def dual_vector_weight(n: int) -> Weight:
    return weight((0,) * (n - 1) + (-1,))


def _roots(labels) -> list[Fraction]:
    """lam_j + n - j for the n labels of a weight or a pattern row."""
    n = len(labels)
    return [labels[j - 1] + (n - j) for j in range(1, n + 1)]


def _bar_roots(labels) -> list[Fraction]:
    """j - 1 - lam_j for the labels of a weight."""
    return [Fraction(j - 1) - labels[j - 1] for j in range(1, len(labels) + 1)]


def _shifted(lam: Weight, k: int, step: int) -> Weight:
    return lam[:k - 1] + (lam[k - 1] + step,) + lam[k:]


class DualVectorRep:
    """Dual of the defining representation, a(i,j) -> -e_ji.

    Using this realisation (rather than a pattern-basis build of the weight
    (0,...,0,-1)) makes the coproduct construction reproduce the plain
    characteristic matrix entry by entry, not merely up to basis change.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DomainError("dual vector representation needs n >= 1")
        self.N = n
        self.dim = n
        self.weight = dual_vector_weight(n)

    def triplets(self, i: int, j: int) -> Triplets:
        """The single entry -1 of a(i,j) at (j, i) (1-based indices)."""
        return Triplets(np.array([j - 1]), np.array([i - 1]), np.array([-1.0]))


def build_char_matrix(rep: Representation, kind: str, aux=None) -> CharMatrix:
    """Assemble the characteristic matrix of a built representation.

    kind "A": block (i,j) = a_{ij}.  kind "Abar": block (i,j) = -a_{ji}.
    kind "general": aux supplies an auxiliary representation (Representation
    or DualVectorRep) and the matrix is -sum_ij aux(a_ij) (x) rep(a_ji),
    the operator the quadratic Casimir coproduct produces.  Its terms
    aux(a_ij)[a, c] rep(a_ji)[r, s] at (a d + r, c d + s) are summed per
    position in generator order, as the Kronecker products would be added
    up, and exact zeros are dropped.

    Kinds A and Abar read their split block layout from the module, which
    finds it on the first call for each kind and keeps it (only the
    layout: the values are scattered anew on every call).
    """
    if kind in (KIND_A, KIND_ABAR):
        return CharMatrix(kind, rep.weight, Blocks.from_entries(
            *gl_block_entries(rep, kind), layout=partial(rep._kept, kind, split_layout)))
    if kind != KIND_GENERAL:
        raise DomainError(f"unknown characteristic matrix kind {kind!r}")
    if aux is None:
        raise DomainError("general kind needs an auxiliary representation")
    if aux.N != rep.N:
        raise DomainError("auxiliary representation must share the algebra size")
    d, size = rep.dim, aux.dim * rep.dim
    keys, values = [], []
    for i, j in rep.generator_labels():
        a_rows, a_cols, a_values = aux.triplets(i, j)
        rows, cols, rep_values = rep.triplets(j, i)
        keys.append(((a_rows[:, None] * d + rows) * size + a_cols[:, None] * d + cols).ravel())
        values.append(np.multiply.outer(a_values, rep_values).ravel())
    entries, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    sums = -np.bincount(inverse, weights=np.concatenate(values), minlength=len(entries))
    keep = sums != 0
    rows, cols = np.divmod(entries[keep], size)
    return CharMatrix(kind, rep.weight, Blocks.from_entries(rows, cols, sums[keep], size))


def general_root_candidates(lam, mu) -> dict[Fraction, tuple[Weight, ...]]:
    """Candidate roots of the coproduct matrix, keyed by exact value.

    Candidates are lam + w over the weights w of V(mu), kept when dominant;
    the value is -(chi_nu - chi_mu - chi_lam)/2 in quadratic Casimir
    eigenvalues.  Distinct constituents may share a value, hence the tuple.
    """
    lam = check_highest_weight(lam)
    mu = check_highest_weight(mu)
    if len(lam) != len(mu):
        raise DomainError("lam and mu must belong to the same gl(n)")
    chi_lam = casimir_eigenvalue_formula(lam, 2)
    chi_mu = casimir_eigenvalue_formula(mu, 2)
    # The weights of V(mu) minus mu_n, each once, in basis order.
    offsets = dict.fromkeys(map(tuple, table_weights(pattern_table(mu), len(mu)).tolist()))
    out: dict[Fraction, list[Weight]] = {}
    for w in offsets:
        nu = tuple(a + mu[-1] + b for a, b in zip(lam, w))
        if not is_dominant(nu):
            continue
        value = -(casimir_eigenvalue_formula(nu, 2) - chi_mu - chi_lam) / 2
        out.setdefault(value, []).append(nu)
    return {v: tuple(nus) for v, nus in out.items()}


def char_roots(lam, kind: str, mu=None, cm: CharMatrix | None = None) -> tuple[Root, ...]:
    """Exact characteristic roots with constituent labels and multiplicities.

    For kinds "A"/"Abar" the multiplicity is the Weyl dimension of the
    shifted constituent, or 0 when the shift leaves the dominant cone (the
    root is then absent from the module's minimal polynomial).  For the
    general kind, candidates are pruned against the numerically observed
    spectrum of the supplied (or freshly built) matrix, within the default
    Tolerance; equal candidate values merge into one root.
    """
    lam = check_highest_weight(lam)
    if kind in (KIND_A, KIND_ABAR):
        values, step = ((_roots(lam), -1) if kind == KIND_A
                        else (_bar_roots(lam), +1))
        # Each constituent is lam with one label moved: its dominance and
        # dimension come from the integer offsets, with no revalidation.
        offsets = [int(x - lam[-1]) for x in lam]
        out = []
        for j, value in enumerate(values, start=1):
            moved = offsets.copy()
            moved[j - 1] += step
            mult = offset_dimension(moved) if is_dominant(moved) else 0
            out.append(Root(value, _shifted(lam, j, step), mult))
        return tuple(out)
    if kind != KIND_GENERAL:
        raise DomainError(f"unknown characteristic matrix kind {kind!r}")
    if mu is None:
        raise DomainError("general kind needs the auxiliary highest weight mu")
    candidates = general_root_candidates(lam, mu)
    if cm is None:
        cm = build_char_matrix(Representation(lam), KIND_GENERAL,
                               aux=Representation(mu))
    # The coproduct matrix is symmetric, and so is each of its blocks.
    eigenvalues = np.sort(np.concatenate(
        [np.linalg.eigvalsh(stack).ravel() for stack in cm.blocks.stacks]))
    atol = Tolerance().threshold(max_abs(eigenvalues))
    out = []
    for value in sorted(candidates):
        count = int(np.sum(np.abs(eigenvalues - float(value)) <= atol))
        if count == 0:
            continue
        nus = candidates[value]
        out.append(Root(value, nus[0] if len(nus) == 1 else None, count))
    matched = sum(root.multiplicity for root in out)
    if matched != eigenvalues.size:
        unmatched = [
            float(e) for e in eigenvalues
            if all(abs(e - float(v)) > atol for v in candidates)
        ]
        raise ConsistencyError(
            f"observed spectrum is not contained in the candidate root set; "
            f"unmatched eigenvalues {unmatched[:5]}"
        )
    return tuple(out)


def _blocked_product(blocks: Blocks, nodes, with_scale: bool = False):
    """Ordered product of the factors (blocks - node), left to right, on
    each stack of equal-size blocks by ordered_product, as Blocks.

    A node is a scalar root (an exact Fraction, converted to float once
    here, not once per stack), subtracted from every diagonal entry.  No
    nodes give the identity.  With with_scale, returns (product, the
    largest absolute entry of any factor over all stacks, 0 for no
    nodes): the scale of an identity's residual.
    """
    nodes = [float(node) for node in nodes]
    scales = [] if with_scale else None
    product = blocks.like([ordered_product(stack, nodes, scales=scales)
                           for stack in blocks.stacks])
    return (product, max_abs(scales)) if with_scale else product


def identity_residual(blocks: Blocks, values, tol: Tolerance) -> tuple[float, float]:
    """Residual and threshold of a characteristic identity: the largest
    entry of the ordered product of (blocks - value) over values, and the
    tolerance's threshold at the largest entry of any factor."""
    product, scale = _blocked_product(blocks, values, with_scale=True)
    return product.max_abs(), tol.threshold(scale)


def verify_identity(cm: CharMatrix, spectrum, tol: Tolerance | None = None
                    ) -> list[CheckRecord]:
    """Residuals of the polynomial identity prod(cm - value) over the roots.

    Equal root values are merged into a single factor; factors are applied
    in ascending root order so reports are bit-stable.  For one- and
    two-label weights of kind "A" the low-rank closed forms in the Casimir
    eigenvalues are checked as well.
    """
    tol = tol or Tolerance()
    values = sorted({root.value for root in spectrum})
    residual, threshold = identity_residual(cm.blocks, values, tol)
    reports = [CheckRecord(
        f"characteristic identity, kind {cm.kind}, {len(values)} distinct roots",
        residual <= threshold, residual, threshold)]
    if cm.kind != KIND_A or len(cm.weight) > 2:
        return reports
    a = cm.blocks
    sigma1 = casimir_eigenvalue_formula(cm.weight, 1)
    if len(cm.weight) == 1:
        form, scale = _blocked_product(a, [sigma1]), a.max_abs()
        name = "rank-1 closed form: A - sigma1"
    else:
        sigma2 = casimir_eigenvalue_formula(cm.weight, 2)
        const = (sigma1 * sigma1 + sigma1 - sigma2) / 2
        # A^2 - (sigma1+1) A, then + const on the diagonal as - (-const).
        square = _blocked_product(a, [0, 0])
        form = _blocked_product(a.like(q - float(sigma1 + 1) * s
                                       for q, s in zip(square.stacks, a.stacks)), [-const])
        scale = max_abs([square.max_abs(), a.max_abs()])
        name = "rank-2 closed form: A^2 - (sigma1+1) A + (sigma1^2+sigma1-sigma2)/2"
    res, thr = form.max_abs(), tol.threshold(scale)
    reports.append(CheckRecord(name, res <= thr, res, thr))
    return reports


def casimir_sigma(rep: Representation, order: int,
                  tol: Tolerance | None = None) -> Fraction:
    """Eigenvalue of the order-M Casimir trace on the module.

    Takes the M-th power of the kind-A characteristic matrix on its blocks
    and its block partial trace, the sum of its d x d diagonal blocks, read
    from the block entries whose two states share a block row; checks the
    trace is scalar (Schur) and rounds it to an exact rational.
    """
    if order < 1:
        raise DomainError(f"Casimir order must be >= 1, got {order}")
    tol = tol or Tolerance()
    d = rep.dim
    if not np.isfinite(rep.entries.values).all():
        raise DomainError(f"the generators of {rep.weight} have non-finite entries")
    powered = _blocked_product(build_char_matrix(rep, KIND_A).blocks, [0] * order)
    if not all(np.isfinite(stack).all() for stack in powered.stacks):
        raise DomainError(f"the order-{order} power on {rep.weight} has non-finite entries")
    traced = np.zeros((d, d))
    for index, stack in zip(powered.index, powered.stacks):
        rows, cols = np.broadcast_arrays(index[:, :, None], index[:, None, :])
        same = rows // d == cols // d
        np.add.at(traced, (rows[same] % d, cols[same] % d), stack[same])
    scalar = float(np.trace(traced)) / d
    deviation = traced - scalar * np.eye(d)
    if max_abs(deviation) > tol.threshold(powered.max_abs()):
        raise SchurViolationError(
            f"order-{order} Casimir is not scalar on {rep.weight}: "
            f"max deviation {max_abs(deviation)}"
        )
    return rationalize(scalar, tol)


def _lagrange_stacks(cm: CharMatrix, spectrum):
    """The Lagrange projectors of the m present roots of spectrum
    (multiplicity > 0) in lockstep: one (m, k, b, b) stack per stack of
    cm's blocks, made as the caller takes it, entry r - 1 holding the
    blocks of the r-th present root's projector.  The present root values
    v_1, ..., v_m must be pairwise distinct.  With F_l = cm - v_l, the
    projector of v_r is (F_1 ... F_{r-1})(F_{r+1} ... F_m) divided once by
    the exact prod_{l != r} (v_r - v_l).
    """
    values = [root.value for root in spectrum if root.multiplicity > 0]
    if len(set(values)) != len(values):
        raise DegenerateRootError(
            f"repeated root values in spectrum: {sorted(map(str, values))}")
    scales = np.array([float(math.prod((v - w for w in values if w != v), start=Fraction(1)))
                       for v in values])[:, None, None, None]
    nodes = [float(v) for v in values]
    for stack in cm.blocks.stacks:
        out = _lagrange_products(stack, nodes, np.empty((len(nodes),) + stack.shape))
        out /= scales
        yield out


def _lagrange_products(stack: np.ndarray, nodes: list[float], out: np.ndarray) -> np.ndarray:
    """prod_{l != r} (stack - nodes[l]) into out[r] for every r, each a
    product of the factors in node order, from prefix and suffix products:
    3m - 6 batched matmuls, where ordered_product in lockstep would take
    m(m - 2).  The two agree bit for bit for m <= 3, every benchmark job;
    the lockstep loop took (4,3,2,1,0)'s projectors suite from 26-27 to
    34-38 ms and its invariants suite from 51-56 to 57-64 ms in process,
    and moved the last bits of the m >= 4 payloads.  stack is (k, b, b)
    and out (m, k, b, b); one node gives the identity.
    """
    m, shape = len(nodes), stack.shape
    if m == 1:
        out[0] = np.eye(shape[-1])
        return out
    factor = np.empty(shape)
    # The prefix F_0 ... F_l is held in out[l] until out[l + 1] is made
    # from it; the last, F_0 ... F_{m-2}, is made in out[m - 1].
    subtract_node(stack, nodes[0], out[0] if m > 2 else out[1])
    for l in range(1, m - 1):
        np.matmul(out[l - 1], subtract_node(stack, nodes[l], factor),
                  out=out[l] if l < m - 2 else out[m - 1])
    # The suffix F_{r+1} ... F_{m-1} for the r below; the last, r = 0, is
    # made in out[0].
    suffix = subtract_node(stack, nodes[m - 1], out[0] if m == 2 else np.empty(shape))
    for r in range(m - 2, 0, -1):
        np.matmul(out[r - 1], suffix, out=out[r])
        suffix = np.matmul(subtract_node(stack, nodes[r], factor), suffix,
                           out=out[0] if r == 1 else None)
    return out


def build_projector(cm: CharMatrix, spectrum, r: int) -> Projector:
    """Lagrange projector onto the eigenspace of the r-th root (1-based):
    its view of _lagrange_stacks, or zero blocks for an absent root."""
    spectrum = tuple(spectrum)
    if not 1 <= r <= len(spectrum):
        raise DomainError(f"root index {r} outside 1..{len(spectrum)}")
    stacks, root = list(_lagrange_stacks(cm, spectrum)), spectrum[r - 1]
    at = sum(other.multiplicity > 0 for other in spectrum[:r - 1])
    parts = ([s[at] for s in stacks] if root.multiplicity
             else map(np.zeros_like, cm.blocks.stacks))
    return Projector(r, root, cm.blocks.like(parts))


# ---------------------------------------------------------------------------
# Operator-valued roots on the gl(n) restriction of a gl(n+1) module.

def restricted_projector(rep: Representation, level: int, r: int,
                         kind: str) -> np.ndarray:
    """Projector component of the subalgebra characteristic matrix, as a
    dense matrix: entry r - 1 of _restricted_projectors.

    The interpolation nodes are diagonal operators built from the row-level
    pattern labels; they commute with the subalgebra blocks, and within each
    branch component the node values are pairwise distinct, so the product
    is well defined on the whole (reducible) restriction.
    """
    if not 1 <= r <= level:
        raise DomainError(f"component index {r} outside 1..{level}")
    from .shifts import _restricted_matrices, _restricted_projectors  # on first use (see charid.shifts)

    if kind not in (KIND_A, KIND_ABAR):
        raise DomainError(f"unknown kind {kind!r}")
    projectors = _restricted_projectors(*_restricted_matrices(rep, level)[kind == KIND_ABAR])
    return projectors.like(stack[r - 1] for stack in projectors.stacks).dense()


@dataclass(eq=False, repr=False)  # a frozen dataclass adds 1 ms to the import
class ShiftContraction:
    """The r-th shift component of the raising column psi_j = a_{j,n+1} of
    a gl(n+1) module of dimension d, on the restricted projectors held as
    blocks.

    components[j - 1] is psi[n;r]_j = sum_i psi_i Pbar[n;r]_ij, an (n, d, d)
    array.  The contraction residual is its largest disagreement with the
    other route, sum_i P[n;r]_ji psi_i; the support residual is the largest
    entry of the components off the shift mu -> mu + D_r of row n.
    """

    r: int
    components: np.ndarray
    p: Blocks
    pbar: Blocks
    contraction_residual: float
    support_residual: float


def shift_components(rep: Representation, r: int) -> ShiftContraction:
    """Project the vector operator psi_j = a_{j,n+1} onto its r-th
    component: the batch of ShiftBatch for this one r, with the components
    scattered into a dense (n, d, d) array.

    Both contraction routes are computed, psi_i Pbar[n;r]_{ij} and
    P[n;r]_{ji} psi_i; their disagreement and the off-shift support (entries
    connecting row-n weights other than mu -> mu + D_r) are reported as
    residuals.  The restricted projectors P[n;r] and Pbar[n;r] are handed
    back as blocks p and pbar.
    """
    from .shifts import ShiftBatch  # on first use (see charid.shifts)

    batch = ShiftBatch(rep)
    if not 1 <= r <= batch.n:
        raise DomainError(f"component index {r} outside 1..{batch.n}")
    (comps,), (other,) = batch.sums(slice(r - 1, r))
    off = batch.key_steps != batch.steps[r - 1]
    dense = np.zeros(batch.n * batch.d * batch.d)
    dense[batch.keys] = comps
    p, pbar = (blocks.like(stack[r - 1] for stack in blocks.stacks)
               for blocks in (batch.p, batch.pbar))
    return ShiftContraction(r, dense.reshape(batch.n, batch.d, batch.d), p, pbar,
                            max_abs(comps - other), max_abs(comps[off]))


# ---------------------------------------------------------------------------
# Invariants of the gl(n) < gl(n+1) pair.

def _check_branch_pair(lam_top, lam_sub) -> tuple[Weight, Weight]:
    lam_top = check_highest_weight(lam_top)
    lam_sub = check_highest_weight(lam_sub)
    if len(lam_sub) != len(lam_top) - 1:
        raise DomainError("branch weight must have one label fewer")
    if not rows_interlace(lam_top, lam_sub):
        raise DomainError(f"{lam_sub} is not a branch of {lam_top}")
    return lam_top, lam_sub


class _InvariantLayout(NamedTuple):
    """Read-only factor templates of the closed forms of the gl(N-1) <
    gl(N) pair, the same for every module of gl(N).

    A pattern's roots are those of its rows N, n = N - 1 and n - 1, in that
    order (_roots of each).  Each factor is roots[a] - roots[b] + c for a
    template (a, b, c); factors, (forms, 2, width, 3), holds every form's
    numerator and denominator factors, padded with the factor 1 to one
    more than the widest, and signs each form's sign.  The forms are, with
    tops, subs and lows the roots of the three rows and k, r the form's
    index:
    - C_{k,n+1}: prod_a (tops_k - 1 - subs_a) / prod_{p != k} (tops_k -
      tops_p), and Cbar_{k,n+1} with tops_k for tops_k - 1, k = 1..N each;
    - M_{r,n}: (-1)^n prod_q (tops_q - subs_r - 1) / prod_{l != r} (subs_r +
      1 - subs_l), and Mbar_{r,n}: (-1)^n prod_q (tops_q - subs_r) /
      prod_{l != r} (subs_r - 1 - subs_l), r = 1..n each;
    - MCbar_r: M_{r,n} times Cbar_{r,n} of rows n and n - 1, prod_a (subs_r
      - lows_a) / prod_{p != r} (subs_r - subs_p), the promised square of
      the top-level ladder coefficient.
    Each row holds the factor lists of _c_factors and _m_factors, the
    scalar forms' own, in their order.
    forms holds the slice of forms of each name; columns and offsets give
    the roots of a pattern table row as table[:, columns] + offsets.
    """

    forms: dict
    signs: np.ndarray
    factors: np.ndarray
    columns: np.ndarray
    offsets: np.ndarray


@lru_cache(maxsize=64)
def _invariant_layout(N: int) -> _InvariantLayout:
    """The _InvariantLayout of gl(N - 1) < gl(N)."""
    n = N - 1
    top, sub, low = range(N), range(N, N + n), range(N + n, N + 2 * n - 1)
    forms, signs, factors = {}, [], []

    def add(name, sign, rows):
        forms[name] = slice(len(signs), len(signs) + len(rows))
        signs.extend([sign] * len(rows))
        factors.extend(rows)

    sign = -1 if n % 2 else 1
    for name, c in (("C", -1), ("Cbar", 0)):
        add(name, 1, [([(k, a, c) for a in sub], [(k, p, 0) for p in top if p != k])
                      for k in top])
    for name, c in (("M", 1), ("Mbar", -1)):
        add(name, sign, [([(q, r, -(c > 0)) for q in top], [(r, l, c) for l in sub if l != r])
                         for r in sub])
    add("MCbar", sign, [([(q, r, -1) for q in top] + [(r, a, 0) for a in low],
                         [(r, l, 1) for l in sub if l != r] + [(r, p, 0) for p in sub if p != r])
                        for r in sub])
    width = max(len(part) for row in factors for part in row) + 1
    starts = row_starts(N)
    levels = [(level, i) for level in (N, n, n - 1) for i in range(level)]
    return _InvariantLayout(
        forms=forms, signs=freeze(np.array(signs)),
        factors=freeze(np.array([[part + [(0, 0, 1)] * (width - len(part)) for part in row]
                                 for row in factors], dtype=np.int64).reshape(-1, 2, width, 3)),
        columns=freeze(np.array([starts[level] + i for level, i in levels], dtype=np.intp)),
        offsets=freeze(np.array([level - 1 - i for level, i in levels], dtype=np.int64)))


def _c_factors(tops, subs, k: int, bar: bool):
    """(sign, numerator, denominator) factor lists of C_{k,n+1}, or of
    Cbar_{k,n+1} when bar, from the top roots and the branch roots."""
    a = tops[k - 1]
    shifted = a if bar else a - 1
    num = [shifted - alpha for alpha in subs]
    den = [a - alpha for p, alpha in enumerate(tops, start=1) if p != k]
    return 1, num, den


def _m_factors(tops, subs, r: int, bar: bool):
    """(sign, numerator, denominator) factor lists of M_{r,n}, or of
    Mbar_{r,n} when bar, from the top roots and the branch roots."""
    a = subs[r - 1]
    num_shifted = a if bar else a + 1
    den_shifted = a - 1 if bar else a + 1
    num = [alpha - num_shifted for alpha in tops]
    den = [den_shifted - alpha for l, alpha in enumerate(subs, start=1) if l != r]
    return (-1 if len(subs) % 2 else 1), num, den


def _factor_ratio(factors, degenerate: str) -> Fraction:
    """sign * prod(num) / prod(den); a vanishing denominator factor raises
    DegenerateRootError with the given message."""
    sign, num, den = factors
    if 0 in den:
        raise DegenerateRootError(degenerate)
    return math.prod(num, start=sign) / math.prod(den)


def invariant_C_eigenvalue(lam_top, lam_sub, k: int, kind: str = "C") -> Fraction:
    """Closed-form eigenvalue of the projector corner invariant C_{k,n+1}
    (or Cbar_{k,n+1}) on the branch component lam_sub."""
    lam_top, lam_sub = _check_branch_pair(lam_top, lam_sub)
    if not 1 <= k <= len(lam_top):
        raise DomainError(f"index {k} outside 1..{len(lam_top)}")
    if kind not in ("C", "Cbar"):
        raise DomainError(f"unknown invariant kind {kind!r}")
    factors = _c_factors(_roots(lam_top), _roots(lam_sub), k, bar=kind == "Cbar")
    return _factor_ratio(factors, f"coincident characteristic roots of {lam_top}")


def invariant_M_eigenvalue(lam_top, lam_sub, r: int, kind: str = "M") -> Fraction:
    """Closed-form eigenvalue of the squared-norm invariant M_{r,n}
    (or Mbar_{r,n}) on the branch component lam_sub."""
    lam_top, lam_sub = _check_branch_pair(lam_top, lam_sub)
    if not 1 <= r <= len(lam_sub):
        raise DomainError(f"index {r} outside 1..{len(lam_sub)}")
    if kind not in ("M", "Mbar"):
        raise DomainError(f"unknown invariant kind {kind!r}")
    factors = _m_factors(_roots(lam_top), _roots(lam_sub), r, bar=kind == "Mbar")
    return _factor_ratio(
        factors, f"degenerate denominator for M invariant r={r} on {lam_sub}")


def elementary_square_from_invariants(pattern, r: int) -> Fraction:
    """<pattern| M_{r,n} Cbar_{r,n} |pattern> assembled from the invariant
    factor lists, with paired zeros cancelled.

    This is the promised square of the top-level ladder coefficient; it
    takes a different code path from the coefficient itself, so exact
    agreement is a genuine cross-check of the root conventions.
    """
    n = pattern.size - 1
    if n < 1:
        raise DomainError("needs a pattern with at least two rows")
    if not 1 <= r <= n:
        raise DomainError(f"index {r} outside 1..{n}")
    tops = _roots(pattern.row(n + 1))
    subs = _roots(pattern.row(n))
    lows = _roots(pattern.row(n - 1)) if n > 1 else []
    m_sign, m_num, m_den = _m_factors(tops, subs, r, bar=False)
    c_sign, c_num, c_den = _c_factors(subs, lows, r, bar=True)
    return _cancelled_ratio(m_sign * c_sign, m_num + c_num, m_den + c_den,
                            f"M*Cbar product r={r} on {pattern.rows}")


class InvariantTables(NamedTuple):
    """The closed forms of the invariants suite on every basis pattern,
    from its row-n labels (and row n - 1 for the squares), all exact but
    cbar and the norms; see invariant_tables."""

    branches: int  # distinct rows n
    c_sums: np.ndarray  # (d,) Python ints: sum_k C_{k,n+1} is c_sums / c_common
    c_common: int
    cbar: np.ndarray  # (N, d) floats, row k - 1 for Cbar_{k,n+1}
    norm_nums: np.ndarray  # (2, n, d) floats, [bar][r - 1] for M_{r,n} or Mbar_{r,n}
    norm_dens: np.ndarray
    square_nums: np.ndarray  # (d, n) exact M*Cbar products, column r - 1
    square_dens: np.ndarray


def invariant_tables(rep: Representation) -> InvariantTables:
    """Every closed form the invariants suite reads, in one exact batch:
    C_{k,n+1} and Cbar_{k,n+1} for every k, M_{r,n} and Mbar_{r,n} for
    every r, and the product M_{r,n} Cbar_{r,n} of
    elementary_square_from_invariants for every r, each on every basis
    pattern.

    The factors of every form come from the templates of
    _invariant_layout, the factor lists of the scalar forms
    invariant_C_eigenvalue, invariant_M_eigenvalue and
    elementary_square_from_invariants laid out once per gl(N),
    applied to the int64 roots of every pattern at once: one (patterns,
    forms, 2, width) array of numerator and denominator factors, padded
    with factors 1, which one _exact_products pass multiplies: int64 while
    no product can reach 2**53, Python ints otherwise.  Only the M*Cbar
    rows cancel paired zero factors (as _cancelled_ratios); an unmatched
    zero denominator factor raises the scalar form's error on the first
    such pattern, r before pattern.  A Cbar value is the correctly rounded
    quotient of its exact products, and M and Mbar are returned as
    numerator and denominator floats, so operator identities can be
    checked with cleared denominators where the denominator vanishes.
    The exact M*Cbar products are returned as numerators and denominators
    (int64 or Python ints, as the pass took them).
    """
    n, N, d = rep.N - 1, rep.N, rep.dim
    if n < 1:
        raise DomainError("needs a gl(n+1) module with n >= 1")
    layout = _invariant_layout(N)
    forms, F = layout.forms, len(layout.signs)
    roots = rep.table[:, layout.columns] + layout.offsets
    t = layout.factors
    factors = roots[:, t[..., 0]] - roots[:, t[..., 1]] + t[..., 2]  # (d, F, 2, width)
    squares = factors[:, forms["MCbar"]]
    zeros = squares == 0
    counts = zeros.sum(axis=3)  # (d, n, 2): zero numerator and denominator factors
    squares[zeros] = 1
    znum, zden = counts[..., 0], counts[..., 1]
    if (znum < zden).any():  # the scalar form raises on the first, r before pattern
        r, c = np.argwhere((znum < zden).T)[0]
        elementary_square_from_invariants(rep.patterns[c], int(r) + 1)
    signs = np.broadcast_to(layout.signs, (d, F)).ravel()
    factors = factors.reshape(d * F, 2, -1)
    nums, dens = _exact_products(signs, factors[:, 0], factors[:, 1])
    nums_of, dens_of = nums.reshape(d, F), dens.reshape(d, F)
    nums_of[:, forms["MCbar"]][znum > zden] = 0
    c_dens = dens_of[0, forms["C"]].tolist()
    common = math.lcm(*c_dens)
    c_sums = sum(nums_of[:, forms["C"].start + k].astype(object) * (common // den)
                 for k, den in enumerate(c_dens))
    norm = slice(forms["M"].start, forms["Mbar"].stop)
    top = rep.table[0, :N].tolist()  # the top row comes first
    return InvariantTables(
        branches=math.prod(a - b + 1 for a, b in zip(top, top[1:])),
        c_sums=c_sums, c_common=common,
        cbar=np.asarray(nums_of[:, forms["Cbar"]] / dens_of[:, forms["Cbar"]], dtype=float).T,
        norm_nums=nums_of[:, norm].T.astype(float).reshape(2, n, d),
        norm_dens=dens_of[:, norm].T.astype(float).reshape(2, n, d),
        square_nums=nums_of[:, forms["MCbar"]], square_dens=dens_of[:, forms["MCbar"]])


def norm_invariant_diagonals(rep: Representation, r: int, bar: bool
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The M (or Mbar) invariant's numerator and denominator per basis
    vector for one r, from invariant_tables."""
    tables = invariant_tables(rep)
    return tables.norm_nums[int(bar), r - 1], tables.norm_dens[int(bar), r - 1]


def cbar_diagonal(rep: Representation, k: int) -> np.ndarray:
    """The closed-form Cbar_{k,n+1} value per basis vector for one k, from
    invariant_tables."""
    return invariant_tables(rep).cbar[k - 1]
