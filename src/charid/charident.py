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
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .kernel import (
    ConsistencyError,
    DegenerateRootError,
    DomainError,
    SchurViolationError,
    Tolerance,
    Triplets,
    max_abs,
    rationalize,
)
from .glrep import (
    Representation,
    _cancelled_ratio,
    _cancelled_ratios,
    _exact_products,
    _exact_ratios,
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
    table_labels,
    table_weights,
    weight,
)

KIND_A = "A"
KIND_ABAR = "Abar"
KIND_GENERAL = "general"


@dataclass(frozen=True)
class Root:
    """One characteristic root: exact value, the constituent highest weight
    it belongs to (None when merged or unresolved) and the dimension of its
    eigenspace (0 marks a root absent from the module)."""

    value: Fraction
    constituent: Weight | None
    multiplicity: int


# Below this many rows one dense product costs less than finding the
# components and looping over their stacks, so such a matrix is held as a
# single block.  Measured on 2 vCPUs, best of 40, whole against split
# (split included).  Kind-Abar matrix with its identity and all projectors
# (scalar nodes): 72 rows 0.30/0.42 ms, 81 rows 0.35/0.55, 90 rows
# 0.44/0.38, 105 rows 0.57/0.51, 120 rows 0.70/0.38, 126 rows 0.82/0.42,
# 144 rows 1.38/0.65.  Restricted matrices with every shift contraction
# (operator nodes): 60 rows 0.65/1.04 ms, 84 rows 0.54/0.68, 96 rows
# 1.57/1.55, 100 rows 2.51/1.84, 105 rows 3.51/1.71, 108 rows 1.31/1.40,
# 120 rows 0.83/0.87, 128 rows 0.93/0.96, 135 rows 2.27/1.72, 160 rows
# 5.87/2.57.  From 100 rows on only the gl(3) and gl(4) restrictions of
# 108-128 rows (few, large blocks) are a little faster whole; the gl(5)
# and gl(6) ones, among them the benchmark's gl(6) dim-21 invariants job
# (105 restricted and 126 full rows), are up to twice as fast split.
DENSE_BELOW = 100


def _pattern_components(rows: np.ndarray, cols: np.ndarray, size: int
                        ) -> tuple[np.ndarray, ...]:
    """Connected components of the pattern of the entries (rows, cols) of a
    size x size matrix, as one (k, b) table per component size b, each row
    a component's indices in ascending order.  Every entry lies inside one
    component."""
    # Each state points at a state of its component; propagate the smallest
    # pointer along the entries and jump pointers until nothing changes.
    label = np.arange(size)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # Order the states by component size, then component, then index: each
    # run of equal sizes b is then a (k, b) table of components.
    size_of = np.bincount(label, minlength=size)[label]
    order = np.lexsort((label, size_of))
    runs = np.split(order, np.flatnonzero(np.diff(size_of[order])) + 1)
    return tuple(run.reshape(-1, size_of[run[0]]) for run in runs)


@dataclass(eq=False, repr=False)  # a frozen dataclass adds 1 ms to the import
class Blocks:
    """A square operator held as diagonal blocks.

    The blocks are the connected components of the pattern of the
    operator's nonzero (or stored) entries, or the whole matrix below
    DENSE_BELOW rows; components of equal size b are stacked, so `index`
    holds one (k, b) index array and `stacks` one (k, b, b) array per
    size.  Every entry outside the blocks is zero.
    """

    size: int
    index: tuple[np.ndarray, ...]
    stacks: tuple[np.ndarray, ...]

    @classmethod
    def from_entries(cls, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                     size: int) -> "Blocks":
        """The blocks of the size x size matrix whose entries (rows, cols)
        are values and all others zero, scattered without the dense matrix.
        No position may come twice."""
        if size < DENSE_BELOW:
            whole = np.zeros((1, size, size))
            whole[0, rows, cols] = values
            return cls(size, (np.arange(size)[None, :],), (whole,))
        index = _pattern_components(rows, cols, size)
        # All stacks are views of one flat buffer.  Each state knows where
        # its block starts in it, its place in the block and the block's
        # width, so every entry lands with one assignment.
        shapes = [i.shape + i.shape[1:] for i in index]
        starts = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        block_start, place, width = (np.empty(size, dtype=np.intp) for _ in range(3))
        for i, start in zip(index, starts):
            k, b = i.shape
            block_start[i] = start + b * b * np.arange(k)[:, None]
            place[i] = np.arange(b)
            width[i] = b
        flat = np.zeros(starts[-1])
        flat[block_start[rows] + place[rows] * width[rows] + place[cols]] = values
        return cls(size, index, tuple(flat[start:stop].reshape(shape) for shape, start, stop
                                      in zip(shapes, starts, starts[1:])))

    def like(self, stacks) -> "Blocks":
        return Blocks(self.size, self.index, tuple(stacks))

    @property
    def whole(self) -> bool:
        """One block covering the whole matrix, in index order."""
        return len(self.stacks) == 1 and self.stacks[0].shape[0] == 1

    def dense(self) -> np.ndarray:
        if self.whole:
            return self.stacks[0][0]
        out = np.zeros((self.size, self.size))
        for i, stack in zip(self.index, self.stacks):
            out[i[:, :, None], i[:, None, :]] = stack
        return out

    def corner(self, start: int) -> Triplets:
        """The block entries of the bottom-right square [start:, start:] of
        the matrix, as (row, col, value) counted from start; every other
        entry of the square is zero, and its whole diagonal is among them."""
        parts = []
        for i, stack in zip(self.index, self.stacks):
            inside = i >= start
            pick = inside[:, :, None] & inside[:, None, :]
            at = np.broadcast_to(i[:, :, None] - start, stack.shape)
            parts.append((at[pick], np.swapaxes(at, 1, 2)[pick], stack[pick]))
        return Triplets(*(np.concatenate(a) for a in zip(*parts)))

    def matmul(self, other: np.ndarray) -> np.ndarray:
        """self @ other, for a dense other with self.size rows."""
        if self.whole:
            return self.stacks[0][0] @ other
        out = np.empty((self.size,) + other.shape[1:])
        for i, stack in zip(self.index, self.stacks):
            out[i] = stack @ other[i]
        return out

    def transposed(self) -> "Blocks":
        """The transposed operator, on views of the same stacks."""
        return self.like(stack.swapaxes(1, 2) for stack in self.stacks)

    def trace(self) -> float:
        return float(sum(np.trace(s, axis1=1, axis2=2).sum() for s in self.stacks))

    def max_abs(self) -> float:
        return max_abs([max_abs(s) for s in self.stacks])


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


def alpha_roots(lam) -> list[Fraction]:
    """Roots of the plain characteristic matrix: alpha_j = lam_j + n - j."""
    return _roots(check_highest_weight(lam))


def alpha_bar_roots(lam) -> list[Fraction]:
    """Roots of the negative-transpose matrix: abar_j = j - 1 - lam_j."""
    return _bar_roots(check_highest_weight(lam))


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
    """
    if kind in (KIND_A, KIND_ABAR):
        return CharMatrix(kind, rep.weight, Blocks.from_entries(*gl_block_entries(rep, kind)))
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


def _blocked_product(blocks: Blocks, nodes, target=None, with_scale: bool = False):
    """Ordered product of the factors (blocks - node), left to right, on
    each stack of equal-size blocks as one batch, as Blocks.

    A node is a scalar root (an exact Fraction, converted to float once
    here, not once per stack), subtracted from every diagonal entry, or an
    operator root, a dense diagonal (float vector of length blocks.size)
    cut into the blocks.  A target, for operator nodes only, divides each
    partial product column-wise by its node's quotient target - node,
    which makes the product the Lagrange projector onto it; scalar nodes
    go through build_projectors.  No nodes give the identity.  With
    with_scale, returns (product, the largest absolute entry of any factor
    over all stacks, 0 for no nodes): the scale of an identity's residual.

    Each stack's factor and two product buffers are allocated once and
    reused; fresh matrices per factor left the heap up to two matrices
    larger.
    """
    quotients = None if target is None else [target - node for node in nodes]
    nodes = [node if isinstance(node, np.ndarray) else float(node) for node in nodes]
    parts, scales = [], []
    for index, stack in zip(blocks.index, blocks.stacks):
        b = stack.shape[-1]
        factor = np.empty(stack.shape)
        factor_diagonal = factor.reshape(stack.shape[:-2] + (b * b,))[..., ::b + 1]
        product = spare = None
        for k, node in enumerate(nodes):
            np.copyto(factor, stack)
            factor_diagonal -= node[index] if isinstance(node, np.ndarray) else node
            if with_scale:
                scales.append(max_abs(factor))
            if product is None:
                product, spare = factor.copy(), np.empty(stack.shape)
            else:
                product, spare = np.matmul(product, factor, out=spare), product
            if quotients is not None:
                product /= quotients[k][index][..., None, :]
        if product is None:
            product = np.empty(stack.shape)
            product[...] = np.eye(b)
        parts.append(product)
        del factor, factor_diagonal, spare  # freed before the next stack's buffers
    product = blocks.like(parts)
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


def build_projectors(cm: CharMatrix, spectrum) -> tuple[Projector, ...]:
    """Lagrange projectors onto the eigenspaces of all roots, in spectrum
    order.

    Absent roots (multiplicity 0) yield zero projectors and are excluded
    from the interpolation; the present root values v_1, ..., v_m (in
    spectrum order) must be pairwise distinct.  With F_l = cm - v_l, the
    projector of v_r is (F_1 ... F_{r-1})(F_{r+1} ... F_m) divided once by
    the exact prod_{l != r} (v_r - v_l).  Each stack of blocks takes its
    prefix and suffix products in turn, 3m - 6 batched matmuls for all m
    projectors, so only one stack's intermediates are alive at a time.
    """
    spectrum = tuple(spectrum)
    values = [root.value for root in spectrum if root.multiplicity > 0]
    if len(set(values)) != len(values):
        raise DegenerateRootError(
            f"repeated root values in spectrum: {sorted(map(str, values))}")
    scales = [float(math.prod((v - w for w in values if w != v), start=Fraction(1)))
              for v in values]
    nodes = [float(v) for v in values]
    parts = iter(zip(*(_lagrange_products(stack, nodes, scales)
                       for stack in cm.blocks.stacks)))
    return tuple(
        Projector(r, root, cm.blocks.like(
            next(parts) if root.multiplicity > 0
            else (np.zeros_like(stack) for stack in cm.blocks.stacks)))
        for r, root in enumerate(spectrum, start=1))


def _lagrange_products(stack: np.ndarray, nodes: list[float], scales: list[float]
                       ) -> list[np.ndarray]:
    """prod_{l != r} (stack - nodes[l]) / scales[r] for every r, each a
    product of the factors in node order, from prefix and suffix
    products.  stack is (k, b, b); one node gives the identity."""
    m, b = len(nodes), stack.shape[-1]

    def factor(l):
        out = stack.copy()
        out.reshape(stack.shape[:-2] + (b * b,))[..., ::b + 1] -= nodes[l]
        return out

    if m == 1:
        out = np.empty(stack.shape)
        out[...] = np.eye(b)
        return [out]
    # prefix[l] = F_0 ... F_l for l < m - 1; the last is the last projector.
    prefix = [factor(0)]
    for l in range(1, m - 1):
        prefix.append(prefix[-1] @ factor(l))
    out = [None] * m
    out[m - 1] = prefix.pop()
    suffix = factor(m - 1)  # F_{r+1} ... F_{m-1} for the r below
    for r in range(m - 2, 0, -1):
        out[r] = prefix.pop() @ suffix
        suffix = factor(r) @ suffix
    out[0] = suffix
    for product, scale in zip(out, scales):
        product /= scale
    return out


def build_projector(cm: CharMatrix, spectrum, r: int) -> Projector:
    """Lagrange projector onto the eigenspace of the r-th root (1-based):
    entry r - 1 of build_projectors."""
    spectrum = tuple(spectrum)
    if not 1 <= r <= len(spectrum):
        raise DomainError(f"root index {r} outside 1..{len(spectrum)}")
    return build_projectors(cm, spectrum)[r - 1]


# ---------------------------------------------------------------------------
# Operator-valued roots on the gl(n) restriction of a gl(n+1) module.

def _table_roots(rep: Representation, level: int) -> list[np.ndarray]:
    """_roots of row `level` of every basis pattern, one int64 column per
    label, on label offsets from lam_N: the closed forms take differences
    of roots only, so lam_N drops out of every factor."""
    start = row_starts(rep.N)[level]
    return _roots(list(rep.table[:, start:start + level].T))


def _row_labels(rep: Representation, level: int) -> np.ndarray:
    """The labels of row `level` of every basis pattern as floats, one row
    per label: (level, d)."""
    start = row_starts(rep.N)[level]
    return table_labels(rep.weight, rep.table[:, start:start + level].T, float)


def _restricted_matrix(rep: Representation, level: int, kind: str, labels: np.ndarray
                       ) -> tuple[Blocks, list[np.ndarray]]:
    """The gl(level) characteristic matrix of the restriction, held as
    blocks, and its operator nodes.  Node k is the k-th root of the
    subalgebra as a diagonal operator, read from the k-th label of each
    basis vector's row `level` (labels, from _row_labels), repeated over
    the level block rows."""
    blocks = Blocks.from_entries(*gl_block_entries(rep, kind, level=level))
    k = np.arange(1, level + 1)[:, None]
    roots = labels + (level - k) if kind == KIND_A else (k - 1) - labels
    return blocks, list(np.tile(roots, level))


def _restricted_product(blocks: Blocks, nodes: list[np.ndarray], r: int) -> Blocks:
    """The r-th restricted projector: the Lagrange product over every node
    but the r-th, which is the target."""
    return _blocked_product(blocks, nodes[:r - 1] + nodes[r:], target=nodes[r - 1])


def restricted_projector(rep: Representation, level: int, r: int,
                         kind: str) -> np.ndarray:
    """Projector component of the subalgebra characteristic matrix.

    The interpolation nodes are diagonal operators built from the row-level
    pattern labels; they commute with the subalgebra blocks, and within each
    branch component the node values are pairwise distinct, so the product
    is well defined on the whole (reducible) restriction.
    """
    if not 1 <= r <= level:
        raise DomainError(f"component index {r} outside 1..{level}")
    return _restricted_product(
        *_restricted_matrix(rep, level, kind, _row_labels(rep, level)), r).dense()


@dataclass(eq=False, repr=False)  # a frozen dataclass adds 1 ms to the import
class ShiftContraction:
    """The r-th shift component of the raising column psi_j = a_{j,n+1} of
    a gl(n+1) module of dimension d, on the restricted projectors held as
    blocks.

    components[j - 1] is psi[n;r]_j = sum_i psi_i Pbar[n;r]_ij, an (n, d, d)
    array.  The contraction residual is its largest disagreement with the
    other route, sum_i P[n;r]_ji psi_i, which is not kept; the support
    residual is the largest entry of the components off the shift
    mu -> mu + D_r of row n.
    """

    r: int
    components: np.ndarray
    p: Blocks
    pbar: Blocks
    contraction_residual: float
    support_residual: float


def raising_column(rep: Representation) -> np.ndarray:
    """psi_j = a_{j,N} for j = 1..N-1 as one (N-1, d, d) array, scattered
    from the module's triplet table."""
    psi = np.zeros((rep.N - 1, rep.dim, rep.dim))
    for j, psi_j in enumerate(psi, start=1):
        rows, cols, values = rep.triplets(j, rep.N)
        psi_j[rows, cols] = values
    return psi


def shift_contractions(rep: Representation, psi: np.ndarray, rs
                       ) -> Iterator[ShiftContraction]:
    """The ShiftContraction of each r in rs, one at a time, for the raising
    column psi = raising_column(rep).

    The restricted characteristic matrices and their operator nodes are
    built once for all r.  Each r makes its pair of projectors and two
    products on their blocks (whole-array for a single block, one batched
    product per stack of equal blocks otherwise): Pbar^T [psi_1^T; ...;
    psi_n^T], whose block j is psi[n;r]_j^T, and P [psi_1; ...; psi_n],
    block j sum_i P_ji psi_i, let go once the contraction residual is read.
    """
    n, d = rep.N - 1, rep.dim
    if n < 1:
        raise DomainError("shift components need a gl(n+1) module with n >= 1")
    psi_rows = psi.reshape(n * d, d)
    psi_cols = psi.swapaxes(1, 2).reshape(n * d, d)
    labels = _row_labels(rep, n)
    ids = _row_shift_ids(rep)
    matrix, matrix_bar = (_restricted_matrix(rep, n, kind, labels) for kind in (KIND_A, KIND_ABAR))
    for r in rs:
        if not 1 <= r <= n:
            raise DomainError(f"component index {r} outside 1..{n}")
        p = _restricted_product(*matrix, r)
        pbar = _restricted_product(*matrix_bar, r)
        components = pbar.transposed().matmul(psi_cols).reshape(n, d, d).swapaxes(1, 2)
        cross = p.matmul(psi_rows).reshape(n, d, d)
        cross -= components
        contraction = max_abs(cross)
        del cross
        yield ShiftContraction(r, components, p, pbar, contraction,
                               _support_residual(ids, r, components))


def shift_components(rep: Representation, r: int) -> ShiftContraction:
    """Project the vector operator psi_j = a_{j,n+1} onto its r-th component.

    Both contraction routes are computed, psi_i Pbar[n;r]_{ij} and
    P[n;r]_{ji} psi_i; their disagreement and the off-shift support (entries
    connecting row-n weights other than mu -> mu + D_r) are reported as
    residuals.  The restricted projectors P[n;r] and Pbar[n;r] built on the
    way are handed back as blocks p and pbar.  shift_contractions for one r.
    """
    (sc,) = shift_contractions(rep, raising_column(rep), (r,))
    return sc


def _row_shift_ids(rep: Representation) -> tuple[np.ndarray, np.ndarray]:
    """An id for the row n of each basis vector, equal for equal label
    offsets, (d,), and for each r the id of that row plus e_r, (n, d).  A
    raised row that is no branch gets an id no row n has."""
    n = rep.N - 1
    start = row_starts(rep.N)[n]
    rows_n = rep.table[:, start:start + n]
    raised = rows_n + np.eye(n, dtype=rows_n.dtype)[:, None, :]
    _, ids = np.unique(np.concatenate((rows_n[None], raised)).reshape(-1, n), axis=0,
                       return_inverse=True)
    ids = ids.reshape(n + 1, rep.dim)
    return ids[0], ids[1:]


def _support_residual(ids: tuple[np.ndarray, np.ndarray], r: int, components) -> float:
    """Largest |entry| of the components off the shift mu -> mu + D_r of
    row n: a column may reach only the rows whose id (from _row_shift_ids)
    is that of its row n + e_r."""
    row_id, raised = ids
    off_shift = row_id[:, None] != raised[r - 1][None, :]
    return max_abs(np.asarray(components)[:, off_shift])


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


def invariant_C_sums(rep: Representation) -> tuple[np.ndarray, np.ndarray, int]:
    """sum_k C_{k,n+1} on every branch of the module, exactly.

    Returns the distinct row-n label offsets (one row per branch), the
    numerator of each branch's sum (Python ints) and their common
    denominator, the lcm of the k-th factor denominators.  The factors are
    those of invariant_C_eigenvalue, on int64 root columns.
    """
    n = rep.N - 1
    starts = row_starts(rep.N)
    rows_n = rep.table[:, starts[n]:starts[n] + n]
    branches = np.array(sorted(set(map(tuple, rows_n.tolist()))), dtype=np.int64)
    tops = _roots(rep.table[0, starts[rep.N]:starts[rep.N] + rep.N].tolist())
    subs = _roots(list(branches.T))
    parts = []
    for k in range(1, rep.N + 1):
        sign, num, den = _c_factors(tops, subs, k, bar=False)
        parts.append((np.prod(np.array(num, dtype=object), axis=0, initial=sign), math.prod(den)))
    common = math.lcm(*(den for _, den in parts))
    total = sum(num * (common // den) for num, den in parts)
    return branches, total, common


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


def elementary_square_table(rep: Representation) -> tuple[np.ndarray, np.ndarray]:
    """elementary_square_from_invariants of every basis pattern and every
    r, as exact numerators and denominators (int64, or Python ints where a
    product may reach 2**53), both (d, n) with column r - 1 for r, from
    the same factor lists on the table in one exact batch."""
    n = rep.N - 1
    if n < 1:
        raise DomainError("needs a gl(n+1) module with n >= 1")
    tops, subs, lows = (_table_roots(rep, level) for level in (n + 1, n, n - 1))

    def factors(r):
        m_sign, m_num, m_den = _m_factors(tops, subs, r, bar=False)
        c_sign, c_num, c_den = _c_factors(subs, lows, r, bar=True)
        return m_sign * c_sign, m_num + c_num, m_den + c_den

    nums, dens, _, unmatched = _cancelled_ratios(
        *_stacked_columns(map(factors, range(1, n + 1)), rep.dim))
    if unmatched.any():  # the scalar form raises on the first such pattern
        r, c = divmod(int(np.flatnonzero(unmatched)[0]), rep.dim)
        elementary_square_from_invariants(rep.patterns[c], r + 1)
    return nums.reshape(n, rep.dim).T, dens.reshape(n, rep.dim).T


def _columns(factors, d: int) -> np.ndarray:
    """A list of per-pattern factor columns as one (d, len) int64 array."""
    return np.array(factors, dtype=np.int64).reshape(-1, d).T


def _stacked_columns(forms, d: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The (sign, num, den) factor lists of several closed forms that share
    their sign, each made _columns and stacked form after form: the sign
    and one (forms * d, len) int64 array each for num and den."""
    forms = list(forms)
    (sign,) = {sign for sign, _, _ in forms}
    return (sign, np.concatenate([_columns(num, d) for _, num, _ in forms]),
            np.concatenate([_columns(den, d) for _, _, den in forms]))


def norm_invariant_table(rep: Representation) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the M and Mbar invariants per basis
    vector, evaluated on each pattern's row-n labels, for every r in one
    exact batch: two (2, n, d) float arrays, [bar][r - 1].

    Returned separately so operator identities can be checked with cleared
    denominators on patterns where the denominator vanishes.
    """
    n = rep.N - 1
    tops, subs = _table_roots(rep, rep.N), _table_roots(rep, n)
    nums, dens = _exact_products(*_stacked_columns(
        (_m_factors(tops, subs, r, bar) for bar in (False, True) for r in range(1, n + 1)),
        rep.dim))
    return (nums.astype(float).reshape(2, n, rep.dim),
            dens.astype(float).reshape(2, n, rep.dim))


def norm_invariant_diagonals(rep: Representation, r: int, bar: bool
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Entry [bar][r - 1] of norm_invariant_table: the M (or Mbar)
    invariant's numerator and denominator per basis vector."""
    nums, dens = norm_invariant_table(rep)
    return nums[int(bar), r - 1], dens[int(bar), r - 1]


def cbar_diagonal_table(rep: Representation) -> np.ndarray:
    """Closed-form Cbar_{k,n+1} value per basis vector (row-n labels) for
    every k in one exact batch, (N, d) with row k - 1 for k."""
    tops, subs = _table_roots(rep, rep.N), _table_roots(rep, rep.N - 1)
    sign, num, den = _stacked_columns(
        (_c_factors(tops, subs, k, bar=True) for k in range(1, rep.N + 1)), rep.dim)
    if not den.all():
        raise DegenerateRootError(f"coincident characteristic roots of {rep.weight}")
    return _exact_ratios(sign, num, den)[2].reshape(rep.N, rep.dim)


def cbar_diagonal(rep: Representation, k: int) -> np.ndarray:
    """Row k - 1 of cbar_diagonal_table."""
    return cbar_diagonal_table(rep)[k - 1]
