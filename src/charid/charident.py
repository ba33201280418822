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
    Tolerance,
    max_abs,
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
    dimension,
    enumerate_patterns,
    is_dominant,
    pattern_weight,
    row_starts,
    rows_interlace,
    table_labels,
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
# single block.  Measured on 2 vCPUs, whole against split (split included):
# identity products 81 rows 0.09/0.26 ms, 105 rows 0.18/0.22, 120 rows
# 0.45/0.40, 144 rows 0.68/0.28; restricted projectors (operator nodes)
# 96 rows 1.0/1.4, 105 rows 2.3/1.8, 135 rows 1.0/1.3, 160 rows 4.0/1.9.
# Between 96 and 144 rows lie only the benchmark's invariants jobs on
# gl(5) dim 24, gl(6) dim 21 and gl(4) dim 45 (96, 105 and 135 restricted
# rows); dense-verify matrices have 800+ rows.  Their whole suites, every
# matrix whole against every matrix split, ranges over repeats on a shared
# 2-vCPU machine: 7.4-8.9/8.2-9.8 ms, 10.9-13.2/6.4-10.6 ms and
# 9.9-12.6/6.8-10.5 ms.
DENSE_BELOW = 128


def _components(big: np.ndarray) -> tuple[np.ndarray, ...]:
    """_pattern_components of the nonzero entries of a dense square matrix."""
    return _pattern_components(*np.nonzero(big), big.shape[0])


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
    def of(cls, big: np.ndarray) -> "Blocks":
        """Split a dense matrix into its blocks; no nonzero entry is left out."""
        size = big.shape[0]
        if size < DENSE_BELOW:
            return cls(size, (np.arange(size)[None, :],), (big[None],))
        return cls.split(big, _components(big))

    @classmethod
    def split(cls, big: np.ndarray, index) -> "Blocks":
        """Cut a dense matrix along the given (k, b) index tables."""
        return cls(big.shape[0], tuple(index),
                   tuple(big[i[:, :, None], i[:, None, :]] for i in index))

    @classmethod
    def from_entries(cls, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                     size: int) -> "Blocks":
        """The blocks of the size x size matrix whose entries (rows, cols)
        are values and all others zero, as Blocks.of gives them, scattered
        without the dense matrix.  No position may come twice."""
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

    def window(self, start: int, stop: int) -> np.ndarray:
        """The diagonal square [start:stop, start:stop] of the matrix, read
        from the blocks without assembling the rest."""
        out = np.zeros((stop - start, stop - start))
        for i, stack in zip(self.index, self.stacks):
            inside = (start <= i) & (i < stop)
            pick = inside[:, :, None] & inside[:, None, :]
            at = np.broadcast_to(i[:, :, None] - start, stack.shape)
            out[at[pick], np.swapaxes(at, 1, 2)[pick]] = stack[pick]
        return out

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
        return max((max_abs(s) for s in self.stacks), default=0.0)


@dataclass(frozen=True)
class CharMatrix:
    kind: str
    weight: Weight
    block_count: int
    block_size: int
    blocks: Blocks
    mu: Weight | None = None

    @cached_property
    def big(self) -> np.ndarray:
        """The whole matrix, assembled from the blocks on first use.  The
        suites read it only for the rank-1 and rank-2 closed forms and the
        general kind's spectrum."""
        return self.blocks.dense()


@dataclass(frozen=True)
class Projector:
    r: int
    root: Root
    blocks: Blocks

    @cached_property
    def matrix(self) -> np.ndarray:
        """The projector as a dense matrix, assembled from its blocks once."""
        return self.blocks.dense()

    @property
    def rank(self) -> int:
        return int(round(self.blocks.trace()))


@dataclass(frozen=True)
class ResidualReport:
    description: str
    residual: float
    threshold: float
    passed: bool


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
    lam = check_highest_weight(lam)
    return [Fraction(j - 1) - lam[j - 1] for j in range(1, len(lam) + 1)]


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

    def gen(self, i: int, j: int) -> np.ndarray:
        m = np.zeros((self.N, self.N))
        m[j - 1, i - 1] = -1.0
        return m


def build_char_matrix(rep: Representation, kind: str, aux=None) -> CharMatrix:
    """Assemble the characteristic matrix of a built representation.

    kind "A": block (i,j) = a_{ij}.  kind "Abar": block (i,j) = -a_{ji}.
    kind "general": aux supplies an auxiliary representation (Representation
    or DualVectorRep) and the matrix is -sum_ij aux(a_ij) (x) rep(a_ji),
    the operator the quadratic Casimir coproduct produces.
    """
    d = rep.dim
    if kind in (KIND_A, KIND_ABAR):
        blocks = Blocks.from_entries(*gl_block_entries(rep, kind))
        return CharMatrix(kind, rep.weight, rep.N, d, blocks)
    if kind == KIND_GENERAL:
        if aux is None:
            raise DomainError("general kind needs an auxiliary representation")
        if aux.N != rep.N:
            raise DomainError("auxiliary representation must share the algebra size")
        s = aux.dim
        big = np.zeros((s * d, s * d))
        for i in range(1, rep.N + 1):
            for j in range(1, rep.N + 1):
                big -= np.kron(aux.gen(i, j), rep.gen(j, i))
        return CharMatrix(kind, rep.weight, s, d, Blocks.of(big), mu=aux.weight)
    raise DomainError(f"unknown characteristic matrix kind {kind!r}")


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
    seen: dict[Weight, None] = {}
    for p in enumerate_patterns(mu):
        seen.setdefault(pattern_weight(p), None)
    out: dict[Fraction, list[Weight]] = {}
    for w in seen:
        nu = tuple(a + b for a, b in zip(lam, w))
        if not is_dominant(nu):
            continue
        value = -(casimir_eigenvalue_formula(nu, 2) - chi_mu - chi_lam) / 2
        out.setdefault(value, []).append(nu)
    return {v: tuple(nus) for v, nus in out.items()}


def char_roots(lam, kind: str, mu=None, cm: CharMatrix | None = None,
               tol: Tolerance | None = None) -> tuple[Root, ...]:
    """Exact characteristic roots with constituent labels and multiplicities.

    For kinds "A"/"Abar" the multiplicity is the Weyl dimension of the
    shifted constituent, or 0 when the shift leaves the dominant cone (the
    root is then absent from the module's minimal polynomial).  For the
    general kind, candidates are pruned against the numerically observed
    spectrum of the supplied (or freshly built) matrix; equal candidate
    values merge into one root.
    """
    lam = check_highest_weight(lam)
    if kind in (KIND_A, KIND_ABAR):
        values, step = ((alpha_roots(lam), -1) if kind == KIND_A
                        else (alpha_bar_roots(lam), +1))
        out = []
        for j, value in enumerate(values, start=1):
            nu = _shifted(lam, j, step)
            mult = dimension(nu) if is_dominant(nu) else 0
            out.append(Root(value, nu, mult))
        return tuple(out)
    if kind != KIND_GENERAL:
        raise DomainError(f"unknown characteristic matrix kind {kind!r}")
    if mu is None:
        raise DomainError("general kind needs the auxiliary highest weight mu")
    tol = tol or Tolerance()
    candidates = general_root_candidates(lam, mu)
    if cm is None:
        cm = build_char_matrix(Representation(lam), KIND_GENERAL,
                               aux=Representation(mu))
    eigenvalues = np.linalg.eigvalsh(cm.big)
    atol = tol.threshold(max_abs(eigenvalues))
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


def _root_product(big: np.ndarray, nodes, quotients=None, with_scale: bool = False):
    """Ordered product of the factors (big - node), left to right.

    big is one square matrix or a stack (k, b, b) of them, multiplied as
    one batch.  A node is a scalar root (float) or a diagonal operator root
    (float array of big's shape without its last axis); either is
    subtracted from the diagonal.  Given quotients, one per node of the
    node's shape (target - node for a target node), each partial product is
    divided column-wise by its node's quotient, which makes the product a
    Lagrange interpolation projector.  No nodes give the identity.  With
    with_scale, returns (product, the largest absolute entry of any factor,
    0 for no nodes): the scale of an identity's residual, which no
    projector needs.

    The factor and the two product buffers are allocated once and reused;
    fresh matrices per factor left the heap up to two matrices larger.
    """
    size = big.shape[-1]
    factor = np.empty(big.shape)
    factor_diagonal = factor.reshape(big.shape[:-2] + (size * size,))[..., ::size + 1]
    product = spare = None
    scale = 0.0
    for k, node in enumerate(nodes):
        np.copyto(factor, big)
        factor_diagonal -= node
        if with_scale:
            scale = max(scale, max_abs(factor))
        if product is None:
            product, spare = factor.copy(), np.empty(big.shape)
        else:
            product, spare = np.matmul(product, factor, out=spare), product
        if quotients is not None:
            quotient = quotients[k]
            product /= quotient[..., None, :] if np.ndim(quotient) else quotient
    if product is None:
        product = np.empty(big.shape)
        product[...] = np.eye(size)
    return (product, scale) if with_scale else product


def _blocked_product(blocks: Blocks, nodes, target=None, with_scale: bool = False):
    """_root_product on each stack of equal-size blocks, as Blocks, and with
    with_scale the largest factor entry over all stacks.

    Scalar nodes (exact Fractions) apply to every block; an operator node is
    a dense diagonal (float vector of length blocks.size) and is cut into
    the blocks, except for a single whole block, which is in index order.
    The scalar nodes and the quotients target - node, taken exactly, are
    converted to float once here, not once per stack.
    """
    whole = blocks.whole
    quotients = None if target is None else [_float(target - node) for node in nodes]
    nodes = [_float(node) for node in nodes]

    def cut(nodes, index):
        if whole or nodes is None:
            return nodes
        return [node[index] if isinstance(node, np.ndarray) else node for node in nodes]

    parts = [_root_product(stack, cut(nodes, index), cut(quotients, index), with_scale)
             for index, stack in zip(blocks.index, blocks.stacks)]
    if not with_scale:
        return blocks.like(parts)
    return blocks.like(product for product, _ in parts), max(scale for _, scale in parts)


def _float(node):
    """A scalar node as a float; an operator node (a float array) as it is."""
    return node if isinstance(node, np.ndarray) else float(node)


def verify_identity(cm: CharMatrix, spectrum, tol: Tolerance | None = None
                    ) -> list[ResidualReport]:
    """Residuals of the polynomial identity prod(cm - value) over the roots.

    Equal root values are merged into a single factor; factors are applied
    in ascending root order so reports are bit-stable.  For one- and
    two-label weights of kind "A" the low-rank closed forms in the Casimir
    eigenvalues are checked as well.
    """
    tol = tol or Tolerance()
    values = sorted({root.value for root in spectrum})
    d = cm.blocks.size
    product, scale = _blocked_product(cm.blocks, values, with_scale=True)
    residual = product.max_abs()
    threshold = tol.threshold(scale)
    reports = [ResidualReport(
        f"characteristic identity, kind {cm.kind}, {len(values)} distinct roots",
        residual, threshold, residual <= threshold)]
    if cm.kind == KIND_A and len(cm.weight) == 1:
        sigma1 = casimir_eigenvalue_formula(cm.weight, 1)
        res = max_abs(cm.big - float(sigma1) * np.eye(d))
        thr = tol.threshold(max_abs(cm.big))
        reports.append(ResidualReport(
            "rank-1 closed form: A - sigma1", res, thr, res <= thr))
    if cm.kind == KIND_A and len(cm.weight) == 2:
        sigma1 = casimir_eigenvalue_formula(cm.weight, 1)
        sigma2 = casimir_eigenvalue_formula(cm.weight, 2)
        const = (sigma1 * sigma1 + sigma1 - sigma2) / 2
        m = cm.big
        res = max_abs(m @ m - float(sigma1 + 1) * m + float(const) * np.eye(d))
        thr = tol.threshold(max(max_abs(m @ m), max_abs(m)))
        reports.append(ResidualReport(
            "rank-2 closed form: A^2 - (sigma1+1) A + (sigma1^2+sigma1-sigma2)/2",
            res, thr, res <= thr))
    return reports


def build_projector(cm: CharMatrix, spectrum, r: int) -> Projector:
    """Lagrange projector onto the eigenspace of the r-th root (1-based).

    Absent roots (multiplicity 0) yield the zero projector and are excluded
    from the interpolation product; the remaining root values must be
    pairwise distinct.
    """
    spectrum = tuple(spectrum)
    if not 1 <= r <= len(spectrum):
        raise DomainError(f"root index {r} outside 1..{len(spectrum)}")
    values = [root.value for root in spectrum if root.multiplicity > 0]
    if len(set(values)) != len(values):
        raise DegenerateRootError(
            f"repeated root values in spectrum: {sorted(map(str, values))}")
    target = spectrum[r - 1]
    if target.multiplicity == 0:
        return Projector(r, target, cm.blocks.like(
            np.zeros_like(stack) for stack in cm.blocks.stacks))
    nodes = [value for value in values if value != target.value]
    return Projector(r, target, _blocked_product(cm.blocks, nodes, target=target.value))


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
    """Both contraction routes of the r-th shift component of the raising
    column psi_j = a_{j,n+1} of a gl(n+1) module of dimension d, on the
    restricted projectors held as blocks.

    components[j - 1] is psi[n;r]_j = sum_i psi_i Pbar[n;r]_ij, and
    cross[j - 1] is sum_i P[n;r]_ji psi_i, both (n, d, d) arrays.  The
    residuals are those of ShiftComponents.
    """

    r: int
    components: np.ndarray
    cross: np.ndarray
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
    product per stack of equal blocks otherwise): P [psi_1; ...; psi_n],
    whose block j is cross_j, and Pbar^T [psi_1^T; ...; psi_n^T], whose
    block j is psi[n;r]_j^T.
    """
    n, d = rep.N - 1, rep.dim
    if n < 1:
        raise DomainError("shift components need a gl(n+1) module with n >= 1")
    psi_rows = psi.reshape(n * d, d)
    psi_cols = psi.swapaxes(1, 2).reshape(n * d, d)
    labels = _row_labels(rep, n)
    matrix, matrix_bar = (_restricted_matrix(rep, n, kind, labels) for kind in (KIND_A, KIND_ABAR))
    for r in rs:
        if not 1 <= r <= n:
            raise DomainError(f"component index {r} outside 1..{n}")
        p = _restricted_product(*matrix, r)
        pbar = _restricted_product(*matrix_bar, r)
        cross = p.matmul(psi_rows).reshape(n, d, d)
        components = pbar.transposed().matmul(psi_cols).reshape(n, d, d).swapaxes(1, 2)
        yield ShiftContraction(r, components, cross, p, pbar, max_abs(components - cross),
                               _support_residual(rep, r, components))


@dataclass(frozen=True)
class ShiftComponents:
    """The r-th shift components psi[n;r]_j of the raising column of a
    gl(n+1) module, with their internal consistency residuals."""

    r: int
    components: tuple[np.ndarray, ...]
    cross_components: tuple[np.ndarray, ...]
    contraction_residual: float
    support_residual: float
    p: np.ndarray
    pbar: np.ndarray


def shift_components(rep: Representation, r: int,
                     tol: Tolerance | None = None) -> ShiftComponents:
    """Project the vector operator psi_j = a_{j,n+1} onto its r-th component.

    Both contraction routes are computed, psi_i Pbar[n;r]_{ij} and
    P[n;r]_{ji} psi_i; their disagreement and the off-shift support (entries
    connecting row-n weights other than mu -> mu + D_r) are reported as
    residuals.  The restricted projectors P[n;r] and Pbar[n;r] built on the
    way are handed back as dense p and pbar.  A view of shift_contractions.
    """
    (sc,) = shift_contractions(rep, raising_column(rep), (r,))
    return ShiftComponents(r, tuple(sc.components), tuple(sc.cross),
                           sc.contraction_residual, sc.support_residual,
                           sc.p.dense(), sc.pbar.dense())


def _support_residual(rep: Representation, r: int, components) -> float:
    """Largest |entry| of the components off the shift mu -> mu + D_r of
    row n.  Each distinct row n gets an id (equal label offsets); a column
    may reach only the row whose id is that of its row n + e_r, or none
    (id -1) when that row is not a branch."""
    n = rep.N - 1
    start = row_starts(rep.N)[n]
    rows_n = rep.table[:, start:start + n]
    ids: dict[tuple, int] = {}
    row_id = np.array([ids.setdefault(row, len(ids)) for row in map(tuple, rows_n.tolist())])
    raised = rows_n.copy()
    raised[:, r - 1] += 1
    target = np.array([ids.get(row, -1) for row in map(tuple, raised.tolist())])
    off_shift = row_id[:, None] != target[None, :]
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


def elementary_squares_from_invariants(rep: Representation, r: int
                                       ) -> tuple[np.ndarray, np.ndarray]:
    """elementary_square_from_invariants(pattern, r) of every basis pattern,
    as exact numerators and denominators (int64, or Python ints where a
    product may reach 2**53), from the same factor lists on the table."""
    n = rep.N - 1
    if not 1 <= r <= n:
        raise DomainError(f"index {r} outside 1..{n}")
    subs = _table_roots(rep, n)
    m_sign, m_num, m_den = _m_factors(_table_roots(rep, n + 1), subs, r, bar=False)
    c_sign, c_num, c_den = _c_factors(subs, _table_roots(rep, n - 1), r, bar=True)
    nums, dens, _, unmatched = _cancelled_ratios(
        m_sign * c_sign, _columns(m_num + c_num, rep.dim), _columns(m_den + c_den, rep.dim))
    if unmatched.any():  # the scalar form raises on the first such pattern
        elementary_square_from_invariants(rep.patterns[np.flatnonzero(unmatched)[0]], r)
    return nums, dens


def _columns(factors, d: int) -> np.ndarray:
    """A list of per-pattern factor columns as one (d, len) int64 array."""
    return np.array(factors, dtype=np.int64).reshape(-1, d).T


def norm_invariant_diagonals(rep: Representation, r: int, bar: bool
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the M (or Mbar) invariant per basis
    vector, evaluated on each pattern's row-n labels.

    Returned separately so operator identities can be checked with cleared
    denominators on patterns where the denominator vanishes.
    """
    sign, num, den = _m_factors(_table_roots(rep, rep.N), _table_roots(rep, rep.N - 1), r, bar)
    nums, dens = _exact_products(sign, _columns(num, rep.dim), _columns(den, rep.dim))
    return nums.astype(float), dens.astype(float)


def cbar_diagonal(rep: Representation, k: int) -> np.ndarray:
    """Closed-form Cbar_{k,n+1} value per basis vector (row-n labels)."""
    sign, num, den = _c_factors(_table_roots(rep, rep.N), _table_roots(rep, rep.N - 1),
                                k, bar=True)
    den = _columns(den, rep.dim)
    if not den.all():
        raise DegenerateRootError(f"coincident characteristic roots of {rep.weight}")
    return _exact_ratios(sign, _columns(num, rep.dim), den)[2]
