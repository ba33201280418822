"""Square operators held as diagonal blocks: the connected components of
the pattern of their entries, components of equal size stacked, or the
whole matrix on a module of fewer than DENSE_BELOW rows N*d.  Every
characteristic matrix of charid, its projectors and its restrictions are
held this way, all of one module in the same layout."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import max_abs


# A module of fewer rows N*d than this holds each of its matrices, the
# characteristic matrices and their restrictions alike, as a single block:
# there one dense product costs less than finding the components and
# looping over their stacks.  A restriction does more work per row (n
# lockstep products of n - 1 factors, the shift joins and the Gram
# checks), so it gains from splitting at fewer rows of its own; reading
# both against N*d places both crossovers with one value.  Measured by
# tools/layout_sweep.py (BENCH_layout.json: 2 vCPUs, one BLAS thread,
# medians of 5 passes of 25 calls each; identity plus projectors for the
# characteristic matrices, invariants for the restrictions) on 64 gl(2)-
# gl(6) shapes, 113 matrices of 40-210 rows: 85 picks the slower layout
# for 7 of them, 6 clearly (every pass slower), and 91 and 106, the next
# values, for 9, 6 clearly.  The 6 are restrictions that read faster
# whole: the 45-row one of (44,0), 1.08 ms whole against 1.49 split, the
# 60-row one of (59,0) and the 70-84-row gl(3) ones, by 13-22%.  Against
# them, the 75-row restrictions of gl(6) dim 15 (module 90 rows) read 2.40
# ms split against 3.06-3.15 whole, and the 96-row one of (2,1,1,1,0) 2.75
# against 3.74.
DENSE_BELOW = 85


def _component_labels(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """The smallest node of each node's connected component in the graph
    on size nodes whose edges are (rows, cols)."""
    # Each node points at a node of its component; propagate the smallest
    # pointer along the edges and jump pointers until nothing changes.
    label = np.arange(size)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _pattern_components(rows: np.ndarray, cols: np.ndarray, size: int
                        ) -> tuple[np.ndarray, ...]:
    """Connected components of the pattern of the entries (rows, cols) of a
    size x size matrix, as one (k, b) table per component size b, each row
    a component's indices in ascending order.  Every entry lies inside one
    component."""
    label = _component_labels(rows, cols, size)
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
    operator's nonzero (or stored) entries, or the whole matrix where its
    module has fewer than DENSE_BELOW rows N*d (from_entries); components
    of equal size b are stacked, so `index` holds one (k, b) index array
    and `stacks` one (k, b, b) array per size.  Every entry outside the
    blocks is zero.
    """

    size: int
    index: tuple[np.ndarray, ...]
    stacks: tuple[np.ndarray, ...]

    @classmethod
    def from_entries(cls, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                     size: int, layout_rows: int | None = None) -> "Blocks":
        """The blocks of the size x size matrix whose entries (rows, cols)
        are values and all others zero, scattered without the dense matrix.
        No position may come twice.  The matrix is one whole block where
        layout_rows, the row count N*d of the module it belongs to (size
        by default), is below DENSE_BELOW."""
        if (size if layout_rows is None else layout_rows) < DENSE_BELOW:
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
        """One block of every state, in index order, for any stack shape."""
        return len(self.index) == 1 and len(self.index[0]) == 1

    def dense(self) -> np.ndarray:
        if self.whole:
            return self.stacks[0][0]
        out = np.zeros((self.size, self.size))
        for i, stack in zip(self.index, self.stacks):
            out[i[:, :, None], i[:, None, :]] = stack
        return out

    def corner_places(self, start: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per stack, the flat places of the block entries of the square
        [start:, start:] and each one's (row, col) counted from start; every
        other entry of the square is zero, and its diagonal is among them."""
        out = []
        for i in self.index:
            inside = i >= start
            pick = inside[:, :, None] & inside[:, None, :]
            at = np.broadcast_to(i[:, :, None] - start, pick.shape)
            out.append((np.flatnonzero(pick), at[pick], np.swapaxes(at, 1, 2)[pick]))
        return out

    def trace(self) -> float:
        return float(sum(np.trace(s, axis1=1, axis2=2).sum() for s in self.stacks))

    def max_abs(self) -> float:
        return max_abs([max_abs(s) for s in self.stacks])


def subtract_node(stack: np.ndarray, node, out: np.ndarray) -> np.ndarray:
    """The factor stack - node, node taken off the diagonal, in out."""
    np.copyto(out, stack)
    b = out.shape[-1]
    out.reshape(out.shape[:-2] + (b * b,))[..., ::b + 1] -= node
    return out


def ordered_product(stack: np.ndarray, nodes, quotients=None, scales: list | None = None
                    ) -> np.ndarray:
    """The product of the factors (stack - node) over nodes, left to right,
    as one batch over the stack's (..., b, b) blocks; no nodes give the
    identity.  A node is a scalar, or one value per column where nodes is
    an (L, ..., k, b) array, whose axes before the stack's are batch axes
    of the product.  quotients[l], (L, ..., 1, b), divides the partial
    product after factor l column-wise; scales collects each factor's
    largest entry.  The buffers and the factor's diagonal view are made
    once: fresh matrices per factor left the heap up to two matrices
    larger, and a fresh view per factor made (3,2,1,0)'s identity product
    12% slower."""
    shape = stack.shape
    if isinstance(nodes, np.ndarray):
        shape = nodes.shape[1:nodes.ndim - stack.ndim + 1] + shape
    b = shape[-1]
    factor = np.empty(shape)
    diagonal = factor.reshape(shape[:-2] + (b * b,))[..., ::b + 1]
    product = spare = None
    for l, node in enumerate(nodes):
        np.copyto(factor, stack)
        diagonal -= node
        if scales is not None:
            scales.append(max_abs(factor))
        if product is None:
            product, spare = factor.copy(), np.empty(shape)
        else:
            product, spare = np.matmul(product, factor, out=spare), product
        if quotients is not None:
            product /= quotients[l]
    if product is None:
        product = factor
        product[...] = np.eye(b)
    return product
