"""Square operators held as diagonal blocks: the connected components of
the pattern of their entries, components of equal size stacked, or the
whole matrix below DENSE_BELOW rows.  Every characteristic matrix of
charid, its projectors and its restrictions are held this way."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import Triplets, max_abs


# Below this many rows one dense product costs less than finding the
# components and looping over their stacks, so such a matrix is held as a
# single block.  Measured on 2 vCPUs, best of 40, whole against split
# (split included).  Kind-Abar matrix with its identity and all projectors
# (scalar nodes): 72 rows 0.30/0.42 ms, 81 rows 0.35/0.55, 90 rows
# 0.44/0.38, 105 rows 0.57/0.51, 120 rows 0.70/0.38, 126 rows 0.82/0.42,
# 144 rows 1.38/0.65.  Restricted matrices of both kinds with their
# lockstep projectors and the shift and squared-norm checks of ShiftBatch
# (operator nodes; psi dense on one block, joined as triplets on split
# ones): 60 rows (3,3,3,0) 0.58/1.04 ms, 96 rows (2,1,1,1,0) 2.13/1.56,
# 100 rows (1,1,1,0,0,0) 3.33/1.33, 105 rows (4,4,4,0) 1.62/1.16, 108 rows
# (3,2,2,0) 1.59/1.60, 135 rows (3,3,2,0) 2.94/1.69, 160 rows (2,2,2,1,0)
# 6.73/1.76.  From 100 rows on every restriction measured is as fast or
# faster split, most of them far faster; below, the 96-row gl(5) one is
# faster split too, and the 60-row gl(4) one faster whole.
DENSE_BELOW = 100


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
        picks, rows, cols = self.corner_places(start)
        return Triplets(rows, cols, self.corner_values(picks))

    def corner_places(self, start: int) -> tuple[list, np.ndarray, np.ndarray]:
        """Where corner(start) finds its entries: one mask per stack, and
        each entry's (row, col) counted from start.  Blocks with the same
        index share them."""
        picks, rows, cols = [], [], []
        for i in self.index:
            inside = i >= start
            pick = inside[:, :, None] & inside[:, None, :]
            at = np.broadcast_to(i[:, :, None] - start, pick.shape)
            picks.append(pick)
            rows.append(at[pick])
            cols.append(np.swapaxes(at, 1, 2)[pick])
        return picks, np.concatenate(rows), np.concatenate(cols)

    def corner_values(self, picks: list) -> np.ndarray:
        """The values of corner(start) for the masks of corner_places."""
        return np.concatenate([stack[pick] for stack, pick in zip(self.stacks, picks)])

    def trace(self) -> float:
        return float(sum(np.trace(s, axis1=1, axis2=2).sum() for s in self.stacks))

    def max_abs(self) -> float:
        return max_abs([max_abs(s) for s in self.stacks])
