"""The shift components of the raising column of a gl(n+1) module on its
gl(n) restriction, for the invariants suite.

The restricted characteristic matrices of both kinds have operator nodes,
the roots read from each basis vector's row-n labels; their Lagrange
products with a column-wise division per factor are the restricted
projectors P[n;r] and Pbar[n;r], built for every r in lockstep.  The
raising column psi_j = a_{j,n+1} is read as triplets and joined with the
projectors' blocks (ShiftBatch), and the squared-norm identities take the
Gram matrices of the components on the components' own blocks
(GramLayout).

charident and verify import this module where they first need it, so
that the roots, identity and projectors jobs never load it
(tests/test_imports.py).
"""

from __future__ import annotations

import itertools

import numpy as np

from .kernel import DomainError, entry_index
from .glrep import Representation, gl_block_entries
from .gtbasis import row_starts, table_labels
from .blocks import Blocks, _component_labels, ordered_product


def _restricted_matrices(rep: Representation, level: int) -> tuple:
    """The gl(level) characteristic matrices of the restriction of kinds A
    and Abar, in that order, each held as blocks with its operator nodes.

    Node k (an array's row k - 1) is the k-th root of the subalgebra as a
    diagonal operator, read from the k-th label of each basis vector's row
    `level` and repeated over the level block rows.  Both kinds take their
    entries from gl_block_entries and the layout of the module's own
    characteristic matrices, read from its N*d rows (Blocks.from_entries)."""
    start = row_starts(rep.N)[level]
    labels = table_labels(rep.weight, rep.table[:, start:start + level].T, float)
    k = np.arange(1, level + 1)[:, None]
    tops = np.concatenate([labels + (level - k)] * level, axis=1)
    bars = np.concatenate([(k - 1) - labels] * level, axis=1)
    return tuple((Blocks.from_entries(*gl_block_entries(rep, kind, level), rep.N * rep.dim), nodes)
                 for kind, nodes in (("A", tops), ("Abar", bars)))


# The most block entries _restricted_projectors multiplies in one batch,
# and the most join terms or projector entries per r that ShiftBatch.chunks
# takes per batch of r.  Measured on 2 vCPUs, one BLAS thread.  Projector
# batches: the kind-A projectors of (2,1,1,1,0)+1/2 (one 96-row block, n =
# 4), all four in one batch took 677 us, two at a time 441 us and one at a
# time 457 us; a batch larger than the caches costs more than the calls it
# saves.  Chunks (projector batches left at 2**14): the invariants suite
# on the 16 shapes of the exact-small invariants classes took 27.4 ms with
# a cut-off of 2**10, 25.8 ms at 2**12, 25.3 ms at 2**14 and 25.8-25.9 ms
# from 2**16 to 2**20; on (4,3,2,1,0) (dim 1024, 169 000 terms per r) every
# cut-off from 2**10 to 2**18 takes one r at a time, 52.5-53.7 ms with a
# tracemalloc peak of 13.3 MiB, and 2**20 takes all four r at once, 49.5 ms
# and 17.1 MiB.  Every module above 2**14 terms per r, such as dim 8064
# (6.0 million), takes one r at a time.
LOCKSTEP_ENTRIES = 2 ** 14


def _restricted_projectors(blocks: Blocks, nodes: np.ndarray) -> Blocks:
    """Every restricted projector of one kind in lockstep, as Blocks whose
    stacks are (n, k, b, b) for the n nodes: entry r - 1 holds the blocks
    of the r-th projector.

    The r-th is the Lagrange product over every node but the r-th, its
    target, left to right, each partial product divided column-wise by its
    factor's quotient target - node.  The products of several r are one
    ordered_product per stack, with those r as its batch axis and as many
    r as keep the batch within LOCKSTEP_ENTRIES entries (at least one), and
    each (b, b) product and division is the one a product of its own would
    take, so every projector is that product bit for bit.  Prefix and
    suffix products with one division at the end would take fewer
    products, but they rely on the nodes commuting with the matrix, which
    holds only up to rounding and not at all on a tampered module: in a
    trial they let a module with a moved restricted entry pass and moved a
    residual beyond the tests' rounding allowance.  One node gives the
    identity.
    """
    n = len(nodes)
    # others[l, r] is the node of factor l of the r-th product
    others = np.array([[m for m in range(n) if m != r] for r in range(n)],
                      dtype=np.intp).reshape(n, n - 1).T
    quotients = nodes[None, :, :] - nodes[others]
    parts = []
    for index, stack in zip(blocks.index, blocks.stacks):
        step = max(1, LOCKSTEP_ENTRIES // stack.size)
        # each factor's node on the diagonal, and its quotient under each
        # column, cut into the stack's blocks
        stack_nodes = nodes[others][..., index]  # (n - 1, n, k, b)
        stack_quotients = quotients[..., index][..., None, :]  # (n - 1, n, k, 1, b)
        batches = [ordered_product(stack, stack_nodes[:, lo:lo + step],
                                   stack_quotients[:, lo:lo + step])
                   for lo in range(0, n, step)]
        parts.append(batches[0] if len(batches) == 1 else np.concatenate(batches))
    return blocks.like(parts)


def _row_codes(rep: Representation) -> tuple[np.ndarray, np.ndarray]:
    """An int64 code of row n of every basis pattern, (d,), and the code
    step of raising label r of a row, steps[r - 1]: two rows differ by e_r
    exactly where their codes differ by steps[r - 1].

    The labels' offsets from their least value over the basis are the
    digits of a mixed-radix number, each radix one more than the largest
    digit a raised label reaches.  Label r of row n lies between lam_{r+1}
    and lam_r, so the radices multiply to at most 2^n times the number of
    branches, and the codes stay far below 2^63.
    """
    n = rep.N - 1
    start = row_starts(rep.N)[n]
    rows_n = rep.table[:, start:start + n]
    low = rows_n.min(axis=0)
    radix = rows_n.max(axis=0) - low + 2
    steps = np.append(np.cumprod(radix[:0:-1])[::-1], 1)
    return (rows_n - low) @ steps, steps


def _places(blocks: Blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every state of the blocks' matrix: its stack, its block within
    the stack and its place within the block."""
    stack_of, block_of, place_of = (np.empty(blocks.size, dtype=np.intp) for _ in range(3))
    for s, index in enumerate(blocks.index):
        stack_of[index] = s
        block_of[index] = np.arange(len(index))[:, None]
        place_of[index] = np.arange(index.shape[1])
    return stack_of, block_of, place_of


class ShiftBatch:
    """The raising column psi_j = a_{j,n+1} of a gl(n+1) module (n >= 1)
    joined with its restricted projectors P[n;r] and Pbar[n;r], for every r
    at once.

    p and pbar hold the projectors of both kinds in lockstep
    (_restricted_projectors).  psi is read as triplets from the module's
    table: psi_j[rows, cols] = values with j - 1 in j.  Each key (j*d +
    row)*d + col of a component, an entry psi[n;r]_j[row, col], gets its
    shift from the pattern table (_row_codes): key_steps equals steps[r -
    1] exactly where row n of row is that of col plus e_r.  On a true
    module psi[n;r] is the part of psi of shift r.

    The component psi[n;r]_j = sum_i psi_i Pbar_ij takes, for each triplet
    psi_i[row, col] = v, the row of its state (i, col) in its block of
    Pbar: v Pbar[(i, col), (j, c)] lands on psi[n;r]_j[row, c].  The other
    route, sum_i P_ji psi_i, takes the column of the state (i, row) in its
    block of P.  The keys of both routes' terms and of psi's own entries
    are made one ordered set, `keys`, once for all r; sums() then adds each
    r's terms per key.  Every entry of either dense product that no term
    reaches is exactly zero.  Where the restricted projectors are one whole
    block (Blocks.whole, as on a module of fewer than DENSE_BELOW rows
    N*d), every triplet's state reaches it; there psi is scattered into
    (n, d, d) once, the keys are every entry, and each route is one
    batched product.
    """

    def __init__(self, rep: Representation):
        n, d, N = rep.N - 1, rep.dim, rep.N
        if n < 1:
            raise DomainError("shift components need a gl(n+1) module with n >= 1")
        self.n, self.d = n, d
        self.p, self.pbar = (_restricted_projectors(*matrix)
                             for matrix in _restricted_matrices(rep, n))
        # a_{j,N} is generator (j - 1)N + N - 1, its entries a slice of the table
        bounds = [(rep.entry_starts[g], rep.entry_starts[g + 1]) for g in range(n, n * N, N)]
        at = np.concatenate([np.arange(lo, hi) for lo, hi in bounds])
        self.j = np.repeat(np.arange(n), [hi - lo for lo, hi in bounds])
        self.rows, self.cols, self.values = (a[at] for a in rep.entries)
        psi_keys = (self.j * d + self.rows) * d + self.cols
        codes, self.steps = _row_codes(rep)
        self.dense = self.p.whole
        if self.dense:
            self.size = self.terms = n * d * d
            self.keys = np.arange(self.size)
            self.psi_at = psi_keys
            self._psi = np.zeros(self.size)
            self._psi[psi_keys] = self.values
            self._psi = self._psi.reshape(n, d, d)
        else:
            self._join(psi_keys)
        row, col = self.keys // d % d, self.keys % d
        self.key_steps = codes[row] - codes[col]

    def _join(self, psi_keys: np.ndarray):
        """Per route and stack: the triplets whose state lies there, their
        blocks and places, and the keys of their terms."""
        n, d = self.n, self.d
        self._routes, keys = [], []
        for blocks, state, transposed in ((self.pbar, self.j * d + self.cols, False),
                                          (self.p, self.j * d + self.rows, True)):
            stack_of, block_of, place_of = _places(blocks)
            order = np.argsort(stack_of[state], kind="stable")
            bounds = np.searchsorted(stack_of[state][order], np.arange(len(blocks.index) + 1))
            route = []
            for index, lo, hi in zip(blocks.index, bounds, bounds[1:]):
                sel = order[lo:hi]
                block, place = block_of[state[sel]], place_of[state[sel]]
                target = index[block]
                if transposed:  # P[(j, row'), (i, row)] psi_i[row, col]: key (j, row', col)
                    keys.append((target * d + self.cols[sel, None]).ravel())
                else:  # psi_i[row, col] Pbar[(i, col), (j, c)]: key (j, row, c)
                    keys.append(((target - target % d + self.rows[sel, None]) * d
                                 + target % d).ravel())
                route.append((block, place, self.values[sel, None]))
            self._routes.append((blocks, route, transposed))
        self._first = sum(len(k) for k in keys[:len(self._routes[0][1])])
        self.terms = sum(len(k) for k in keys)
        keys = np.concatenate(keys + [psi_keys])
        self.size, inverse = entry_index(keys, n * d * d)
        self.keys = np.empty(self.size, dtype=keys.dtype)
        self.keys[inverse] = keys
        self._inverse, self.psi_at = inverse[:self.terms], inverse[self.terms:]

    def chunks(self) -> list[slice]:
        """The batches of r - 1 that sums() and the checks on its sums take:
        as many r as keep the join terms and the projector entries of a
        batch within LOCKSTEP_ENTRIES (at least one r).  (4,3,2,1,0) (dim
        1024) has 169 000 terms and 31 520 projector entries per r,
        (4,3,2,1,0,0) (dim 8064) 6.0 million and 764 160."""
        per_r = max(self.terms, sum(stack[0].size for stack in self.p.stacks))
        step = max(1, LOCKSTEP_ENTRIES // per_r)
        return [slice(lo, min(lo + step, self.n)) for lo in range(0, self.n, step)]

    def sums(self, rs: slice) -> tuple[np.ndarray, np.ndarray]:
        """psi[n;r]_j = sum_i psi_i Pbar[n;r]_ij and sum_i P[n;r]_ji psi_i
        at every key, for r - 1 in rs: two (len(rs), size) arrays."""
        n, d = self.n, self.d
        if self.dense:  # one block each: Pbar^T [psi_1^T; ...] and P [psi_1; ...]
            pbar, p = self.pbar.stacks[0][rs, 0], self.p.stacks[0][rs, 0]
            R = len(p)
            comps = pbar.swapaxes(1, 2) @ self._psi.swapaxes(1, 2).reshape(n * d, d)
            other = p @ self._psi.reshape(n * d, d)
            return (comps.reshape(R, n, d, d).swapaxes(2, 3).reshape(R, -1),
                    other.reshape(R, -1))
        terms = []
        for blocks, route, transposed in self._routes:
            for stack, (block, place, values) in zip(blocks.stacks, route):
                if transposed:
                    stack = stack.swapaxes(2, 3)
                part = stack[rs, block, place] * values
                terms.append(part.reshape(len(part), -1))
        terms = np.concatenate(terms, axis=1)
        R, size = len(terms), self.size
        # the term of r - 1 = rs.start + x at key k goes to x*size + k, or
        # to (R + x)*size + k for the second route
        index = self._inverse + (size * np.arange(R))[:, None]
        index[:, self._first:] += R * size
        sums = np.bincount(index.ravel(), weights=terms.ravel(), minlength=2 * R * size)
        return sums[:R * size].reshape(R, size), sums[R * size:].reshape(R, size)

    def gram_layout(self, over_cols: bool) -> "GramLayout":
        """The GramLayout of C C^T, C the components stacked as [psi[n;r]_1;
        ...; psi[n;r]_n] (states i*d + row, columns col), against P; or,
        with over_cols false, of the components transposed (states i*d +
        col, columns row) against Pbar."""
        d = self.d
        j, rest = np.divmod(self.keys, d * d)
        row, col = np.divmod(rest, d)
        if over_cols:
            return GramLayout(j * d + row, col, self.n * d, d, self.p)
        return GramLayout(j * d + col, row, self.n * d, d, self.pbar)


class GramLayout:
    """Where the entries of C C^T and of a projector lie, for a matrix C of
    S states (rows) by d columns with entries at (states, columns), the
    same for every r, and the projector's Blocks on the S states.

    Node x < S is state x and node S + c column c.  Each entry joins its
    state and column, and each state joins the first state of its
    projector block, so one connected component holds every state that
    shares a column with one of its states and every block entry of its
    states: each entry of C C^T or of the projector lies in the (g, g)
    square of one component, g its states.  Components are laid out by
    (g, m), m their columns, and those of one shape are stacked: stacks
    holds (C range, Gram range, k, g, m, rows) for k components, over flat
    layouts of C and of C C^T, rows being each state's basis vector (state
    mod d), (k, g).  c_at is each entry's place in C's layout and p_at the
    places of each projector stack's (k, b, b) block entries in the Gram's
    (a slice where they are all of it, in order).
    """

    def __init__(self, states: np.ndarray, columns: np.ndarray, S: int, d: int,
                 projectors: Blocks):
        # One block: one component of every state in index order and of all
        # d columns (one that no entry reaches is a zero column of C).  In
        # process, interleaved, the exact-small invariants classes (16 shapes,
        # each class's median summed) took 16.4 ms with this branch and 19.7
        # ms without (2 vCPUs; 0.69 against 0.88 ms on each gl(2) one).
        if projectors.whole:
            self.c_at = states * d + columns
            self.stacks = [(slice(0, S * d), slice(0, S * S), 1, S, d, np.arange(S)[None] % d)]
            self.c_size, self.g_size, self.p_at = S * d, S * S, [slice(0, S * S)]
            return
        first = np.concatenate([np.repeat(i[:, 0], i.shape[1]) for i in projectors.index])
        mates = np.concatenate([i.ravel() for i in projectors.index])
        label = _component_labels(np.concatenate((states, mates)),
                                  np.concatenate((S + columns, first)), S + d)
        # Every state lies in a projector block, so each component with a
        # state is labelled by one; a column of no entry is its own.
        of_state, of_column = label[:S], label[S:]
        g = np.bincount(of_state, minlength=S)
        m = np.bincount(of_column[of_column < S], minlength=S)
        comps = np.flatnonzero(g)
        comps = comps[np.lexsort((m[comps], g[comps]))]
        shapes = list(zip(g[comps].tolist(), m[comps].tolist()))
        # each state's (column's) place among its component's, in index order
        place = np.empty(S, dtype=np.intp)
        by_label = np.argsort(of_state, kind="stable")
        place[by_label] = np.arange(S) - (np.cumsum(g) - g)[of_state[by_label]]
        touched = np.flatnonzero(of_column < S)
        by_label = touched[np.argsort(of_column[touched], kind="stable")]
        column_place = np.empty(d, dtype=np.intp)
        column_place[by_label] = np.arange(len(by_label)) - (np.cumsum(m) - m)[of_column[by_label]]
        # the components in layout order, stacked by shape
        c_start, g_start = (np.zeros(S, dtype=np.intp) for _ in range(2))
        c_start[comps] = np.cumsum([gk * mk for gk, mk in shapes]) - [gk * mk for gk, mk in shapes]
        g_start[comps] = np.cumsum([gk * gk for gk, _ in shapes]) - [gk * gk for gk, _ in shapes]
        home = of_state[states]
        self.c_at = c_start[home] + place[states] * m[home] + column_place[columns]
        self.p_at = [(g_start[of_state[index]][:, :, None]
                      + place[index][:, :, None] * g[of_state[index]][:, :, None]
                      + place[index][:, None, :]).ravel() for index in projectors.index]
        rank = np.empty(S, dtype=np.intp)
        rank[comps] = np.arange(len(comps))
        in_layout = np.argsort(rank[of_state], kind="stable") % d
        self.stacks, c0, g0, at = [], 0, 0, 0
        for (gk, mk), group in itertools.groupby(shapes):
            k = len(list(group))
            self.stacks.append((slice(c0, c0 + k * gk * mk), slice(g0, g0 + k * gk * gk), k, gk,
                                mk, in_layout[at:at + k * gk].reshape(k, gk)))
            c0, g0, at = c0 + k * gk * mk, g0 + k * gk * gk, at + k * gk
        self.c_size, self.g_size = c0, g0
