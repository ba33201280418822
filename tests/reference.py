"""Reference helpers the tests read and no charid command, suite or traced
run does: the ordinals of a module's patterns, a projector's rank, the
zero test of a Tolerance, the magnitudes of one product-form range, the
support residual of dense shift components and the per-branch C sums and
M*Cbar squares of the invariants' closed forms."""

import numpy as np

from charid.charident import invariant_tables
from charid.glrep import Representation, _product_forms
from charid.gtbasis import GTPattern, pattern_ordinals, row_starts
from charid.kernel import DomainError, Tolerance, Triplets, max_abs


def ordinal(rep: Representation) -> dict[GTPattern, int]:
    """Each basis pattern of rep mapped to its ordinal."""
    return pattern_ordinals(rep.patterns)


def rank(projector) -> int:
    """The rank of a Projector, read from the trace of its blocks."""
    return round(projector.blocks.trace())


def is_zero(tol: Tolerance, m, *reference) -> bool:
    """Whether m counts as zero under tol, scaled by the largest |entry|
    among the reference inputs (m itself when none is given)."""
    scale = max_abs([max_abs(x) for x in reference or (m,)])
    return max_abs(m) <= tol.threshold(scale)


def nonelementary_magnitudes(rep: Representation, l: int, n: int) -> Triplets:
    """|<pattern + sum of shifts| a_{l,n+1} |pattern>| for every basis
    pattern and shift combination, as the Triplets of a dim x dim matrix,
    from the product form of nonelementary_coefficient.

    Every combination (i_n, ..., i_l) raises one label per level; this is
    the range l..n of _product_forms, taken alone.  No position comes
    twice: distinct combinations reach distinct targets.
    """
    if not 1 <= l <= n < rep.N:
        raise DomainError(f"need 1 <= l <= n < {rep.N}, got l={l} n={n}")
    _, cols, rows, _, _, values = _product_forms(rep, [(l, n)])
    keep = np.flatnonzero(values)
    order = keep[np.argsort(rows[keep] * rep.dim + cols[keep])]
    return Triplets(rows[order], cols[order], np.sqrt(values[order]))


def row_shift_ids(rep: Representation) -> tuple[np.ndarray, np.ndarray]:
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


def support_residual(ids: tuple[np.ndarray, np.ndarray], r: int, components) -> float:
    """Largest |entry| of the dense components off the shift mu -> mu + D_r
    of row n: a column may reach only the rows whose id (from
    row_shift_ids) is that of its row n + e_r."""
    row_id, raised = ids
    off_shift = row_id[:, None] != raised[r - 1][None, :]
    return max_abs(np.asarray(components)[:, off_shift])


def invariant_C_sums(rep: Representation) -> tuple[np.ndarray, np.ndarray, int]:
    """sum_k C_{k,n+1} on every branch of the module, exactly, from
    invariant_tables: the distinct row-n label offsets (one row per
    branch, ascending), the numerator of each branch's sum (Python ints)
    and their common denominator."""
    n = rep.N - 1
    start = row_starts(rep.N)[n]
    branches, first = np.unique(rep.table[:, start:start + n], axis=0, return_index=True)
    tables = invariant_tables(rep)
    return branches, tables.c_sums[first], tables.c_common


def elementary_square_table(rep: Representation) -> tuple[np.ndarray, np.ndarray]:
    """elementary_square_from_invariants of every basis pattern and every
    r, as exact numerators and denominators, both (d, n) with column r - 1
    for r, from invariant_tables."""
    tables = invariant_tables(rep)
    return tables.square_nums, tables.square_dens
