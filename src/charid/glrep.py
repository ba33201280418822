"""Representation matrices of gl(N) generators on the Gelfand-Tsetlin basis.

Diagonal generators act by pattern weights.  Elementary raising generators
a_{k,k+1} have closed-form ladder coefficients (square roots of rationals,
whose exact squares are kept alongside), lowering generators are their
transposes, and the remaining generators are nested commutators
a_{i,j} = [a_{i,j-1}, a_{j-1,j}], which fixes every phase constructively.
Every generator is held as sparse (row, col, value) triplets, and each
commutator is a join of one factor's columns with the other's rows.

A module is built on the integer pattern table of gtbasis.pattern_table:
every ladder factor is a difference of labels plus an integer, hence an
integer, and each level's coefficients are computed for all patterns at
once.  elementary_coefficient and nonelementary_coefficient are the scalar
forms of the same closed formulas, on one GTPattern at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .kernel import (
    ConsistencyError,
    DegeneratePatternError,
    DomainError,
    Surd,
    Triplets,
    commutator,  # unused here, kept as a name the benchmark's tracer wraps
    freeze,
    join,
    matrix_power,  # unused here, kept as a name the benchmark's tracer wraps
    max_abs,  # unused here, kept as a name the benchmark's tracer wraps
    offsets,
    partial_trace_block,  # unused here, kept as a name the benchmark's tracer wraps
    rationalize,  # unused here, kept as a name the benchmark's tracer wraps
)
from .gtbasis import (
    GTPattern,
    Weight,
    check_highest_weight,
    enumerate_patterns,  # unused here, kept as a name the benchmark's tracer wraps
    pattern_ordinals,
    pattern_table,
    pattern_weight,  # unused here, kept as a name the benchmark's tracer wraps
    row_starts,
    table_interlaces,
    table_labels,
    table_patterns,
    table_weights,
    weight,
)


def _squared_coefficient_factors(pattern: GTPattern, k: int, r: int,
                                 drop_upper: int | None = None,
                                 drop_lower: int | None = None):
    """Linear factors of the squared ladder coefficient at level k, index r.

    Returns (sign, numerator_factors, denominator_factors) with every factor
    an exact Fraction read off the unshifted pattern.  drop_upper/drop_lower
    omit one factor of the upper/lower product; the multi-level coefficient
    formula cancels exactly those against its inter-level brackets.
    """
    up = pattern.row(k + 1)
    mid = pattern.row(k)
    low = pattern.row(k - 1) if k > 1 else ()
    x = mid[r - 1]
    num = []
    for p in range(1, k + 2):
        if p == drop_upper:
            continue
        num.append(up[p - 1] - x + r - p)
    for l in range(1, k):
        if l == drop_lower:
            continue
        num.append(x - low[l - 1] + l - r + 1)
    den = []
    for l in range(1, k + 1):
        if l == r:
            continue
        t = x - mid[l - 1] + l - r
        den.extend((t, t + 1))
    sign = -1 if k % 2 else 1
    return sign, num, den


def _cancelled_ratio(sign: int, num: list[Fraction], den: list[Fraction],
                     context: str) -> Fraction:
    """Exact product sign * prod(num) / prod(den), cancelling paired zeros.

    Each zero denominator factor must be matched by a zero numerator factor
    (they arise together on squeezed patterns); an unmatched one is a
    genuine degeneracy and raises.
    """
    num = list(num)
    for factor in den:
        if factor == 0:
            try:
                num.remove(Fraction(0))
            except ValueError:
                raise DegeneratePatternError(
                    f"unmatched zero denominator factor in {context}"
                ) from None
    value = Fraction(sign)
    for factor in num:
        if factor == 0:
            return Fraction(0)
        value *= factor
    for factor in den:
        if factor != 0:
            value /= factor
    return value


def elementary_coefficient(pattern: GTPattern, k: int, r: int) -> Surd:
    """Ladder coefficient <pattern + D_{r,k}| a_{k,k+1} |pattern>.

    Zero when the shifted pattern leaves the interlacing lattice; otherwise
    the positive square root of an exact positive rational.
    """
    n = pattern.size
    if not 1 <= k < n:
        raise DomainError(f"level {k} outside 1..{n - 1}")
    if not 1 <= r <= k:
        raise DomainError(f"row index {r} outside 1..{k}")
    if pattern.shifted(k, r) is None:
        return Surd.zero()
    sign, num, den = _squared_coefficient_factors(pattern, k, r)
    value = _cancelled_ratio(sign, num, den, f"ladder coefficient k={k} r={r}")
    if value < 0:
        raise ConsistencyError(
            f"negative squared coefficient {value} for admissible shift "
            f"k={k} r={r} on {pattern.rows}"
        )
    return Surd.sqrt(value)


def nonelementary_coefficient(pattern: GTPattern, l: int, n: int,
                              shifts) -> Surd:
    """Magnitude of <pattern + sum of shifts| a_{l,n+1} |pattern>.

    shifts = (i_n, ..., i_l) picks one raised row index per level from n
    down to l; all labels are read from the unshifted pattern.  Each
    inter-level normalising bracket cancels one factor of the adjacent
    squared ladder coefficients, so those factors are dropped structurally
    and the product stays well defined where bracket and coefficient vanish
    together.  Operator signs are not encoded here; the commutator
    construction of the representation fixes them.
    """
    if not 1 <= l <= n < pattern.size:
        raise DomainError(f"need 1 <= l <= n < {pattern.size}, got l={l} n={n}")
    shifts = tuple(int(s) for s in shifts)
    if len(shifts) != n - l + 1:
        raise DomainError(f"expected {n - l + 1} shift indices, got {len(shifts)}")
    sign = 1
    num: list[Fraction] = []
    den: list[Fraction] = []
    for pos, level in enumerate(range(n, l - 1, -1)):
        i_r = shifts[pos]
        if not 1 <= i_r <= level:
            raise DomainError(f"shift index {i_r} outside 1..{level}")
        drop_upper = shifts[pos - 1] if level < n else None
        drop_lower = shifts[pos + 1] if level > l else None
        s, nu, de = _squared_coefficient_factors(
            pattern, level, i_r, drop_upper=drop_upper, drop_lower=drop_lower)
        sign *= s
        num.extend(nu)
        den.extend(de)
    value = _cancelled_ratio(
        sign, num, den, f"coefficient a_{l},{n + 1} shifts {shifts} on {pattern.rows}")
    if value < 0:
        raise ConsistencyError(
            f"negative squared coefficient {value} for a_{l},{n + 1} "
            f"shifts {shifts} on {pattern.rows}"
        )
    return Surd.sqrt(value)


def _exact_products(sign: int, num: np.ndarray, den: np.ndarray):
    """sign * prod(num[i]) and prod(den[i]) for each row of two integer
    factor arrays.

    While no product can reach 2**53 (each is bounded by the product of its
    array's column maxima of |factor|) they are int64, and exact in float64
    too; otherwise the whole batch is taken in Python ints (object arrays).
    """
    if all(math.prod(np.abs(a).max(axis=0, initial=1).tolist()) < 2 ** 53
           for a in (num, den)):
        return sign * num.prod(axis=1), den.prod(axis=1)
    return (np.array([sign * math.prod(row) for row in num.tolist()], dtype=object),
            np.array([math.prod(row) for row in den.tolist()], dtype=object))


def _exact_ratios(sign: int, num: np.ndarray, den: np.ndarray):
    """(numerators, denominators, quotients): the exact products of
    _exact_products and each quotient as the correctly rounded float, equal
    to float(Fraction(numerator, denominator)).  For int64 that is one
    float64 division of exact conversions, otherwise Python int true
    division.  No denominator factor may be zero."""
    p, q = _exact_products(sign, num, den)
    return p, q, np.asarray(p / q, dtype=float)


def _cancelled_ratios(sign: int, num: np.ndarray, den: np.ndarray):
    """_cancelled_ratio for each row of two integer factor arrays.

    Each zero denominator factor cancels one zero numerator factor, counted
    per row; a zero numerator factor left over makes the ratio exactly 0.
    Returns _exact_ratios' (numerators, denominators, quotients) and the
    rows with more zero denominator factors than numerator ones, on which
    the scalar form raises.
    """
    znum = np.count_nonzero(num == 0, axis=1)
    zden = np.count_nonzero(den == 0, axis=1)
    nums, dens, values = _exact_ratios(
        sign, np.where(num == 0, 1, num), np.where(den == 0, 1, den))
    zero = znum > zden
    nums[zero] = 0
    values[zero] = 0.0
    return nums, dens, values, znum < zden


def _ladder_factors(rows: np.ndarray, starts, k: int, r: np.ndarray,
                    drop_upper: np.ndarray | None = None,
                    drop_lower: np.ndarray | None = None):
    """_squared_coefficient_factors on pattern table rows, one row of
    factors per pattern.  r, drop_upper and drop_lower hold one 0-based
    index per row; a dropped factor is set to 1.

    With x the shifted label, each factor is s * (label - x + r) + c on
    label offsets: up[p] - x + r - p, x - low[l] + l - r + 1, and
    t = x - mid[l] + l - r, whose pair t(t + 1) for l != r is one
    denominator factor: t and t + 1 are never both zero, so the pair has as
    many zero factors as the two, and a nonzero pair is positive.  Returns
    (sign, numerator factors, denominator factors).
    """
    up = rows[:, starts[k + 1]:starts[k + 1] + k + 1]
    mid = rows[:, starts[k]:starts[k] + k]
    low = rows[:, starts[k - 1]:starts[k - 1] + k - 1]
    at = np.arange(len(rows))
    labels = np.concatenate((up, low, mid), axis=1)
    sign = np.repeat([1, -1, -1], [k + 1, k - 1, k])
    shift = np.concatenate((-np.arange(1, k + 2), np.arange(2, k + 1), np.arange(1, k + 1)))
    factors = sign * (labels - mid[at, r][:, None] + (r[:, None] + 1)) + shift
    num, t = factors[:, :2 * k], factors[:, 2 * k:]
    den = t * (t + 1)
    den[at, r] = 1
    if drop_upper is not None:
        num[at, drop_upper] = 1
    if drop_lower is not None:
        num[at, k + 1 + drop_lower] = 1
    return (-1 if k % 2 else 1), num, den


def _row_index(table: np.ndarray) -> dict[tuple, int]:
    return {row: c for c, row in enumerate(map(tuple, table.tolist()))}


def _block_diagonal(parts, d: int) -> Triplets:
    """Row-major Triplets of the block-diagonal matrix of the d x d
    matrices parts, each given as (rows, cols, values); zeros dropped."""
    shift = np.repeat(np.arange(len(parts)) * d, [len(rows) for rows, _, _ in parts])
    rows, cols, values = (np.concatenate(a) for a in zip(*parts))
    keep = values != 0
    rows, cols, values = (rows + shift)[keep], (cols + shift)[keep], values[keep]
    order = np.argsort(rows * (len(parts) * d) + cols)
    return Triplets(rows[order], cols[order], values[order])


def _blocks(t: Triplets, first: int, count: int, d: int) -> Triplets:
    """Diagonal d x d blocks first..first+count-1 of a row-sorted
    block-diagonal matrix, as a block-diagonal matrix of their own."""
    lo, hi = np.searchsorted(t.rows, [first * d, (first + count) * d])
    shift = first * d
    return Triplets(t.rows[lo:hi] - shift, t.cols[lo:hi] - shift, t.values[lo:hi])


def sparse_commutator(a: Triplets, b: Triplets, d: int) -> Triplets:
    """[a, b] = ab - ba of two d x d matrices held as row-major Triplets.

    One table holds b's entries, then a's with their rows moved by d.
    Probing it with a's columns finds the terms of ab, and with b's columns
    moved by d those of ba.  Each product's terms are summed per entry on
    their own before the difference is taken, as two dense products would
    be.  On GT ladder operators every entry of either product has a single
    term (the intermediate pattern is fixed by which rows each factor
    moves), so the result equals the dense commutator bit for bit.  Exact
    zeros are dropped.
    """
    n_a = len(a.rows)
    rows, cols, values = (np.concatenate(x) for x in zip(b, a))
    rows[len(b.rows):] += d
    left_rows, left_cols, left_values = (np.concatenate(x) for x in zip(a, b))
    left_cols[n_a:] += d
    probe, at = join(left_cols, offsets(rows, 2 * d))
    entries, inverse = np.unique(left_rows[probe] * d + cols[at], return_inverse=True)
    size = len(entries)
    inverse[np.searchsorted(probe, n_a):] += size  # terms of ab come first
    sums = np.bincount(inverse, weights=left_values[probe] * values[at], minlength=2 * size)
    diff = sums[:size] - sums[size:]
    keep = diff != 0
    rows, cols = np.divmod(entries[keep], d)
    return Triplets(rows, cols, diff[keep])


class Representation:
    """All generator matrices of one irreducible gl(N) module.

    Immutable after construction: every array it holds (`table`,
    `entries`, `entry_gen`, `entry_starts` and the ladder squares) is
    read-only, so one module can be shared by any number of checks.  The
    basis is held as `table`, the int64 pattern table
    (gtbasis.pattern_table).  The nonzero entries of all N^2
    generators are stored once, in one Triplets table `entries`:
    generator a_ij is g = (i-1)N + j-1, entry_gen holds g for each entry,
    its entries are entry_starts[g]:entry_starts[g+1], row-major, and
    `triplets(i, j)` is that slice.  `gen(i, j)` scatters a fresh dense
    d x d matrix from it on each call, so no check can read a dense copy
    that differs from the triplets.  `patterns`, `ordinal` and the
    exact Surd sidecar `raising_surds` of the elementary raising
    generators, keyed by (row, column) ordinal so squared-norm identities
    can be checked in rational arithmetic, are made on first use too.
    """

    def __init__(self, labels):
        self.weight: Weight = check_highest_weight(weight(labels))
        self.N = len(self.weight)
        self.table = freeze(pattern_table(self.weight))
        self.dim = len(self.table)
        # k -> (rows, cols, numerators, denominators) of a_{k,k+1}'s squared
        # entries, in basis order.
        self._ladders: dict[int, tuple[np.ndarray, ...]] = {}
        self._build()

    @cached_property
    def patterns(self) -> list[GTPattern]:
        return table_patterns(self.weight, self.table)

    @cached_property
    def ordinal(self) -> dict[GTPattern, int]:
        return pattern_ordinals(self.patterns)

    @cached_property
    def _index(self) -> dict[tuple, int]:
        """Ordinal of each table row, keyed by the row as a tuple of ints,
        made on first use.  The build drops its own copy when it ends: held
        through dense verify jobs, it made their peak RSS read ~4 MB higher
        (huge pages kept resident) in most benchmark runs.  Once made it
        stays with the module, also while the CLI keeps that module for
        later jobs (cli._module); only the suites that move patterns
        (invariants, melcross) make it."""
        return _row_index(self.table)

    @cached_property
    def raising_surds(self) -> dict[int, dict[tuple[int, int], Surd]]:
        return {k: {(row, col): Surd.sqrt(Fraction(p, q))
                    for row, col, p, q in zip(*(a.tolist() for a in ladder))}
                for k, ladder in self._ladders.items()}

    def triplets(self, i: int, j: int) -> Triplets:
        """Nonzero entries of the generator a_{ij} (1-based indices),
        row-major."""
        if not (1 <= i <= self.N and 1 <= j <= self.N):
            raise DomainError(f"generator indices ({i},{j}) outside 1..{self.N}")
        g = (i - 1) * self.N + j - 1
        lo, hi = self.entry_starts[g], self.entry_starts[g + 1]
        rows, cols, values = self.entries
        return Triplets(rows[lo:hi], cols[lo:hi], values[lo:hi])

    def gen(self, i: int, j: int) -> np.ndarray:
        """Dense matrix of the generator a_{ij} (1-based indices)."""
        rows, cols, values = self.triplets(i, j)
        mat = np.zeros((self.dim, self.dim))
        mat[rows, cols] = values
        return mat

    def generator_labels(self) -> list[tuple[int, int]]:
        return list(itertools.product(range(1, self.N + 1), repeat=2))

    def raised(self, moves: np.ndarray):
        """Every basis pattern moved by every row of moves, an (m, width)
        integer array added to the table rows, where the result is again a
        pattern.  Returns (cols, move, rows): the source ordinal, the index
        of the move and the target ordinal, in basis order of the source,
        moves fastest."""
        moved = self.table[:, None, :] + moves
        cols, move = np.nonzero(table_interlaces(moved, self.N))
        rows = np.array([self._index[row] for row in map(tuple, moved[cols, move].tolist())],
                        dtype=np.intp)
        return cols, move, rows

    def _store(self, g: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               values: np.ndarray):
        """Store the generators: entry e is (rows[e], cols[e]) = values[e]
        of generator g[e]; no position comes twice.  An entry is stored
        where the exact matrix element is nonzero, so its float may be 0.0
        (a diagonal label below the float64 range)."""
        d = self.dim
        order = np.argsort((g * d + rows) * d + cols)
        self.entries = Triplets(freeze(rows[order]), freeze(cols[order]), freeze(values[order]))
        self.entry_gen = freeze(g[order])
        self.entry_starts = freeze(offsets(self.entry_gen, self.N * self.N))

    def _build(self):
        table, d, N = self.table, self.dim, self.N
        starts = row_starts(N)
        # a_kk acts by the pattern weights lam_N + offset.  An entry is
        # stored where that exact label is nonzero, with the label's float,
        # which is 0.0 for a label too small for float64; each distinct
        # label goes through bool() and float() once.
        weights = table_weights(table, N)
        diagonals = table_labels(self.weight, weights, float)
        k, basis = np.nonzero(table_labels(self.weight, weights, bool).T)
        parts = [(k * (N + 1), basis, basis, diagonals[basis, k])]
        # The generators a_{i,i+size} of one size are the diagonal blocks
        # i - 1 of one block-diagonal matrix: the elementary ones (size 1)
        # from the ladder coefficients, each further size as one commutator
        # a_{i,j} = [a_{i,j-1}, a_{j-1,j}] of such matrices.  Each a_ij is
        # stored with its transpose a_ji.
        index = _row_index(table)
        ladders = [self._raising(k, starts, index) for k in range(1, N)]
        for size in range(1, N):
            if size == 1:
                stack = elementary = _block_diagonal(ladders, d)
            else:
                count = N - size
                stack = sparse_commutator(_blocks(stack, 0, count, d),
                                         _blocks(elementary, size - 1, count, d), count * d)
            block, rows = np.divmod(stack.rows, d)
            cols = stack.cols - block * d
            upper = block * (N + 1) + size
            parts.append((upper, rows, cols, stack.values))
            parts.append((upper + size * (N - 1), cols, rows, stack.values))  # a_ji
        self._store(*(np.concatenate(a) for a in zip(*parts)))

    def _raising(self, k: int, starts, index):
        """(rows, cols, values) of a_{k,k+1} from the ladder coefficients of
        every admissible (pattern, r), in basis order of the column; its
        exact squares are kept in _ladders[k]."""
        table = self.table
        up = table[:, starts[k + 1]:starts[k + 1] + k + 1]
        mid = table[:, starts[k]:starts[k] + k]
        low = table[:, starts[k - 1]:starts[k - 1] + k - 1]
        # The mask of GTPattern.shifted(k, r) on a valid pattern, one column
        # per r; nonzero() lists it in basis order, r fastest.
        ok = mid < up[:, :k]
        ok[:, 1:] &= low > mid[:, 1:]
        cols, r = np.nonzero(ok)
        nums, dens, values, unmatched = _cancelled_ratios(
            *_ladder_factors(table[cols], starts, k, r))
        bad = np.flatnonzero(unmatched | (nums < 0))
        if bad.size:  # the first in basis order, as the scalar path raises
            i = bad[0]
            if unmatched[i]:
                raise DegeneratePatternError(
                    f"unmatched zero denominator factor in ladder coefficient k={k} r={r[i] + 1}")
            raise ConsistencyError(
                f"negative squared coefficient {Fraction(int(nums[i]), int(dens[i]))} "
                f"for admissible shift k={k} r={r[i] + 1} on {self.patterns[cols[i]].rows}")
        targets = table[cols]
        targets[np.arange(len(cols)), starts[k] + r] += 1
        rows = np.array([index[row] for row in map(tuple, targets.tolist())], dtype=np.intp)
        self._ladders[k] = tuple(map(freeze, (rows, cols, nums, dens)))
        return rows, cols, np.sqrt(values)


def nonelementary_magnitudes(rep: Representation, l: int, n: int) -> Triplets:
    """|<pattern + sum of shifts| a_{l,n+1} |pattern>| for every basis
    pattern and shift combination, as the Triplets of a dim x dim matrix,
    from the product form of nonelementary_coefficient.

    Every combination (i_n, ..., i_l) raises one label per level; all of
    them are applied to the whole table at once, and each level's factors
    are those of _ladder_factors on the patterns that stay in the lattice.
    No position comes twice: distinct combinations reach distinct targets.
    """
    if not 1 <= l <= n < rep.N:
        raise DomainError(f"need 1 <= l <= n < {rep.N}, got l={l} n={n}")
    starts = row_starts(rep.N)
    levels = range(n, l - 1, -1)
    # 0-based shift indices, one column per level, in the order of
    # itertools.product over the scalar form's shift tuples
    combos = np.array(list(itertools.product(*(range(level) for level in levels))))
    moves = np.zeros((len(combos), rep.table.shape[1]), dtype=np.int64)
    for pos, level in enumerate(levels):
        moves[np.arange(len(combos)), starts[level] + combos[:, pos]] = 1
    cols, combo, rows = rep.raised(moves)
    shifts, sources = combos[combo], rep.table[cols]
    sign, num, den = 1, [], []
    for pos, level in enumerate(levels):
        s, level_num, level_den = _ladder_factors(
            sources, starts, level, shifts[:, pos],
            drop_upper=shifts[:, pos - 1] if level < n else None,
            drop_lower=shifts[:, pos + 1] if level > l else None)
        sign *= s
        num.append(level_num)
        den.append(level_den)
    nums, _, values, unmatched = _cancelled_ratios(
        sign, np.concatenate(num, axis=1), np.concatenate(den, axis=1))
    bad = np.flatnonzero(unmatched | (nums < 0))
    if bad.size:  # the scalar form raises on the first, in basis order
        pattern = rep.patterns[cols[bad[0]]]
        nonelementary_coefficient(pattern, l, n, shifts[bad[0]] + 1)
        raise ConsistencyError(
            f"batched a_{l},{n + 1} coefficient disagrees with the scalar form on {pattern.rows}")
    keep = np.flatnonzero(values)
    order = keep[np.argsort(rows[keep] * rep.dim + cols[keep])]
    return Triplets(rows[order], cols[order], np.sqrt(values[order]))


def gl_block_entries(rep: Representation, kind: str = "A", level: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(rows, cols, values, size) of the nonzero entries of the
    (s*d) x (s*d) matrix with generator blocks, s = level (default N), read
    from the module's stored triplets; size = s*d.

    kind "A" places a_{ij} at block (i, j); kind "Abar" places -a_{ji}.
    A level below N restricts to the gl(level) subalgebra generators.
    """
    s = rep.N if level is None else level
    if not 1 <= s <= rep.N:
        raise DomainError(f"level {s} outside 1..{rep.N}")
    if kind not in ("A", "Abar"):
        raise DomainError(f"unknown kind {kind!r}")
    d = rep.dim
    rows, cols, values = rep.entries
    i, j = np.divmod(rep.entry_gen, rep.N)
    if kind == "Abar":  # a_ij's entries go to block (j, i), negated
        i, j, values = j, i, -values
    if s < rep.N:
        keep = (i < s) & (j < s)
        rows, cols, values, i, j = (a[keep] for a in (rows, cols, values, i, j))
    return i * d + rows, j * d + cols, values, s * d


def gl_block_matrix(rep: Representation, kind: str = "A",
                    level: int | None = None) -> np.ndarray:
    """The dense matrix of gl_block_entries, scattered in one go."""
    rows, cols, values, size = gl_block_entries(rep, kind, level)
    big = np.zeros((size, size))
    big[rows, cols] = values
    return big


def casimir_eigenvalue_formula(lam, order: int) -> Fraction:
    """Closed-form Casimir eigenvalues: sum(lam_j) for order 1 and
    sum(lam_j * (lam_j + n + 1 - 2j)) for order 2."""
    lam = check_highest_weight(lam)
    n = len(lam)
    if order == 1:
        return sum(lam, Fraction(0))
    if order == 2:
        return sum((l * (l + n + 1 - 2 * j) for j, l in enumerate(lam, start=1)),
                   Fraction(0))
    raise DomainError(f"closed forms cover orders 1 and 2, got {order}")
