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
integer, and the coefficients of every level (for the melcross check, the
product forms of every generator a_{l,n+1}) are computed for all patterns
in one batch (_product_forms).  elementary_coefficient and
nonelementary_coefficient are the scalar forms of the same closed
formulas, on one GTPattern at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

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
    pattern_ordinals,  # unused here, kept as a name the benchmark's tracer wraps
    pattern_table,
    pattern_weight,  # unused here, kept as a name the benchmark's tracer wraps
    row_starts,
    table_interlaces,
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


def _exact_products(sign, num: np.ndarray, den: np.ndarray):
    """sign * prod(num[i]) and prod(den[i]) for each row of two integer
    factor arrays; sign is one int, or one per row.

    While no product can reach 2**53 they are int64, and exact in float64
    too; otherwise the whole batch is taken in Python ints (object arrays).
    Each row's |product| is bounded by its float64 product: that is within
    a factor (1 + 2**-53)**(2 * width) of it, so below 2**52 the exact one
    is below 2**53.
    """
    if all(np.prod(np.abs(a), axis=1, dtype=float).max(initial=0) < 2 ** 52 for a in (num, den)):
        return sign * num.prod(axis=1), den.prod(axis=1)
    signs = np.broadcast_to(sign, len(num)).tolist()
    return (np.array([s * math.prod(row) for s, row in zip(signs, num.tolist())], dtype=object),
            np.array([math.prod(row) for row in den.tolist()], dtype=object))


def _exact_ratios(sign, num: np.ndarray, den: np.ndarray):
    """(numerators, denominators, quotients): the exact products of
    _exact_products and each quotient as the correctly rounded float, equal
    to float(Fraction(numerator, denominator)).  For int64 that is one
    float64 division of exact conversions, otherwise Python int true
    division.  No denominator factor may be zero."""
    p, q = _exact_products(sign, num, den)
    return p, q, np.asarray(p / q, dtype=float)


def _cancelled_ratios(sign, num: np.ndarray, den: np.ndarray):
    """_cancelled_ratio for each row of two integer factor arrays.

    Each zero denominator factor cancels one zero numerator factor, counted
    per row; a zero numerator factor left over makes the ratio exactly 0.
    Every zero factor is set to 1 in place.
    Returns _exact_ratios' (numerators, denominators, quotients) and the
    rows with more zero denominator factors than numerator ones, on which
    the scalar form raises.
    """
    zeros = num == 0
    znum = zeros.sum(axis=1)
    num[zeros] = 1
    zeros = den == 0
    zden = zeros.sum(axis=1)
    den[zeros] = 1
    nums, dens, values = _exact_ratios(sign, num, den)
    zero = znum > zden
    nums[zero] = 0
    values[zero] = 0.0
    return nums, dens, values, znum < zden


class _Layout(NamedTuple):
    """Read-only index arrays of level ranges of gl(N), the same for every
    module.

    starts[k] is the table column of label 0 of level k (0 <= k <= N),
    columns[k, i] that of label i of level k where i < k (before[k, i]),
    and a column of the same row beyond.

    factors holds the factors of the squared product forms of every level
    as templates on a source pattern's labels, (table column, s, c, level)
    each: the first `width` those of the numerator, then those of the
    denominator.  With x the raised label of the level and r its index,
    each factor is s * (label - (x - r - 1)) + c: numerator factors up[p] -
    x + r - p and x - low[q] + q - r + 1, and t = x - mid[q] + q - r, whose
    pair t(t + 1) for q != r is one denominator factor: t and t + 1 are
    never both zero, so the pair has as many zero factors as the two, and
    a nonzero pair is positive.  Within a range the levels next to k cancel
    one numerator factor each, the up factor of index p where level k + 1
    is raised at p and the low factor of index q where level k - 1 is
    raised at q: drops holds that (level, index) of each numerator factor.
    own holds the q of each denominator factor, which is 1 where q is the
    level's own index.

    tops, bottoms and signs hold each range's top and bottom level and the
    sign of the product of its levels' ladder squares; ends is the top
    level of a range of one level and N for a longer one, steps the levels
    below the top of the longest range, and whole whether every range has
    every level.
    """

    starts: np.ndarray
    columns: np.ndarray
    before: np.ndarray
    factors: tuple
    width: int
    drops: tuple
    own: np.ndarray
    tops: np.ndarray
    bottoms: np.ndarray
    ends: np.ndarray
    steps: int
    whole: bool
    signs: np.ndarray


@lru_cache(maxsize=64)
def _layout(N: int, ranges: tuple) -> _Layout:
    """The _Layout of the level ranges (l, n) of gl(N)."""
    starts = row_starts(N)
    num, den = [], []
    for k in range(1, N):
        num += [(starts[k + 1] + p, 1, -p - 1, k, k + 1, p) for p in range(k + 1)]
        num += [(starts[k - 1] + q, -1, q + 2, k, k - 1, q) for q in range(k - 1)]
        den += [(starts[k] + q, -1, q + 1, k, q) for q in range(k)]

    def fields(rows):
        return tuple(freeze(np.array(field)) for field in zip(*rows))

    starts, index = np.array(starts), np.arange(N)
    bottoms, tops = np.array(ranges).T
    return _Layout(
        starts=freeze(starts),
        columns=freeze(np.minimum(starts[:, None] + index, starts[1])),
        before=freeze(index < index[:, None]),
        factors=fields([f[:4] for f in num + den]),
        width=len(num),
        drops=fields([f[4:] for f in num]),
        own=fields([f[4:] for f in den])[0],
        tops=freeze(tops),
        bottoms=freeze(bottoms),
        ends=freeze(np.where(tops == bottoms, tops, N)),
        steps=int((tops - bottoms).max()),
        whole=bool(np.all((bottoms == 1) & (tops == N - 1))),
        signs=freeze(np.array([-1 if sum(range(l, n + 1)) % 2 else 1 for l, n in ranges])))


def _admissible_shifts(table: np.ndarray, layout: _Layout):
    """Every (range, pattern, shift combination) of the level ranges
    bottoms[i]..tops[i] of the layout that raises a pattern of the table
    to a pattern.

    A combination raises one label per level, from the range's top level
    down: the top levels of all ranges are one grid over ranges and
    patterns, and step s then takes level tops - s of every range still
    open, so only admissible partial combinations are carried.  Raising
    labels of a valid pattern can break just the inequalities in which a
    raised label meets a row next to it, three for level k raised at index
    i (0-based; m the labels, m' the raised ones):
    - m_k[i] < m'_{k+1}[i], the label above, itself raised where i_{k+1} = i;
    - m'_k[q] >= m'_{k+1}[q + 1] with q = i_{k+1} - 1, under the raised
      label of level k + 1: m_k[q] >= m_{k+1}[q + 1] already, so this fails
      only where the two are equal and i != q;
    - at the range's bottom level, m_{k-1}[i - 1] > m_k[i] for i >= 1.
    Each is read from tables of label gaps per (pattern, level, index).
    Returns (ranges, sources, shifts): the range, the source ordinal and
    the raised index i_k of each level k in column k (-1 outside the range,
    and in columns 0 and N), sorted by range, then source, then (i_n, ...,
    i_l) in the order of itertools.product.
    """
    tops, bottoms = layout.tops, layout.bottoms
    labels = table[:, layout.columns]
    index = np.arange(labels.shape[2])  # a label's index within its level
    # rise[c, k, i] = m_{k+1}[i] - m_k[i] (-1 for i >= k), fall[c, k, q]
    # whether m_k[q] > m_{k+1}[q + 1] (true for q = -1, under no label),
    # low[c, k, i] whether m_{k-1}[i - 1] > m_k[i] or i = 0 (all true on
    # the row k = N, for no check)
    rise = np.where(layout.before, labels[:, 1:] - labels[:, :-1], -1)
    low = np.ones(labels.shape, dtype=bool)
    low[:, 1:-1, 1:] = labels[:, :-2, :-1] > labels[:, 1:-1, 1:]
    if layout.steps:  # only the levels below a range's top read fall
        fall = np.ones(rise.shape, dtype=bool)
        fall[:, :, :-1] = labels[:, :-1, :-1] > labels[:, 1:, 1:]
    ok = rise[:, tops] > 0
    ok &= low[:, layout.ends]
    ranges, sources, raised = np.nonzero(ok.transpose(1, 0, 2))
    shifts = np.full((len(ranges), len(index) + 1), -1)
    shifts[np.arange(len(ranges)), tops[ranges]] = raised
    ended = []
    for step in range(1, layout.steps + 1):
        level = tops[ranges] - step
        done = level < bottoms[ranges]
        if done.any():  # the ranges that ended a level above
            ended.append((ranges[done], sources[done], shifts[done]))
            ranges, sources, shifts, level = (a[~done] for a in (ranges, sources, shifts, level))
        above = shifts[np.arange(len(ranges)), level + 1]
        under = above - 1
        ok = rise[sources, level] + (index == above[:, None]) > 0
        ok &= fall[sources, level, under][:, None] | (index == under[:, None])
        ok &= low[sources, np.where(level == bottoms[ranges], level, len(index))]
        row, raised = np.nonzero(ok)
        ranges, sources, shifts, level = ranges[row], sources[row], shifts[row], level[row]
        shifts[np.arange(len(row)), level] = raised
    if ended:  # ranges of different lengths end at different steps
        ranges, sources, shifts = (np.concatenate(a)
                                   for a in zip(*ended, (ranges, sources, shifts)))
        order = np.argsort(ranges, kind="stable")
        ranges, sources, shifts = ranges[order], sources[order], shifts[order]
    return ranges, sources, shifts


# The most factor entries _product_forms takes through _cancelled_ratios at
# once: its entries go in blocks of rows, so its peak holds the factors of
# one block.  A dim-1024 melcross job, 10 984 entries of 30 factors, takes
# six blocks and peaks 2.7 MiB above the module under tracemalloc (9.3 MiB
# in one block); the build's ladders and the melcross product forms of
# every benchmark module fit one block.
PRODUCT_ENTRIES = 2 ** 16


def _product_forms(rep: "Representation", ranges):
    """The squared closed product form of every admissible (pattern, shift
    combination) of every level range (l, n) of ranges, in one exact
    batch: the magnitude of a_{l,n+1} of nonelementary_coefficient, or for
    l = n the ladder coefficient of elementary_coefficient.

    Every entry takes the factors of every level (_Layout.factors), those
    of levels outside its range set to 1, and the sign of its range.
    _cancelled_ratios passes, one per block of at most PRODUCT_ENTRIES
    factors, give every exact numerator and denominator and the correctly
    rounded float quotient; each block's products are int64 or Python ints
    on their own, the same integers either way.  Returns (owner, cols,
    rows, nums, dens, values), one entry per admissible combination in the
    order of _admissible_shifts: its range's index in ranges, its source
    and target ordinals, and its exact square with that square's float.  A
    square the scalar forms reject (an unmatched zero denominator factor,
    or a negative one) raises their error on the first.
    """
    layout = _layout(rep.N, tuple(ranges))
    owner, cols, shifts = _admissible_shifts(rep.table, layout)
    step = max(1, PRODUCT_ENTRIES // len(layout.factors[0]))
    blocks = [_product_block(rep, layout, ranges, owner[lo:lo + step], cols[lo:lo + step],
                             shifts[lo:lo + step])
              for lo in range(0, max(len(cols), 1), step)]
    return (owner, cols, *blocks[0]) if len(blocks) == 1 else (
        owner, cols, *(np.concatenate(part) for part in zip(*blocks)))


def _product_block(rep: "Representation", layout: _Layout, ranges, owner: np.ndarray,
                   cols: np.ndarray, shifts: np.ndarray):
    """(rows, nums, dens, values) of _product_forms for one block of its
    entries, each given by its range's index, its source ordinal and its
    shifts."""
    table = rep.table
    sources = table[cols]
    # the flat index in sources of each level's raised label x, and x - r - 1
    # (junk at levels outside the range)
    raised = layout.starts + shifts + (np.arange(len(cols)) * table.shape[1])[:, None]
    x = sources.ravel()[raised] - shifts - 1
    column, s, c, level = layout.factors
    factors = sources[:, column]
    factors -= x[:, level]
    factors *= s
    factors += c
    num, t = factors[:, :layout.width], factors[:, layout.width:]
    den = t * (t + 1)
    if layout.steps:  # a raised level next to another drops one factor
        drop_level, drop = layout.drops
        num[shifts[:, drop_level] == drop] = 1
    own = shifts[:, level[layout.width:]]
    den[own == layout.own] = 1
    if not layout.whole:  # levels outside the range have no factors
        num[shifts[:, level[:layout.width]] < 0] = 1
        den[own < 0] = 1
    nums, dens, values, unmatched = _cancelled_ratios(layout.signs[owner], num, den)
    bad = unmatched | (nums < 0)
    if bad.any():  # on the first in range, then basis order, in the scalar forms' words
        i = np.flatnonzero(bad)[0]
        l, n = ranges[owner[i]]
        pattern, indices = rep.patterns[cols[i]], tuple((shifts[i, n:l - 1:-1] + 1).tolist())
        what = (f"ladder coefficient k={n} r={indices[0]}" if l == n
                else f"coefficient a_{l},{n + 1} shifts {indices} on {pattern.rows}")
        if unmatched[i]:
            raise DegeneratePatternError(f"unmatched zero denominator factor in {what}")
        where = (f"admissible shift k={n} r={indices[0]}" if l == n
                 else f"a_{l},{n + 1} shifts {indices}")
        raise ConsistencyError(
            f"negative squared coefficient {Fraction(int(nums[i]), int(dens[i]))} "
            f"for {where} on {pattern.rows}")
    sources.ravel()[raised[shifts >= 0]] += 1  # now the targets
    return rep._ordinals(sources), nums, dens, values


def _block_diagonal(block: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    values: np.ndarray, count: int, d: int) -> Triplets:
    """Row-major Triplets of the block-diagonal matrix of count d x d
    matrices, entry e being (rows[e], cols[e]) = values[e] of matrix
    block[e]; zeros dropped."""
    keep = values != 0
    shift = block[keep] * d
    rows, cols = rows[keep] + shift, cols[keep] + shift
    order = np.argsort(rows * (count * d) + cols)
    return Triplets(rows[order], cols[order], values[keep][order])


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
    `entries`, `entry_gen`, `entry_starts`, the ladder squares and the
    pattern keys) is read-only, so one module can be shared by any number
    of checks.  The basis is held as `table`, the int64 pattern table
    (gtbasis.pattern_table); `_ordinals` finds the ordinal of any pattern
    by binary search in `_keys`, one ascending bytes key per table row.
    The nonzero entries of all N^2
    generators are stored once, in one Triplets table `entries`:
    generator a_ij is g = (i-1)N + j-1, entry_gen holds g for each entry,
    its entries are entry_starts[g]:entry_starts[g+1], row-major, and
    `triplets(i, j)` is that slice.  `gen(i, j)` scatters a fresh dense
    d x d matrix from it on each call, so no check can read a dense copy
    that differs from the triplets.  `patterns`, in basis order (so
    gtbasis.pattern_ordinals(patterns) maps each to its ordinal), and the
    exact Surd sidecar `raising_surds` of the elementary raising
    generators, keyed by (row, column) ordinal so squared-norm identities
    can be checked in rational arithmetic, are made on first use too.
    """

    def __init__(self, labels):
        self.weight: Weight = weight(labels)
        self.N = len(self.weight)
        self.table = freeze(pattern_table(self.weight))  # validates the weight first
        self.dim = len(self.table)
        # k -> (rows, cols, numerators, denominators) of a_{k,k+1}'s squared
        # entries, in basis order.
        self._ladders: dict[int, tuple[np.ndarray, ...]] = {}
        self._build()

    @cached_property
    def patterns(self) -> list[GTPattern]:
        return table_patterns(self.weight, self.table)

    @cached_property
    def _keys(self) -> np.ndarray:
        """One bytes key per table row, ascending: each label offset's
        distance from the largest, big-endian in the narrowest unsigned
        type, so that comparing keys bytewise compares the rows
        lexicographically, reversed (pattern_table lists the basis in
        descending lexicographic order)."""
        return freeze(self._distances(self.table).ravel())

    def _distances(self, rows: np.ndarray) -> np.ndarray:
        """Rows of label offsets as (rows, 1) bytes keys, as _keys are made."""
        top = int(self.table[0, 0])
        dist = np.ascontiguousarray(top - rows, dtype=np.min_scalar_type(top).newbyteorder(">"))
        return dist.view(np.dtype((np.void, dist.shape[1] * dist.itemsize)))

    def _ordinals(self, rows: np.ndarray) -> np.ndarray:
        """The ordinal of each row of label offsets, every one a pattern of
        the basis, by binary search among the _keys."""
        return np.searchsorted(self._keys, self._distances(rows).ravel())

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
        return cols, move, self._ordinals(moved[cols, move])

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
        self._memo = {}

    def _kept(self, key, make, *args):
        """make(*args), made once per key for the stored entries, which
        determine it: _store drops every kept value.  What is kept must be
        read-only, like the rest of the module.  A kept module serves its
        later jobs the split block layouts of its characteristic matrices
        (charident.build_char_matrix) and its export table (cli._gl_table),
        3 intp per row N*d for the layouts."""
        if key not in self._memo:
            self._memo[key] = make(*args)
        return self._memo[key]

    def _build(self):
        table, d, N = self.table, self.dim, self.N
        # a_kk acts by the pattern weights lam_N + offset.  An entry is
        # stored where that exact label is nonzero, with the label's float,
        # which is 0.0 for a label too small for float64.  Each distinct
        # label is p/q with q the denominator of lam_N, and its float is the
        # correctly rounded quotient p / q of Python ints, as float() of the
        # Fraction takes it.
        weights = table_weights(table, N)
        low, q = int(weights.min()), self.weight[-1].denominator
        labels = [self.weight[-1].numerator + v * q for v in range(low, int(weights.max()) + 1)]
        diagonals = np.array([p / q for p in labels])[weights - low]
        k, basis = np.nonzero(np.array([p != 0 for p in labels])[weights - low].T)
        parts = [(k * (N + 1), basis, basis, diagonals[basis, k])]
        # The generators a_{i,i+size} of one size are the diagonal blocks
        # i - 1 of one block-diagonal matrix: the elementary ones (size 1)
        # from the ladder coefficients of every level, found in one batch,
        # each further size as one commutator a_{i,j} = [a_{i,j-1},
        # a_{j-1,j}] of such matrices.  Each a_ij is stored with its
        # transpose a_ji.  The exact squares of a_{k,k+1}'s entries are kept
        # in _ladders[k], in basis order of the column, r fastest.
        for size in range(1, N):
            if size == 1:
                block, *ladders, values = _product_forms(self, [(k, k) for k in range(1, N)])
                cols, rows, nums, dens = map(freeze, ladders)
                bounds = np.searchsorted(block, np.arange(N)).tolist()
                for k, lo, hi in zip(range(1, N), bounds, bounds[1:]):
                    self._ladders[k] = tuple(a[lo:hi] for a in (rows, cols, nums, dens))
                stack = elementary = _block_diagonal(block, rows, cols, np.sqrt(values), N - 1, d)
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
