"""Gelfand-Tsetlin patterns, branching and Weyl dimensions for gl(n) weights.

A dominant weight with integer label differences indexes an irreducible
module; patterns interlacing down the chain gl(1) < gl(2) < ... < gl(n)
enumerate its canonical orthonormal basis.  The canonical order is
lexicographic on the rows read top row first, larger labels first, so the
highest weight state always has ordinal 0.  pattern_table lists the basis
as integer label offsets, the form modules are built on; GTPattern is the
exact form, one pattern at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import DomainError, to_rational

Weight = tuple[Fraction, ...]


def weight(labels) -> Weight:
    """Coerce a sequence of ints/strings/Fractions to a weight tuple."""
    return tuple(to_rational(x) for x in labels)


def format_weight(lam) -> str:
    return "(" + ",".join(str(x) for x in lam) + ")"


def is_dominant(lam) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def has_integer_steps(lam) -> bool:
    return all((lam[i] - lam[i + 1]).denominator == 1 for i in range(len(lam) - 1))


def check_highest_weight(lam) -> Weight:
    """Validate dominance and integer label differences, returning the weight."""
    lam = weight(lam)
    if not lam:
        raise DomainError("weight must have at least one label")
    if not is_dominant(lam):
        raise DomainError(
            f"weight {format_weight(lam)} is not dominant (labels must not increase)")
    if not has_integer_steps(lam):
        raise DomainError(
            f"weight {format_weight(lam)} must have integer label differences")
    return lam


def rows_interlace(upper, lower) -> bool:
    """Betweenness: upper[i] >= lower[i] >= upper[i+1] with integer gaps."""
    if len(lower) != len(upper) - 1:
        return False
    for i, low in enumerate(lower):
        if not (upper[i] >= low >= upper[i + 1]):
            return False
        if (upper[i] - low).denominator != 1:
            return False
    return True


def branch(lam) -> list[Weight]:
    """All gl(n) weights interlacing a gl(n+1) weight, in canonical order:
    label i ranges over [lam_{i+1}, lam_i] independently, so the list is the
    product of those ranges taken from the top, multiplicity free and ordered
    lexicographically with larger labels first, as the patterns are."""
    lam = check_highest_weight(lam)
    if len(lam) < 2:
        raise DomainError("branching needs a gl(n+1) weight with n >= 1")
    return list(itertools.product(*([hi - k for k in range(int(hi - lo) + 1)]
                                    for hi, lo in zip(lam, lam[1:]))))


@dataclass(frozen=True)
class GTPattern:
    """Triangular array of interlacing labels; rows[0] is the top row.

    Row k (1-based level, length k) is rows[n - k] for an n-label pattern.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def row(self, k: int) -> tuple[Fraction, ...]:
        """Length-k row at level k (1 <= k <= size)."""
        if not 1 <= k <= self.size:
            raise DomainError(f"level {k} outside 1..{self.size}")
        return self.rows[self.size - k]

    def label(self, k: int, i: int) -> Fraction:
        """Label at level k, position i (both 1-based)."""
        return self.row(k)[i - 1]

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(x for row in self.rows for x in row)

    def is_valid(self) -> bool:
        return all(
            rows_interlace(self.rows[i], self.rows[i + 1])
            for i in range(self.size - 1)
        )

    def shifted(self, k: int, r: int) -> "GTPattern | None":
        """Pattern with label (k, r) raised by 1, or None if that leaves the
        interlacing lattice (shifted_many takes other steps)."""
        if not 1 <= r <= k:
            raise DomainError(f"row index {r} outside 1..{k}")
        n = self.size
        if not 1 <= k < n:
            raise DomainError(f"only levels 1..{n - 1} may shift (top row is fixed)")
        idx = n - k
        new_row = list(self.rows[idx])
        new_row[r - 1] += 1
        rows = self.rows[:idx] + (tuple(new_row),) + self.rows[idx + 1:]
        if not rows_interlace(rows[idx - 1], rows[idx]):
            return None
        if k > 1 and not rows_interlace(rows[idx], rows[idx + 1]):
            return None
        return GTPattern(rows)

    def shifted_many(self, moves) -> "GTPattern | None":
        """Pattern with several (level, index, step) moves applied at once.

        Validity is checked only on the final pattern; a chain may pass
        through transiently broken intermediate shapes.
        """
        rows = [list(row) for row in self.rows]
        n = self.size
        for k, r, step in moves:
            if not (1 <= k < n and 1 <= r <= k):
                raise DomainError(f"move ({k}, {r}) outside the pattern")
            rows[n - k][r - 1] += step
        candidate = GTPattern(tuple(tuple(row) for row in rows))
        return candidate if candidate.is_valid() else None


def pattern_weight(p: GTPattern) -> Weight:
    """gl(n) weight of a pattern: w_k = sum(row k) - sum(row k-1)."""
    sums = [Fraction(0)] * (p.size + 1)
    for k in range(1, p.size + 1):
        sums[k] = sum(p.row(k), Fraction(0))
    return tuple(sums[k] - sums[k - 1] for k in range(1, p.size + 1))


def row_starts(n: int) -> list[int]:
    """Column of each level's first label in a pattern table row: entry k
    (1 <= k <= n) is where level k starts, the top row (level n) at 0;
    entry 0, for the empty level, is 0."""
    starts = [0] * (n + 1)
    for k in range(n - 1, 0, -1):
        starts[k] = starts[k + 1] + k + 1
    return starts


def pattern_table(lam) -> np.ndarray:
    """All patterns with top row lam as a (d, n(n+1)/2) int64 table.

    Row c is the c-th pattern in canonical order, its rows flattened top row
    first; each entry is the label minus lam_n, an integer because every
    label differs from lam_n by one.  Below a fixed upper row the labels of
    the next row range independently over [upper[i+1], upper[i]], so each
    label column is filled by repeating every partial pattern once per
    value, larger values first.
    """
    lam = check_highest_weight(lam)
    n = len(lam)
    if lam[0] - lam[-1] >= 2 ** 63:
        raise DomainError(f"label offsets of {format_weight(lam)} do not fit int64")
    table = np.array([[int(x - lam[-1]) for x in lam]], dtype=np.int64)
    for m in range(n, 1, -1):  # the row of length m - 1 under the last row
        upper = table.shape[1] - m
        for i in range(upper, upper + m - 1):
            counts = table[:, i] - table[:, i + 1] + 1
            first = np.repeat(np.cumsum(counts) - counts, counts)
            table = np.repeat(table, counts, axis=0)
            column = table[:, i] - (np.arange(len(table)) - first)
            table = np.column_stack((table, column))
    return table


def table_weights(table: np.ndarray, n: int) -> np.ndarray:
    """gl(n) weight of every pattern of a table minus lam_n, from the label
    offsets: w_k = sum(row k) - sum(row k-1) = lam_n + (the same of the
    offsets)."""
    starts = row_starts(n)
    sums = np.add.reduceat(table, starts[n:0:-1], axis=1)[:, ::-1]
    weights = sums.copy()
    weights[:, 1:] -= sums[:, :-1]
    return weights


def table_interlaces(table: np.ndarray, n: int) -> np.ndarray:
    """Which rows of a table of n-label patterns (any leading shape, label
    offsets on the last axis) interlace: upper[i] >= lower[i] >= upper[i+1]
    on every pair of rows, one comparison per level.  Gaps are integers by
    construction."""
    starts = row_starts(n)
    ok = np.ones(table.shape[:-1], dtype=bool)
    for m in range(n, 1, -1):
        upper = table[..., starts[m]:starts[m] + m]
        lower = table[..., starts[m - 1]:starts[m - 1] + m - 1]
        ok &= ((upper[..., :-1] >= lower) & (lower >= upper[..., 1:])).all(axis=-1)
    return ok


def table_labels(lam: Weight, offsets: np.ndarray, convert) -> np.ndarray:
    """convert(lam_n + v) for each entry v of an integer offset array; each
    distinct value is converted once and looked up by offset."""
    low = int(offsets.min(initial=0))
    values = np.array([convert(lam[-1] + v)
                       for v in range(low, int(offsets.max(initial=0)) + 1)])
    return values[offsets - low]


def table_patterns(lam: Weight, table) -> list[GTPattern]:
    """GTPatterns of the rows of pattern_table(lam), lam already checked.
    Labels are looked up by offset, so each Fraction is made once."""
    n = len(lam)
    labels = [lam[-1] + offset for offset in range(int(lam[0] - lam[-1]) + 1)]
    starts = row_starts(n)
    bounds = [(starts[k], starts[k] + k) for k in range(n, 0, -1)]
    return [GTPattern(tuple(tuple(labels[o] for o in flat[a:b]) for a, b in bounds))
            for flat in table.tolist()]


def enumerate_patterns(lam) -> list[GTPattern]:
    """All patterns with top row lam, in canonical order.

    The length equals dimension(lam); cross-checking the two is the
    standard sanity test on the enumeration.
    """
    lam = check_highest_weight(lam)
    return table_patterns(lam, pattern_table(lam))


def dimension(lam) -> int:
    """Weyl dimension formula, prod_{i<j} (lam_i - lam_j + j - i) / (j - i).

    Computed exactly, on the integer label offsets lam_i - lam_n, as one
    integer quotient; serves as an independent oracle for the pattern count.
    """
    lam = check_highest_weight(lam)
    return offset_dimension([int(x - lam[-1]) for x in lam])


def offset_dimension(offsets) -> int:
    """dimension of the dominant weight with these integer label offsets
    from any common value, which the formula's differences drop."""
    n = len(offsets)
    numerator = denominator = 1
    for i in range(n):
        for j in range(i + 1, n):
            numerator *= offsets[i] - offsets[j] + j - i
            denominator *= j - i
    value, rest = divmod(numerator, denominator)
    if rest:
        raise DomainError(f"dimension of offsets {tuple(offsets)} is not integral")
    return value


def pattern_ordinals(patterns) -> dict[GTPattern, int]:
    """Ordinal of each pattern in the canonical basis order."""
    return {p: i for i, p in enumerate(patterns)}
