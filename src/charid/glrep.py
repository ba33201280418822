"""Representation matrices of gl(N) generators on the Gelfand-Tsetlin basis.

Diagonal generators act by pattern weights.  Elementary raising generators
a_{k,k+1} have closed-form ladder coefficients (square roots of rationals,
kept exact as Surds alongside the float matrices), lowering generators are
their transposes, and the remaining generators are nested commutators
a_{i,j} = [a_{i,j-1}, a_{j-1,j}], which fixes every phase constructively.

A module is built on the integer pattern table of gtbasis.pattern_table:
every ladder factor is a difference of labels plus an integer, hence an
integer, and each level's coefficients are computed for all patterns at
once.  elementary_coefficient and nonelementary_coefficient are the scalar
forms of the same closed formulas, on one GTPattern at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .kernel import (
    ConsistencyError,
    DegeneratePatternError,
    DomainError,
    SchurViolationError,
    Surd,
    Tolerance,
    commutator,
    freeze,
    matrix_power,
    max_abs,
    partial_trace_block,
    rationalize,
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
    table_patterns,
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


def _exact_ratios(sign: int, num: np.ndarray, den: np.ndarray):
    """sign * prod(num[i]) / prod(den[i]) for each row of two integer factor
    arrays, the denominator factors all positive.

    Returns (numerators, denominators, quotients): the exact products and
    each quotient as the correctly rounded float, equal to
    float(Fraction(numerator, denominator)).  While no product can reach
    2**53 they are int64 and the quotient is one float64 division of exact
    conversions; otherwise the whole batch is taken in Python ints, whose
    true division is correctly rounded too.
    """
    largest = max(int(np.abs(a).max(initial=1)) for a in (num, den))
    if largest ** max(num.shape[1], den.shape[1]) < 2 ** 53:
        p, q = sign * num.prod(axis=1), den.prod(axis=1)
        return p, q, p / q
    p = [sign * math.prod(row) for row in num.tolist()]
    q = [math.prod(row) for row in den.tolist()]
    return (np.array(p, dtype=object), np.array(q, dtype=object),
            np.array([a / b for a, b in zip(p, q)], dtype=float))


class Representation:
    """All generator matrices of one irreducible gl(N) module.

    Immutable after construction.  The basis is held as `table`, the int64
    pattern table (gtbasis.pattern_table).  `patterns`, `ordinal` and the
    exact Surd sidecar `raising_surds` of the elementary raising generators,
    keyed by (row, column) ordinal so squared-norm identities can be checked
    in rational arithmetic, are made from it on first use.
    """

    def __init__(self, labels):
        self.weight: Weight = check_highest_weight(weight(labels))
        self.N = len(self.weight)
        self.table = pattern_table(self.weight)
        self.dim = len(self.table)
        # k -> (rows, cols, numerators, denominators) of a_{k,k+1}'s squared
        # entries, in basis order.
        self._ladders: dict[int, tuple[np.ndarray, ...]] = {}
        self._gen: dict[tuple[int, int], np.ndarray] = {}
        self._build()

    @cached_property
    def patterns(self) -> list[GTPattern]:
        return table_patterns(self.weight, self.table)

    @cached_property
    def ordinal(self) -> dict[GTPattern, int]:
        return pattern_ordinals(self.patterns)

    @cached_property
    def raising_surds(self) -> dict[int, dict[tuple[int, int], Surd]]:
        return {k: {(row, col): Surd.sqrt(Fraction(p, q))
                    for row, col, p, q in zip(*(a.tolist() for a in ladder))}
                for k, ladder in self._ladders.items()}

    def gen(self, i: int, j: int) -> np.ndarray:
        """Matrix of the generator a_{ij} (1-based indices)."""
        if not (1 <= i <= self.N and 1 <= j <= self.N):
            raise DomainError(f"generator indices ({i},{j}) outside 1..{self.N}")
        return self._gen[(i, j)]

    def generator_labels(self) -> list[tuple[int, int]]:
        return sorted(self._gen)

    def _build(self):
        table = self.table
        starts = row_starts(self.N)
        # a_kk acts by sum(row k) - sum(row k-1) = lam_N + (the same of the
        # offsets); each value in their range goes through float() once.
        sums = np.add.reduceat(table, starts[self.N:0:-1], axis=1)[:, ::-1]
        offsets = sums.copy()
        offsets[:, 1:] -= sums[:, :-1]
        low = int(offsets.min())
        floats = np.array([float(self.weight[-1] + v)
                           for v in range(low, int(offsets.max()) + 1)])
        diagonals = floats[offsets - low]
        for k in range(1, self.N + 1):
            self._gen[(k, k)] = freeze(np.diag(diagonals[:, k - 1]))
        index = {row: c for c, row in enumerate(map(tuple, table.tolist()))}
        for k in range(1, self.N):
            self._gen[(k, k + 1)] = freeze(self._raising(k, starts, index))
            self._gen[(k + 1, k)] = freeze(self._gen[(k, k + 1)].T.copy())
        for span in range(2, self.N):
            for i in range(1, self.N - span + 1):
                j = i + span
                mat = commutator(self._gen[(i, j - 1)], self._gen[(j - 1, j)])
                self._gen[(i, j)] = freeze(mat)
                self._gen[(j, i)] = freeze(mat.T.copy())

    def _raising(self, k: int, starts, index) -> np.ndarray:
        """a_{k,k+1} from the ladder coefficients of every admissible
        (pattern, r); its exact squares are kept in _ladders[k].

        The factors are those of _squared_coefficient_factors on label
        offsets.  With x the shifted label, each is s * (label - x + r) + c:
        up[p] - x + r - p, x - low[l] + l - r + 1, and t = x - mid[l] + l - r,
        whose pair t(t + 1) for l != r is one denominator factor: t and t + 1
        are never both zero, so the pair has as many zero factors as the two,
        and a nonzero pair is positive.
        """
        table = self.table
        up = table[:, starts[k + 1]:starts[k + 1] + k + 1]
        mid = table[:, starts[k]:starts[k] + k]
        low = table[:, starts[k - 1]:starts[k - 1] + k - 1]
        # The mask of GTPattern.shifted(k, r) on a valid pattern, one column
        # per r; nonzero() lists it in basis order, r fastest.
        ok = mid < up[:, :k]
        ok[:, 1:] &= low > mid[:, 1:]
        cols, r = np.nonzero(ok)
        labels = np.concatenate((up, low, mid), axis=1)[cols]
        sign = np.repeat([1, -1, -1], [k + 1, k - 1, k])
        shift = np.concatenate((-np.arange(1, k + 2), np.arange(2, k + 1), np.arange(1, k + 1)))
        factors = sign * (labels - mid[cols, r][:, None] + (r[:, None] + 1)) + shift
        num, t = factors[:, :2 * k], factors[:, 2 * k:]
        den = t * (t + 1)
        den[np.arange(len(cols)), r] = 1
        # A zero denominator factor cancels one zero numerator factor; an
        # uncancelled zero numerator factor makes the coefficient zero.
        znum = np.count_nonzero(num == 0, axis=1)
        zden = np.count_nonzero(den == 0, axis=1)
        num[num == 0] = 1
        den[den == 0] = 1
        nums, dens, values = _exact_ratios(-1 if k % 2 else 1, num, den)
        zero = znum > zden
        nums[zero] = 0
        values[zero] = 0.0
        bad = np.flatnonzero((znum < zden) | (nums < 0))
        if bad.size:  # the first in basis order, as the scalar path raises
            i = bad[0]
            if znum[i] < zden[i]:
                raise DegeneratePatternError(
                    f"unmatched zero denominator factor in ladder coefficient k={k} r={r[i] + 1}")
            raise ConsistencyError(
                f"negative squared coefficient {Fraction(int(nums[i]), int(dens[i]))} "
                f"for admissible shift k={k} r={r[i] + 1} on {self.patterns[cols[i]].rows}")
        targets = table[cols]
        targets[np.arange(len(cols)), starts[k] + r] += 1
        rows = np.array([index[row] for row in map(tuple, targets.tolist())], dtype=np.intp)
        self._ladders[k] = (rows, cols, nums, dens)
        mat = np.zeros((self.dim, self.dim))
        mat[rows, cols] = np.sqrt(values)
        return mat


def gl_block_matrix(rep: Representation, kind: str = "A",
                    level: int | None = None) -> np.ndarray:
    """(s*d) x (s*d) matrix with generator blocks, s = level (default N).

    kind "A" places a_{ij} at block (i, j); kind "Abar" places -a_{ji}.
    A level below N restricts to the gl(level) subalgebra generators.
    """
    s = rep.N if level is None else level
    if not 1 <= s <= rep.N:
        raise DomainError(f"level {s} outside 1..{rep.N}")
    d = rep.dim
    big = np.zeros((s * d, s * d))
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            if kind == "A":
                block = rep.gen(i, j)
            elif kind == "Abar":
                block = -rep.gen(j, i)
            else:
                raise DomainError(f"unknown kind {kind!r}")
            big[(i - 1) * d:i * d, (j - 1) * d:j * d] = block
    return big


def casimir_sigma(rep: Representation, order: int,
                  tol: Tolerance | None = None) -> Fraction:
    """Eigenvalue of the order-M Casimir trace on the module.

    Takes the block partial trace of the M-th power of the generator block
    matrix, checks the result is scalar (Schur) and rounds it to an exact
    rational.
    """
    if order < 1:
        raise DomainError(f"Casimir order must be >= 1, got {order}")
    tol = tol or Tolerance()
    big = gl_block_matrix(rep, "A")
    powered = matrix_power(big, order)
    traced = partial_trace_block(powered, rep.N, rep.dim)
    scalar = float(np.trace(traced)) / rep.dim
    deviation = traced - scalar * np.eye(rep.dim)
    if not tol.is_zero(deviation, powered):
        raise SchurViolationError(
            f"order-{order} Casimir is not scalar on {rep.weight}: "
            f"max deviation {max_abs(deviation)}"
        )
    return rationalize(scalar, tol)


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
