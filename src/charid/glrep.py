"""Representation matrices of gl(N) generators on the Gelfand-Tsetlin basis.

Diagonal generators act by pattern weights.  Elementary raising generators
a_{k,k+1} have closed-form ladder coefficients (square roots of rationals,
kept exact as Surds alongside the float matrices), lowering generators are
their transposes, and the remaining generators are nested commutators
a_{i,j} = [a_{i,j-1}, a_{j-1,j}], which fixes every phase constructively.
"""

from __future__ import annotations

from fractions import Fraction

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
    enumerate_patterns,
    pattern_ordinals,
    pattern_weight,
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


class Representation:
    """All generator matrices of one irreducible gl(N) module.

    Immutable after construction.  Float matrices for the elementary
    raising generators carry an exact Surd sidecar keyed by (row, column)
    ordinal so squared-norm identities can be checked in rational
    arithmetic.
    """

    def __init__(self, labels):
        self.weight: Weight = check_highest_weight(weight(labels))
        self.N = len(self.weight)
        self.patterns = enumerate_patterns(self.weight)
        self.dim = len(self.patterns)
        self.ordinal = pattern_ordinals(self.patterns)
        self.raising_surds: dict[int, dict[tuple[int, int], Surd]] = {}
        self._gen: dict[tuple[int, int], np.ndarray] = {}
        self._build()

    def gen(self, i: int, j: int) -> np.ndarray:
        """Matrix of the generator a_{ij} (1-based indices)."""
        if not (1 <= i <= self.N and 1 <= j <= self.N):
            raise DomainError(f"generator indices ({i},{j}) outside 1..{self.N}")
        return self._gen[(i, j)]

    def generator_labels(self) -> list[tuple[int, int]]:
        return sorted(self._gen)

    def _build(self):
        d = self.dim
        weights = [pattern_weight(p) for p in self.patterns]
        for k in range(1, self.N + 1):
            diag = np.zeros((d, d))
            for c in range(d):
                diag[c, c] = float(weights[c][k - 1])
            self._gen[(k, k)] = freeze(diag)
        for k in range(1, self.N):
            mat = np.zeros((d, d))
            surds: dict[tuple[int, int], Surd] = {}
            for c, p in enumerate(self.patterns):
                for r in range(1, k + 1):
                    q = p.shifted(k, r)
                    if q is None:
                        continue
                    coeff = elementary_coefficient(p, k, r)
                    row = self.ordinal[q]
                    mat[row, c] = float(coeff)
                    surds[(row, c)] = coeff
            self.raising_surds[k] = surds
            self._gen[(k, k + 1)] = freeze(mat)
            self._gen[(k + 1, k)] = freeze(mat.T.copy())
        for span in range(2, self.N):
            for i in range(1, self.N - span + 1):
                j = i + span
                mat = commutator(self._gen[(i, j - 1)], self._gen[(j - 1, j)])
                self._gen[(i, j)] = freeze(mat)
                self._gen[(j, i)] = freeze(mat.T.copy())


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
