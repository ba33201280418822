"""Graded structures for gl(m|n): the vector representation and its defining
relations, super characteristic matrices and roots, unitary (type 1 star)
classification, and the covariant-plus-shift form of type 1 highest weights.

The sign convention of the plain characteristic matrix was calibrated once,
by demanding that the closed-form roots annihilate the vector representation
across a grid of small (m, n); the winning convention (block (p,q) equal to
(-1)^(p) a_pq, adjoint block (p,q) equal to -(-1)^((p)(q)) a_qp) is frozen
below and the calibration sweep is kept for regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import (
    ConventionError,
    DomainError,
    Tolerance,
    max_abs,
    to_rational,
)
from .charident import KIND_A, KIND_ABAR, ResidualReport, Root, _root_product

TYPICAL = "typical-type1"
ATYPICAL = "atypical-type1"
NOT_STAR = "not-type1-star"


def parity(p: int, m: int) -> int:
    """0 for the first m indices, 1 for the remaining n."""
    return 0 if p <= m else 1


@dataclass(frozen=True)
class SuperWeight:
    """Highest weight of gl(m|n), split into even and odd label blocks.

    Each block must be weakly decreasing (dominance per parity block).
    """

    even: tuple[Fraction, ...]
    odd: tuple[Fraction, ...]

    def __post_init__(self):
        even = tuple(to_rational(x) for x in self.even)
        odd = tuple(to_rational(x) for x in self.odd)
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)
        if not even or not odd:
            raise DomainError("both parity blocks must be non-empty")
        for block, name in ((even, "even"), (odd, "odd")):
            if any(block[i] < block[i + 1] for i in range(len(block) - 1)):
                raise DomainError(f"{name} labels must be weakly decreasing")

    @property
    def m(self) -> int:
        return len(self.even)

    @property
    def n(self) -> int:
        return len(self.odd)

    def labels(self) -> tuple[Fraction, ...]:
        return self.even + self.odd

    def __str__(self) -> str:
        fmt = lambda xs: ",".join(str(x) for x in xs)
        return f"({fmt(self.even)}|{fmt(self.odd)})"


@dataclass(frozen=True)
class StarClassification:
    verdict: str
    witness: int | None = None


def super_vector_weight(m: int, n: int) -> SuperWeight:
    return SuperWeight((Fraction(1),) + (Fraction(0),) * (m - 1),
                       (Fraction(0),) * n)


def vector_rep(m: int, n: int) -> dict[tuple[int, int], np.ndarray]:
    """Defining representation a_pq -> e_pq on the graded space C^(m+n).

    Integer matrices, so the graded bracket relations hold exactly.
    """
    if m < 1 or n < 1:
        raise DomainError("need m >= 1 and n >= 1")
    size = m + n
    out = {}
    for p in range(1, size + 1):
        for q in range(1, size + 1):
            mat = np.zeros((size, size), dtype=np.int64)
            mat[p - 1, q - 1] = 1
            out[(p, q)] = mat
    return out


def vector_rep_relations_hold(m: int, n: int) -> bool:
    """Exact check of the graded bracket on every generator quadruple."""
    gens = vector_rep(m, n)
    size = m + n
    zero = np.zeros((size, size), dtype=np.int64)
    for p in range(1, size + 1):
        for q in range(1, size + 1):
            a_pq = gens[(p, q)]
            for r in range(1, size + 1):
                for s in range(1, size + 1):
                    a_rs = gens[(r, s)]
                    sign = -1 if (parity(p, m) + parity(q, m)) * (
                        parity(r, m) + parity(s, m)) % 2 else 1
                    lhs = a_pq @ a_rs - sign * (a_rs @ a_pq)
                    rhs = zero.copy()
                    if q == r:
                        rhs = rhs + gens[(p, s)]
                    if p == s:
                        rhs = rhs - sign * gens[(r, q)]
                    if not np.array_equal(lhs, rhs):
                        return False
    return True


# Candidate block rules for the calibration sweep: sign(p, q) times the
# generator a_pq (swap=False) or a_qp (swap=True) at block (p, q).
_CANDIDATES = {
    KIND_A: (
        ("row-parity",        lambda p, q, m: (-1) ** parity(p, m), False),
        ("minus-row-parity",  lambda p, q, m: -((-1) ** parity(p, m)), False),
        ("col-parity",        lambda p, q, m: (-1) ** parity(q, m), False),
        ("minus-col-parity",  lambda p, q, m: -((-1) ** parity(q, m)), False),
        ("ungraded",          lambda p, q, m: 1, False),
        ("minus-ungraded",    lambda p, q, m: -1, False),
    ),
    KIND_ABAR: (
        ("minus-graded-swap", lambda p, q, m: -((-1) ** (parity(p, m) * parity(q, m))), True),
        ("graded-swap",       lambda p, q, m: (-1) ** (parity(p, m) * parity(q, m)), True),
        ("ungraded-swap",     lambda p, q, m: -1, True),
        ("minus-row-parity-swap", lambda p, q, m: -((-1) ** parity(p, m)), True),
    ),
}

FROZEN_CONVENTION = {KIND_A: "row-parity", KIND_ABAR: "minus-graded-swap"}


def super_char_matrix(m: int, n: int, kind: str,
                      convention: str | None = None) -> np.ndarray:
    """Characteristic matrix of the gl(m|n) vector representation.

    The frozen calibrated convention is used unless a named candidate is
    requested (negative controls pass the ungraded ones).
    """
    if kind not in _CANDIDATES:
        raise DomainError(f"unknown kind {kind!r}")
    name = convention or FROZEN_CONVENTION[kind]
    table = {c[0]: c for c in _CANDIDATES[kind]}
    if name not in table:
        raise DomainError(f"unknown convention {name!r} for kind {kind}")
    _, sign, swap = table[name]
    gens = vector_rep(m, n)
    size = m + n
    big = np.zeros((size * size, size * size))
    for p in range(1, size + 1):
        for q in range(1, size + 1):
            gen = gens[(q, p)] if swap else gens[(p, q)]
            block = sign(p, q, m) * gen.astype(np.float64)
            big[(p - 1) * size:p * size, (q - 1) * size:q * size] = block
    return big


def super_char_roots(lam: SuperWeight, kind: str) -> tuple[Root, ...]:
    """Characteristic roots of gl(m|n): one exact value per index p.

    alpha_p = (-1)^(p) (L_p + m - p) - n and
    abar_p  = m - (-1)^(p) (L_p + m + 1 - p); values may repeat, and the
    identity is the full product over all m+n factors.
    """
    m, n = lam.m, lam.n
    labels = lam.labels()
    out = []
    for p in range(1, m + n + 1):
        sign = -1 if parity(p, m) else 1
        if kind == KIND_A:
            value = sign * (labels[p - 1] + m - p) - n
        elif kind == KIND_ABAR:
            value = m - sign * (labels[p - 1] + m + 1 - p)
        else:
            raise DomainError(f"unknown kind {kind!r}")
        out.append(Root(Fraction(value), None, 1))
    return tuple(out)


def verify_super_identity(m: int, n: int, kind: str,
                          tol: Tolerance | None = None,
                          convention: str | None = None) -> ResidualReport:
    """Residual of the super characteristic identity on the vector module.

    The product runs over the full root multiset in ascending order (the
    matrices are not diagonalizable in general, so repeated factors are
    essential).
    """
    tol = tol or Tolerance()
    lam = super_vector_weight(m, n)
    roots = super_char_roots(lam, kind)
    big = super_char_matrix(m, n, kind, convention)
    product, scale = _root_product(
        big, [float(value) for value in sorted(root.value for root in roots)], with_scale=True)
    residual = max_abs(product)
    threshold = tol.threshold(scale)
    label = convention or FROZEN_CONVENTION[kind]
    return ResidualReport(
        f"super characteristic identity gl({m}|{n}), kind {kind}, "
        f"convention {label}",
        residual, threshold, residual <= threshold)


def calibrate_convention(kind: str, grid=((1, 1), (1, 2), (2, 1), (2, 2)),
                         candidates=None, tol: Tolerance | None = None) -> str:
    """First candidate convention whose identity annihilates on the whole
    grid of vector representations.

    Raises ConventionError with the observed spectra when none does.
    """
    tol = tol or Tolerance()
    names = candidates or [c[0] for c in _CANDIDATES[kind]]
    for name in names:
        if all(verify_super_identity(m, n, kind, tol, convention=name).passed
               for m, n in grid):
            return name
    spectra = {
        f"gl({m}|{n})": sorted(np.linalg.eigvals(
            super_char_matrix(m, n, kind, names[0])).real.round(6).tolist())
        for m, n in grid
    }
    raise ConventionError(
        f"no candidate convention annihilates for kind {kind}; "
        f"observed spectra {spectra}")


def classify_type1_star(lam: SuperWeight) -> StarClassification:
    """Type 1 star classification of a gl(m|n) highest weight.

    Typical when the last even plus last odd label exceeds n - 1;
    atypical when some odd index mu has lam_m + lam_mu + 1 - mu = 0 with
    lam_mu equal to the last odd label; otherwise not a type 1 star weight.
    All comparisons are exact.
    """
    n = lam.n
    last_even = lam.even[-1]
    last_odd = lam.odd[-1]
    if last_even + last_odd > n - 1:
        return StarClassification(TYPICAL)
    for mu in range(1, n + 1):
        lam_mu = lam.odd[mu - 1]
        if last_even + lam_mu + 1 - mu == 0 and last_odd == lam_mu:
            return StarClassification(ATYPICAL, witness=mu)
    return StarClassification(NOT_STAR)


def is_covariant(lam0: SuperWeight) -> bool:
    """Covariant tensor weights: non-negative integer labels, dominant per
    block, odd labels bounded by the even-column counts (hook condition
    lam0_{m+j} <= #{i <= m : lam0_i >= j})."""
    labels = lam0.labels()
    if any(x < 0 or x.denominator != 1 for x in labels):
        return False
    for j, odd_label in enumerate(lam0.odd, start=1):
        if odd_label > sum(1 for x in lam0.even if x >= j):
            return False
    return True


def _compose_unchecked(lam0: SuperWeight, gamma: Fraction,
                       omega: Fraction) -> SuperWeight:
    even = tuple(x + gamma - omega for x in lam0.even)
    odd = tuple(x + omega for x in lam0.odd)
    return SuperWeight(even, odd)


def compose_type1_weight(lam0: SuperWeight, gamma, omega) -> SuperWeight:
    """Type 1 star highest weight lam0 + gamma*eps + omega*delta, with
    eps = (1..1|0..0) and delta = (-1..-1|1..1).

    gamma must be an integer in 0..n-1 or any rational above n-1; omega is
    unrestricted; lam0 must be a covariant tensor weight.
    """
    gamma = to_rational(gamma)
    omega = to_rational(omega)
    n = lam0.n
    if gamma <= n - 1 and not (gamma.denominator == 1 and 0 <= gamma):
        raise DomainError(
            f"gamma must be an integer in 0..{n - 1} or exceed {n - 1}, got {gamma}")
    if not is_covariant(lam0):
        raise DomainError(f"{lam0} is not a covariant tensor weight")
    return _compose_unchecked(lam0, gamma, omega)
