"""Graded structures for gl(m|n): the vector representation and its defining
relations, super characteristic matrices and roots, unitary (type 1 star)
classification, and the covariant-plus-shift form of type 1 highest weights.

Each kind's characteristic matrix follows one graded sign rule, the one
under which the closed-form roots annihilate the vector representation of
every gl(m|n): block (p,q) is (-1)^(p) a_pq for kind A and
-(-1)^((p)(q)) a_qp for kind Abar, (p) the parity of the index p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import (
    DomainError,
    Tolerance,
    max_abs,  # unused here, kept as a name the benchmark's tracer wraps
    to_rational,
)
from .charident import KIND_A, KIND_ABAR, Blocks, CheckRecord, Root, identity_residual

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


def vector_rep(m: int, n: int) -> np.ndarray:
    """Defining representation a_pq -> e_pq on the graded space C^(m+n), as
    one (s, s, s, s) int64 array, s = m + n, whose [p-1, q-1] is e_pq:
    integer matrices, so the graded bracket relations hold exactly."""
    if m < 1 or n < 1:
        raise DomainError("need m >= 1 and n >= 1")
    size = m + n
    return np.eye(size * size, dtype=np.int64).reshape((size,) * 4)


def vector_rep_relations_hold(m: int, n: int) -> bool:
    """Exact check of the graded bracket on every generator quadruple:
    a_pq a_rs - sign a_rs a_pq = d_qr a_ps - sign d_ps a_rq, where sign is
    -1 when both a_pq and a_rs are odd.  All pairs at once, as integer
    einsums over the axes (p, q, r, s, row, col).  On matrix units e_pq e_rs
    = d_qr e_ps, so this holds for every sign: it checks the matrix units,
    passes under any parity rule, and the super identities carry the parity."""
    a = vector_rep(m, n)
    parities = np.array([parity(p, m) for p in range(1, m + n + 1)])
    grade = parities[:, None] + parities[None, :]  # (p) + (q) of a_pq
    odd_pair = grade[:, :, None, None] * grade[None, None, :, :] % 2
    sign = (1 - 2 * odd_pair)[..., None, None]
    delta = np.eye(m + n, dtype=np.int64)
    lhs = np.einsum("pqik,rskj->pqrsij", a, a) - sign * np.einsum("rsik,pqkj->pqrsij", a, a)
    rhs = np.einsum("qr,psij->pqrsij", delta, a) - sign * np.einsum("ps,rqij->pqrsij", delta, a)
    return bool(np.array_equal(lhs, rhs))


# The sign rule of each kind, by the name its check description prints.
FROZEN_CONVENTION = {KIND_A: "row-parity", KIND_ABAR: "minus-graded-swap"}


def super_char_matrix(m: int, n: int, kind: str) -> np.ndarray:
    """Characteristic matrix of the gl(m|n) vector representation."""
    return _super_blocks(m, n, kind).dense()


def _super_blocks(m: int, n: int, kind: str) -> Blocks:
    """super_char_matrix as one whole block: the sign of each block (p, q)
    times the vector representation's generators, reshaped so that block
    (p, q) holds rows (p-1)s.. and columns (q-1)s.., s = m + n."""
    size = m + n
    gens = vector_rep(m, n).astype(np.float64)
    odd = np.arange(size) >= m  # (p) of p = 1 ... m + n
    if kind == KIND_A:  # row-parity: (-1)^(p) a_pq
        blocks = np.where(odd, -1.0, 1.0)[:, None, None, None] * gens
    elif kind == KIND_ABAR:  # minus-graded-swap: -(-1)^((p)(q)) a_qp
        blocks = np.where(np.outer(odd, odd), 1.0, -1.0)[:, :, None, None] * gens.swapaxes(0, 1)
    else:
        raise DomainError(f"unknown kind {kind!r}")
    whole = blocks.swapaxes(1, 2).reshape(1, size * size, size * size)
    return Blocks(size * size, (np.arange(size * size)[None, :],), (whole,))


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


def verify_super_identity(m: int, n: int, kind: str, tol: Tolerance) -> CheckRecord:
    """Residual of the super characteristic identity on the vector module.

    The product runs over the full root multiset in ascending order (the
    matrices are not diagonalizable in general, so repeated factors are
    essential).
    """
    roots = super_char_roots(super_vector_weight(m, n), kind)
    residual, threshold = identity_residual(
        _super_blocks(m, n, kind), sorted(root.value for root in roots), tol)
    return CheckRecord(
        f"super characteristic identity gl({m}|{n}), kind {kind}, "
        f"convention {FROZEN_CONVENTION[kind]}",
        residual <= threshold, residual, threshold)


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
