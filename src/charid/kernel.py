"""Scalar kernel: exact rationals, signed square roots, dense float64 helpers
and the sparse triplet join.

Everything with a closed form (characteristic roots, Casimir eigenvalues,
squared matrix elements) is evaluated in exact rational arithmetic; operator
level checks run in float64 because matrix elements are square roots of
rationals and sums of those do not stay closed-form.

It also holds what the command line needs before any module is built: the
choices its parser offers and the binder that loads every other charid
module on first use.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

# The characteristic matrix kinds and the verification suites (charident
# and verify re-export them).
KIND_A = "A"
KIND_ABAR = "Abar"
GL_SUITES = ("relations", "identity", "projectors", "invariants", "melcross")
SUITE_NAMES = GL_SUITES + ("super",)


class DimensionError(ValueError):
    """Matrix shapes do not conform to the requested operation."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class DegenerateRootError(ValueError):
    """Coincident characteristic roots where distinct roots are required."""


class DegeneratePatternError(ValueError):
    """A formula denominator vanishes for this pattern/shift combination."""


class SchurViolationError(RuntimeError):
    """An operator expected to act as a scalar failed the scalarity check."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a construction bug."""


def to_rational(value) -> Fraction:
    """Coerce an int, Fraction or a string like '3/2' to an exact Fraction.

    Floats are rejected on purpose: exact quantities must never pass
    through binary floating point.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {value!r}") from None
    raise DomainError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class Surd:
    """Signed square root ``sign * sqrt(radicand)`` of a non-negative rational.

    Closed under multiplication and negation; sums are not closed, so
    callers needing sums convert to float first.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        rad = to_rational(self.radicand)
        object.__setattr__(self, "radicand", rad)
        if rad < 0:
            raise DomainError(f"radicand must be non-negative, got {rad}")
        if (self.sign == 0) != (rad == 0):
            raise DomainError("sign is zero exactly when the radicand is zero")

    @staticmethod
    def zero() -> "Surd":
        return Surd(0, Fraction(0))

    @staticmethod
    def sqrt(radicand) -> "Surd":
        """Positive square root of a non-negative rational."""
        rad = to_rational(radicand)
        return Surd(1 if rad > 0 else 0, rad)

    @property
    def squared(self) -> Fraction:
        """Exact square; the sign information is lost."""
        return self.radicand

    def __mul__(self, other):
        if not isinstance(other, Surd):
            return NotImplemented
        return Surd(self.sign * other.sign, self.radicand * other.radicand)

    def __neg__(self) -> "Surd":
        if self.sign == 0:
            return self
        return Surd(-self.sign, self.radicand)

    def __float__(self) -> float:
        return self.sign * math.sqrt(float(self.radicand))

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        return f"{self.sign}*sqrt({self.radicand.numerator}/{self.radicand.denominator})"


@dataclass(frozen=True)
class Tolerance:
    """Thresholds for declaring a float matrix zero.

    A matrix M counts as zero when max|M_ij| <= eps + eps * scale, where
    scale is the largest absolute entry among the reference inputs: eps is
    both the absolute and the relative component.  It lies in (0, MAX_EPS]:
    a larger one would let every residual check pass and so show nothing.
    """

    MAX_EPS = 1e-3

    eps: float = 1e-9

    def __post_init__(self):
        if not 0 < self.eps <= self.MAX_EPS:
            raise DomainError(
                f"tolerance components must be finite, strictly positive and "
                f"at most {self.MAX_EPS:g}")

    def threshold(self, scale: float = 0.0) -> float:
        return self.eps + self.eps * scale


def max_abs(m) -> float:
    """The largest |entry| of m, 0.0 if it is empty.  A NaN entry makes it
    NaN, so every fold of partial maxima goes through here."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    # The method skips np.max's Python-level dispatch: 1.6-1.8 us against
    # 3.1-3.2 us per call on arrays of up to 324 entries (2 vCPUs).  A
    # small invariants job calls this 20-50 times, and in process,
    # interleaved, the exact-small invariants classes took 17.3-17.4 ms
    # with the method and 17.7-18.0 ms with np.max.
    return float(np.abs(m).max())


def _require_finite(m, what: str):
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{what} contains non-finite entries")


def matrix_power(m, k: int) -> np.ndarray:
    """k-th power of a square matrix by repeated multiplication, M^0 = I."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix_power needs a square matrix, got shape {m.shape}")
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"exponent must be a non-negative integer, got {k!r}")
    _require_finite(m, "matrix_power input")
    out = np.eye(m.shape[0])
    for _ in range(k):
        out = out @ m
    _require_finite(out, "matrix_power result")
    return out


def partial_trace_block(big, s: int, d: int) -> np.ndarray:
    """Sum of the s diagonal d x d blocks of an (s*d) x (s*d) matrix."""
    big = np.asarray(big, dtype=np.float64)
    if s <= 0 or d <= 0 or big.shape != (s * d, s * d):
        raise DimensionError(
            f"partial_trace_block needs shape ({s}*{d}, {s}*{d}), got {big.shape}"
        )
    _require_finite(big, "partial_trace_block input")
    out = np.zeros((d, d))
    for i in range(s):
        out += big[i * d:(i + 1) * d, i * d:(i + 1) * d]
    return out


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


class Triplets(NamedTuple):
    """The nonzero entries of a sparse matrix as parallel arrays, sorted
    row-major."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def offsets(keys: np.ndarray, size: int) -> np.ndarray:
    """Run starts of sorted integer keys in 0..size-1: the entries with key
    k are offsets[k]:offsets[k + 1]."""
    out = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=size), out=out[1:])
    return out


def join(keys: np.ndarray, starts: np.ndarray, first: np.ndarray | None = None,
         last: np.ndarray | None = None):
    """Every pair (i, t) of a probe i and a table entry t with the probe's
    key, for a table sorted by key with run starts `starts` (see offsets).
    Given per-probe bounds `first` and `last`, probe i pairs only with the
    entries first[i]:last[i], a part of its key's run; each defaults to
    that end of the run.  Returns (i, t) as two index arrays, i ascending,
    t ascending within each i.  A sparse product joins one factor's
    columns with the other's rows this way."""
    lo = starts[keys] if first is None else first
    found = (starts[keys + 1] if last is None else last) - lo
    probe = np.repeat(np.arange(len(keys)), found)
    at = np.repeat(lo + found - np.cumsum(found), found) + np.arange(len(probe))
    return probe, at


def entry_index(keys: np.ndarray, bound: int) -> tuple[int, np.ndarray]:
    """(size, inverse) of np.unique(keys, return_inverse=True) for keys in
    0..bound-1: one sort of the keys with each position packed into the
    low bits, about twice as fast as the argsort behind np.unique."""
    n = len(keys)
    bits = n.bit_length()
    if bound << bits > 2 ** 63:
        entries, inverse = np.unique(keys, return_inverse=True)
        return len(entries), inverse
    packed = np.sort(keys << bits | np.arange(n))
    ordered = packed >> bits
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    count = np.cumsum(new)
    inverse = np.empty(n, dtype=np.intp)
    inverse[packed & ((1 << bits) - 1)] = count - 1
    return int(count[-1]) if n else 0, inverse


def rationalize(x: float, tol: Tolerance) -> Fraction:
    """Round a float to the nearest rational of denominator at most 10^6, or
    fail loudly."""
    r = Fraction(x).limit_denominator(10 ** 6)
    if abs(x - float(r)) > tol.threshold(abs(x)):
        raise ConsistencyError(f"{x!r} is not within tolerance of a small rational")
    return r


def freeze(m: np.ndarray) -> np.ndarray:
    """Mark an array immutable so built representations stay shareable."""
    m.setflags(write=False)
    return m


def late_names(namespace: dict, sources: dict[str, str]):
    """(bind, __getattr__) for a module that takes names from other charid
    modules on first use, so that importing it loads none of them.

    namespace is the module's globals(); sources maps a module ("glrep")
    to the space-separated names taken from it.  bind(*names) sets each
    name the namespace does not hold yet: a value already there, such as a
    patched function, is the one that stays.  __getattr__ (PEP 562) binds
    a name at its first lookup from outside, so getattr(module, name) reads
    it as an eager import would; any other name raises AttributeError.
    """
    home = {name: module for module, names in sources.items() for name in names.split()}

    def bind(*names: str) -> None:
        for name in names:
            if name not in namespace:
                module = importlib.import_module(f"charid.{home[name]}")
                namespace[name] = getattr(module, name)

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        bind(name)
        return namespace[name]

    return bind, __getattr__
