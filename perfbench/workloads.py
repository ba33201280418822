"""Seeded job lists for the charid benchmark.

Every workload is a list of slots.  A slot fixes the cost class of a job:
the algebra size N, the Weyl dimension and (for dense work) the number of
distinct labels, which sets how many characteristic roots are present.
Each pass over a workload fills every slot with a fresh weight drawn from
the seed: the next dominant shape of the slot's class (a shape and its
dual always share a class), taken in turn from a seeded starting point
so that every run has the same mix of shapes, shifted by a random
integer, plus 1/2 on every other draw of a pass.  The i-th draw of every
pass thus has labels of the same kind, which matters for the cost of
exact Fraction work on tiny modules.  Seeds and passes therefore change
the inputs but not the amount of work, which keeps the per-pass wall time
comparable across seeds.

Weights never repeat across passes.  Within a pass a weight is reused only
where the workload says so (dense-verify runs three suites per weight), and
the share of such repeats is reported with the results.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("dense-verify", "exact-small", "export")

MAX_SHAPE_LABEL = 8
MAX_SHIFT = 40  # integer part of the label shift, |k| <= this


def weyl_dimension(lam) -> int:
    """prod_{i<j} (lam_i - lam_j + j - i) / (j - i), exactly."""
    value = Fraction(1)
    n = len(lam)
    for i in range(n):
        for j in range(i + 1, n):
            value *= Fraction(lam[i] - lam[j] + j - i, j - i)
    if value.denominator != 1:
        raise ValueError(f"dimension of {lam} is not integral")
    return int(value)


def shapes(n: int, max_label: int = MAX_SHAPE_LABEL):
    """Dominant integer weights of gl(n) with last label 0 and first <= max_label."""
    for gaps in itertools.product(range(max_label + 1), repeat=n - 1):
        if sum(gaps) > max_label:
            continue
        lam = [0] * n
        for i in range(n - 2, -1, -1):
            lam[i] = lam[i + 1] + gaps[i]
        yield tuple(lam)


def shape_class(n: int, dim: int, distinct: int | None = None) -> list[tuple[int, ...]]:
    """All shapes of gl(n) with the given Weyl dimension (and distinct-label count)."""
    out = [lam for lam in shapes(n) if weyl_dimension(lam) == dim
           and (distinct is None or len(set(lam)) == distinct)]
    if not out:
        raise ValueError(f"no gl({n}) shape of dimension {dim}, distinct {distinct}")
    return out


def fmt_labels(labels) -> str:
    return ",".join(str(Fraction(x)) for x in labels)


def super_text(even, odd) -> str:
    return fmt_labels(even) + "|" + fmt_labels(odd)


def alpha_roots(lam) -> list[Fraction]:
    """Kind A roots lam_j + n - j."""
    n = len(lam)
    return [Fraction(lam[j - 1]) + n - j for j in range(1, n + 1)]


def alpha_bar_roots(lam) -> list[Fraction]:
    """Kind Abar roots j - 1 - lam_j."""
    return [Fraction(j - 1) - Fraction(lam[j - 1]) for j in range(1, len(lam) + 1)]


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy.

    kind selects the check: "verify", "rep", "roots", "classify" or
    "invalid".  module names the representation the job builds (None when
    it builds none), for the repeat share.  expect carries the values the
    check compares against; pair links the JSON and CSV exports of one
    weight.
    """

    argv: tuple[str, ...]
    kind: str
    module: str | None
    expect: dict = field(default_factory=dict)
    pair: str | None = None


def verify_job(lam, suite: str) -> Job:
    n = len(lam)
    w = fmt_labels(lam)
    return Job(("verify", "--algebra", f"gl{n}", f"--weight={w}", "--suite", suite),
               "verify", f"gl{n}:{w}")


def super_job(m: int, n: int) -> Job:
    w = super_text((1,) + (0,) * (m - 1), (0,) * n)
    return Job(("verify", "--algebra", f"gl{m}|{n}", f"--weight={w}", "--suite", "super"),
               "verify", f"gl{m}|{n}:{w}")


def rep_job(lam, fmt: str) -> Job:
    n = len(lam)
    w = fmt_labels(lam)
    return Job(("rep", "--algebra", f"gl{n}", f"--weight={w}", "--format", fmt),
               "rep", f"gl{n}:{w}", {"dimension": weyl_dimension(lam), "format": fmt},
               pair=f"gl{n}:{w}")


def roots_job(lam, kind: str) -> Job:
    n = len(lam)
    roots = alpha_roots(lam) if kind == "A" else alpha_bar_roots(lam)
    return Job(("roots", "--algebra", f"gl{n}", f"--weight={fmt_labels(lam)}", "--kind", kind),
               "roots", None, {"roots": [str(r) for r in roots]})


def classify_job(even, odd) -> Job:
    m, n = len(even), len(odd)
    return Job(("classify", "--algebra", f"gl{m}|{n}", f"--weight={super_text(even, odd)}"),
               "classify", None)


def invalid_job(*argv: str) -> Job:
    return Job(tuple(argv), "invalid", None, {"exit": 2})


# Slots name a cost class as (N, dim, distinct labels or None); EXACT_SLOTS
# put the suite first and ROOTS_SLOTS the kind of roots last.
DENSE_SLOTS = (
    (4, 216, 3),
    (4, 224, 3),
    (5, 160, 3),
)
DENSE_SUITES = ("relations", "identity", "projectors")

EXACT_SLOTS = (
    ("invariants", 2, 4, None), ("invariants", 2, 5, None), ("invariants", 2, 6, None),
    ("invariants", 2, 7, None), ("invariants", 2, 8, None), ("invariants", 2, 9, None),
    ("invariants", 3, 15, 3), ("invariants", 3, 27, 3),
    ("invariants", 4, 20, 3), ("invariants", 4, 45, 3),
    ("invariants", 5, 24, 3), ("invariants", 6, 21, 2),
    ("melcross", 3, 24, 3), ("melcross", 3, 42, 3),
    ("melcross", 4, 36, 3), ("melcross", 4, 64, 4),
    ("melcross", 5, 40, 3), ("melcross", 6, 15, 2),
    # dense suites on small modules, so every suite is seen on this workload
    ("relations", 3, 15, 3), ("identity", 3, 15, 3), ("projectors", 3, 15, 3),
)
SUPER_SIZES = ((1, 1), (2, 1), (1, 2), (2, 2))
ROOTS_SLOTS = ((3, 8, 3, "A"), (4, 20, 3, "Abar"), (5, 24, 3, "A"), (6, 35, 3, "Abar"))

# Three weights of one small class and two of the largest: the median job
# then falls in the middle of three like exports, and at least ten jobs of
# the largest class lie beyond the tail percentile from six passes on.
EXPORT_SLOTS = (
    (4, 70, 3), (4, 70, 3), (4, 70, 3),
    (5, 175, 4), (5, 280, 4), (5, 280, 4),
)
# One tiny job per suite, so every layer and suite shows in the trace of
# workloads that otherwise do not reach them.
PROBE_SUITES = ("relations", "identity", "projectors", "invariants", "melcross")


class JobSource:
    """Draws successive passes of one workload from a seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.used: set[tuple] = set()
        self._classes: dict[tuple, list] = {}  # shapes, next index
        self._draws = 0

    def draw(self, n: int, dim: int, distinct: int | None) -> tuple[Fraction, ...]:
        """A weight of the class, unused so far in this run when possible."""
        key = (n, dim, distinct)
        if key not in self._classes:
            pool = shape_class(n, dim, distinct)
            self._classes[key] = [pool, self.rng.randrange(len(pool))]
        pool, index = self._classes[key]
        self._classes[key][1] = index + 1
        shape = pool[index % len(pool)]
        half = Fraction(self._draws % 2, 2)
        self._draws += 1
        for _ in range(64):
            shift = self.rng.randint(-MAX_SHIFT, MAX_SHIFT) + half
            lam = tuple(Fraction(x) + shift for x in shape)
            if lam not in self.used:
                break
        self.used.add(lam)
        return lam

    def next_pass(self) -> list[Job]:
        self._draws = 0
        jobs = getattr(self, "_pass_" + self.workload.replace("-", "_"))()
        self.rng.shuffle(jobs)
        return jobs

    def _probes(self, suites) -> list[Job]:
        jobs = [verify_job(self.draw(3, 8, 3), suite) for suite in suites]
        jobs.append(super_job(2, 1))
        return jobs

    def _pass_dense_verify(self) -> list[Job]:
        jobs = []
        for n, dim, distinct in DENSE_SLOTS:
            lam = self.draw(n, dim, distinct)
            jobs.extend(verify_job(lam, suite) for suite in DENSE_SUITES)
        jobs.extend(self._probes(("invariants", "melcross")))
        jobs.append(roots_job(self.draw(3, 8, 3), "A"))
        jobs.append(self._classify(2, 1))
        return jobs

    def _pass_exact_small(self) -> list[Job]:
        jobs = [verify_job(self.draw(n, dim, distinct), suite)
                for suite, n, dim, distinct in EXACT_SLOTS]
        jobs.extend(super_job(m, n) for m, n in SUPER_SIZES)
        jobs.extend(roots_job(self.draw(n, dim, distinct), kind)
                    for n, dim, distinct, kind in ROOTS_SLOTS)
        jobs.extend(self._classify(m, n) for m, n in SUPER_SIZES)
        jobs.extend(self._invalid())
        return jobs

    def _classify(self, m: int, n: int) -> Job:
        even = sorted((Fraction(self.rng.randint(-6, 6), 2) for _ in range(m)), reverse=True)
        odd = sorted((Fraction(self.rng.randint(-6, 6), 2) for _ in range(n)), reverse=True)
        return classify_job(even, odd)

    def _invalid(self) -> list[Job]:
        """Jobs the CLI must refuse with exit code 2."""
        lam = self.draw(3, 8, 3)
        w = fmt_labels(lam)
        return [
            invalid_job("verify", "--algebra", "gl3", f"--weight={fmt_labels(lam[::-1])}",
                        "--suite", "identity"),                      # not dominant
            invalid_job("rep", "--algebra", "gl3", f"--weight={w},0"),  # label count
            invalid_job("verify", "--algebra", "gl2", f"--weight={fmt_labels(lam[:2])}",
                        "--suite", "melcross"),                      # needs N >= 3
            invalid_job("verify", "--algebra", "gl3", f"--weight={w}", "--suite", "super"),
        ]

    def _pass_export(self) -> list[Job]:
        jobs = []
        for n, dim, distinct in EXPORT_SLOTS:
            lam = self.draw(n, dim, distinct)
            jobs.extend(rep_job(lam, fmt) for fmt in ("json", "csv"))
        jobs.extend(self._probes(PROBE_SUITES))
        jobs.extend(roots_job(self.draw(3, 8, 3), kind) for kind in ("A", "Abar"))
        jobs.append(self._classify(2, 1))
        return jobs


def repeat_share(jobs) -> float:
    """Share of jobs whose module was already built by an earlier job."""
    seen: set[str] = set()
    repeats = 0
    for job in jobs:
        if job.module is None:
            continue
        if job.module in seen:
            repeats += 1
        seen.add(job.module)
    return repeats / len(jobs) if jobs else 0.0
