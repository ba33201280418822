"""Benchmark worker: runs one workload's jobs through charid.cli.main.

Started by run.py as a separate process, one per benchmark run, so that its
peak resident memory belongs to the jobs alone.  The load is a closed loop:
one job at a time, the next as soon as the previous one returns.  Jobs come
in passes (one pass is the workload's full job list, see workloads.py);
passes repeat until the time budget would be exceeded by another one.

Before every job and after the last job of a pass the worker times two
reference loops that use no charid code (calibrate), so that run.py can
scale each job's latency by the machine's speed at that moment.

With --trace 1 the budget is split: untraced passes first, then the span
recorder is installed and traced passes follow, so that the difference of
the two pass times is the tracing overhead.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check_job, check_pair  # noqa: E402
from workloads import JobSource, repeat_share, rep_job, roots_job, verify_job  # noqa: E402


def import_charid():
    """Import charid from the checkout's src directory, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import charid
    import charid.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(charid.__file__))) != src:
        raise ImportError(f"charid imported from {charid.__file__}, not from {src}")
    return charid


def run_job(cli, argv) -> tuple[int | None, str, float]:
    """(exit code or None on an uncaught exception, stdout text, seconds)."""
    out = io.StringIO()
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback is itself a failed job
            err.write(repr(exc))
            code = None
    elapsed = time.perf_counter() - start
    return code, out.getvalue() or err.getvalue(), elapsed


def calibrate(matrix) -> tuple[float, float]:
    """(seconds of a Python Fraction loop, seconds of four float64 products).

    One untimed product first wakes OpenBLAS's threads, so that the Python
    loop always follows the same BLAS activity, whatever the job before did.
    """
    matrix @ matrix
    start = time.perf_counter()
    for _ in range(4):
        matrix @ matrix
    blas = time.perf_counter() - start
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return time.perf_counter() - start, blas


class Phase:
    """Outcome of a run of passes: timings, checks and counts."""

    def __init__(self):
        self.pass_walls: list[float] = []
        self.job_s: list[float] = []
        self.job_cal: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.worst_margin = 0.0
        self.bytes_out = 0
        self.exit_2 = 0
        self.jobs: list = []

    def fail(self, job, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{' '.join(job.argv)}: {reason}")


def run_pass(cli, jobs, phase: Phase, recorder=None, matrix=None) -> None:
    """Run one pass, then check its outputs outside the timed region.

    With a calibration matrix, the reference loops are timed around every
    job; each job is charged the mean of the loop times before and after it.
    """
    results = []
    cal = [calibrate(matrix)] if matrix is not None else []
    start = time.perf_counter()
    for job in jobs:
        if recorder is not None:
            recorder.job = phase.attempted + len(results)
        results.append(run_job(cli, job.argv))
        if matrix is not None:
            cal.append(calibrate(matrix))
    phase.pass_walls.append(time.perf_counter() - start)
    phase.job_cal += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(cal, cal[1:])]
    pairs: dict[str, dict] = {}
    for job, (code, text, seconds) in zip(jobs, results):
        phase.attempted += 1
        phase.job_s.append(seconds)
        phase.jobs.append(job)
        phase.bytes_out += len(text.encode("utf-8")) if code == 0 else 0
        phase.exit_2 += code == 2
        reason, margin = check_job(job, code, text) if code is not None else (text, 0.0)
        phase.worst_margin = max(phase.worst_margin, margin)
        if reason is not None:
            phase.fail(job, reason)
        elif job.pair is not None:
            pairs.setdefault(job.pair, {})[job.expect["format"]] = (job, text)
    for halves in pairs.values():
        if len(halves) != 2:
            continue
        csv_job, csv_text = halves["csv"]
        try:
            reason = check_pair(halves["json"][1], csv_text)
        except ValueError as exc:
            reason = f"unreadable export: {exc!r}"
        if reason is not None:
            phase.fail(csv_job, reason)


def run_phase(cli, source: JobSource, budget: float, recorder=None) -> Phase:
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((160, 160))
    phase = Phase()
    start = time.perf_counter()
    while True:
        run_pass(cli, source.next_pass(), phase, recorder, matrix)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(phase.pass_walls) > budget:
            return phase


def warm_up(cli) -> None:
    """Run each command once on tiny modules no workload draws, untimed."""
    small = (Fraction(1), Fraction(0))
    jobs = [verify_job(small, suite) for suite in ("relations", "identity", "projectors",
                                                    "invariants")]
    jobs += [verify_job((Fraction(1), Fraction(0), Fraction(0)), "melcross"),
             rep_job(small, "json"), rep_job(small, "csv"), roots_job(small, "A")]
    for job in jobs:
        run_job(cli, job.argv)


def blas_info() -> dict:
    """numpy, OpenBLAS and BLAS thread count, as far as they can be read."""
    import ctypes
    import glob

    import numpy as np

    info = {"numpy": np.__version__, "openblas": None, "blas_threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["blas_threads"] = getter()
                return info
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def phase_summary(phase: Phase) -> dict:
    return {
        "passes": len(phase.pass_walls),
        "pass_walls_s": phase.pass_walls,
        "job_s": phase.job_s,
        "job_cal": phase.job_cal,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "failures": phase.failures,
        "worst_margin": phase.worst_margin,
        "repeat_share": repeat_share(phase.jobs),
        "jobs_per_pass": phase.attempted / len(phase.pass_walls),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="file for the recorded spans")
    args = parser.parse_args(argv)

    charid = import_charid()
    source = JobSource(args.workload, args.seed)
    warm_up(charid.cli)
    budget = args.seconds / 2 if args.trace else args.seconds
    result = {"untraced": phase_summary(run_phase(charid.cli, source, budget))}
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install(charid)
        try:
            traced = run_phase(charid.cli, source, budget, recorder)
        finally:
            recorder.uninstall()
        passes = len(traced.pass_walls)
        layers = recorder.layer_metrics(passes)
        layers["cli.bytes_out"] = traced.bytes_out / passes
        layers["cli.exit_2"] = traced.exit_2 / passes
        result["traced"] = phase_summary(traced)
        result["layers"] = layers
        result["bookkeeping_s"] = recorder.bookkeeping_s
        if args.trace_out:
            recorder.dump(args.trace_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = blas_info()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
