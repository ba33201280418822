"""charid benchmark: seeded CLI job mixes, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-verify --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): dense-verify, exact-small, export.

--trace 0 measures the end-to-end metrics: the set-up time of a fresh
interpreter importing charid.cli, and one worker process that runs the
workload's passes untraced.  --trace 1 runs the worker with half the time
untraced and half under the span recorder (spans.py) and reports the
per-layer metrics, each per pass of the job list.

Timings are scaled to one machine speed.  The shared 2-vCPU machine this
was tuned on runs the same code up to 1.6x slower for seconds to minutes
at a time, Python and BLAS work alike, and the share of a run spent slow
varies from run to run.  So the worker times two reference loops that use
no charid code, a Python Fraction loop and four float64 products, before
every job and after the last one of a pass, and each job's latency is
scaled by sqrt(REF_PYTHON_S / python_s * REF_BLAS_S / blas_s), with the
loop times the mean of those just before and just after the job.  The
REF_* constants are the loop times of that machine when quiet, so a
scaled latency reads as milliseconds on the quiet machine; a change to
charid moves the job times and not the loops.  job_ms.p50 and
job_ms.tail are nearest-rank percentiles over every job of the run at
scaled latencies, and wall_s, the time of one pass of the full job list,
is their sum divided by the number of passes.  setup_s is the median of
15 imports of charid.cli, seven taken before the worker and eight after
it, each scaled by REF_NUMPY_IMPORT_S over the time of an `import numpy`
in a fresh interpreter right after it: charid.cli imports numpy, so the
ratio follows the machine's speed and keeps what charid adds.

Every job's output is checked (checks.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is a fuller report with the environment, the
job counts, the tail percentile and the first failures.  The spans of a
traced run are written to perfbench/out/.

Exit codes: 0 with a result, 1 when the worker fails or times out, 2 when
the checkout has no charid sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 15
RUN_LIMIT_S = 170.0
# Median reference loop times (see worker.calibrate) on a quiet 2-vCPU machine
# with OpenBLAS on 2 threads: the speed scaled latencies are quoted at.
REF_PYTHON_S = 1.8e-3
REF_BLAS_S = 0.65e-3
# Median time of a fresh interpreter running `import numpy` on that machine.
REF_NUMPY_IMPORT_S = 0.19
# The worst residual/threshold is reported as -log10 of at least this, so
# that all-exact payloads (residual 0) still give a finite number.
MARGIN_FLOOR = 1e-17

UNITS = {
    "setup_s": "s", "wall_s": "s", "job_ms.p50": "ms", "job_ms.tail": "ms",
    "peak_rss_mb": "MB", "trace.overhead_s": "s/pass", "residual_margin.neg_log10_max": "log10",
}
PER_PASS_UNITS = (
    ("_ms", "ms/pass"), ("_mb", "MB/pass"), ("gen_density", "ratio"),
    ("gflop_computed", "GFLOP/pass"), ("bytes_out", "bytes/pass"),
)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in PER_PASS_UNITS:
        if name.endswith(suffix):
            return unit
    return "count/pass"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha(root: str) -> str:
    """HEAD commit read from the checkout's .git directory, if it has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(threads)
    return env


def time_import(env: dict, module: str) -> float:
    """Wall time of a fresh interpreter importing module.

    The wait blocks instead of polling (a wait with a timeout polls in
    steps of up to 50 ms, which would quantise the times); a timer kills
    an interpreter that hangs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return time.perf_counter() - start


def measure_setup(env: dict, repeats: int) -> list[float]:
    """Import times of charid.cli, each scaled to the reference speed by a
    fresh `import numpy` timed right after it."""
    return [time_import(env, "charid.cli") * REF_NUMPY_IMPORT_S / time_import(env, "numpy")
            for _ in range(repeats)]


def scaled_job_s(phase: dict) -> list[float]:
    """Each job's latency scaled to the reference speed of the loops."""
    return [seconds * math.sqrt(REF_PYTHON_S / python_s * REF_BLAS_S / blas_s)
            for seconds, (python_s, blas_s) in zip(phase["job_s"], phase["job_cal"])]


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    index = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[index - 1]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten jobs beyond it (100 if none)."""
    return (100 * (count - 10)) // count if count > 10 else 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="charid benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "charid", "cli.py")):
        print(f"error: no charid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    threads = nproc()
    env = worker_env(threads)
    metrics: dict[str, float] = {}
    setup: list[float] = []
    if not args.trace:
        # The first pair of imports may compile bytecode and is not kept.
        # Half the samples are taken after the worker, so that they span
        # the run.
        setup = measure_setup(env, SETUP_REPEATS // 2 + 1)[1:]

    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(10.0, RUN_LIMIT_S - (time.perf_counter() - started)),
                              stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        print("error: worker timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup += measure_setup(env, SETUP_REPEATS - len(setup))
        metrics["setup_s"] = statistics.median(setup)

    untraced = result["untraced"]
    phases = [untraced] + ([result["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    worst_margin = max(p["worst_margin"] for p in phases)
    job_s = scaled_job_s(untraced)
    wall_s = sum(job_s) / untraced["passes"]
    job_ms = [seconds * 1000.0 for seconds in job_s]
    percentile = tail_percentile(len(job_ms))
    if args.trace:
        traced = result["traced"]
        metrics.update(result["layers"])
        metrics["trace.overhead_s"] = sum(scaled_job_s(traced)) / traced["passes"] - wall_s
    else:
        metrics["wall_s"] = wall_s
        metrics["job_ms.p50"] = nearest_rank(job_ms, 50)
        metrics["job_ms.tail"] = nearest_rank(job_ms, percentile)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["residual_margin.neg_log10_max"] = -math.log10(max(worst_margin, MARGIN_FLOOR))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(result["env"], git_sha=git_sha(ROOT), python=sys.version.split()[0],
                    nproc=threads),
        "jobs_per_pass": untraced["jobs_per_pass"],
        "repeat_share": untraced["repeat_share"],
        "passes": {p: result[p]["passes"] for p in ("untraced", "traced") if p in result},
        "pass_walls_s": {p: result[p]["pass_walls_s"] for p in ("untraced", "traced")
                         if p in result},
        "jobs": len(job_ms),
        "tail_percentile": percentile,
        "jobs_failed": failed / attempted,
        "residual_margin.max": worst_margin,
        "failures": [f for p in phases for f in p["failures"]][:10],
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
