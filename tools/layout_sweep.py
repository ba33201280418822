"""Time whole against split block layouts and write BENCH_layout.json.

A gl(N) module of dimension d has two kinds of block-held matrices whose
layout charid.blocks chooses: its characteristic matrices (N*d rows) and
their restrictions to gl(N-1) ((N-1)*d rows).  For every shape below this
script times two consumers with the module's matrices all held whole (one
dense block each) and all split (the connected components of their
pattern): the identity and projectors suites, which read the
characteristic matrices, and the invariants suite, which reads the
restrictions and one characteristic matrix.  It records the layout the
rule N*d < charid.blocks.DENSE_BELOW picks.

The sweep makes PASSES passes over the shapes.  In each pass a layout's
time is the lower quartile of RUNS calls, taken in two runs of
consecutive calls per layout, in one order and then the other; a point's
time is the median of its passes, and its spread the range of the passes
relative to that median.  A slower pick is *clear* where every pass of
the picked layout read slower than every pass of the other.  The output
lists every point where the rule picks the slower layout, by how much,
and for every threshold t of the rule how many points it would pick
slower, and how many of them clearly.

Run from the root of a checkout, with one BLAS thread (a few minutes):

    python3 tools/layout_sweep.py [--out BENCH_layout.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 25  # timed calls per layout and pass
PASSES = 5
BLAS_THREADS = 1
LAYOUTS = ("whole", "split")

# gl(2)-gl(6) shapes (last label 0) where either consumer has 40-220 rows:
# every gl(3)-gl(6) shape up to the largest label shown, and gl(2) shapes
# spread over the same range.
SHAPES = (
    [(k, 0) for k in (19, 29, 41, 44, 59, 74, 99)]
    + [(a, b, 0) for a in range(4, 7) for b in range(a + 1)]
    + [(a, b, c, 0) for a in range(2, 5) for b in range(a + 1) for c in range(b + 1)]
    + [(a, b, c, e, 0) for a in range(1, 4) for b in range(a + 1) for c in range(b + 1)
       for e in range(c + 1)]
    + [(a, b, c, e, f, 0) for a in range(1, 3) for b in range(a + 1) for c in range(b + 1)
       for e in range(c + 1) for f in range(e + 1)]
)
LOW, HIGH = 40, 220


def _host() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            model = next(line.split(":", 1)[1].strip() for line in info
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy as np
    return {"cpu": model, "cpu_count": os.cpu_count(), "system": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def _time_layouts(run, force) -> dict:
    """Lower-quartile ms of about RUNS calls of run(), which returns
    whether its suites passed, under each forced layout.  Each layout is
    timed in runs of consecutive calls, each run after one untimed call, in one order and
    then the other, half of the calls each time: alternating the layouts
    call by call made the split one read up to a quarter slower."""
    import numpy as np
    times = {layout: [] for layout in LAYOUTS}
    for order in (LAYOUTS, LAYOUTS[::-1]):
        for layout in order:
            with force(layout):
                for repeat in range((RUNS + 1) // 2 + 1):
                    start = time.perf_counter()
                    passed = run()
                    elapsed = time.perf_counter() - start
                    if not passed:
                        raise RuntimeError(f"a suite failed with the {layout} layout")
                    if repeat:
                        times[layout].append(elapsed * 1000.0)
    return {layout: float(np.percentile(t, 25)) for layout, t in times.items()}


def sweep() -> dict:
    import contextlib

    import numpy as np

    import charid.blocks as blocks
    from charid.glrep import Representation
    from charid.verify import run_suite

    @contextlib.contextmanager
    def force(layout):
        dense_below = blocks.DENSE_BELOW
        blocks.DENSE_BELOW = sys.maxsize if layout == "whole" else 0
        try:
            yield
        finally:
            blocks.DENSE_BELOW = dense_below

    points = {}
    for done in range(PASSES):
        for lam in SHAPES:
            rep = Representation(lam)
            N, d = rep.N, rep.dim
            consumers = (
                ("matrix", N * d, lambda: all(run_suite(suite, rep=rep).passed
                                              for suite in ("identity", "projectors"))),
                ("restriction", (N - 1) * d, lambda: run_suite("invariants", rep=rep).passed),
            )
            for consumer, rows, run in consumers:
                if not LOW <= rows <= HIGH:
                    continue
                point = points.setdefault((lam, consumer), {
                    "shape": ",".join(map(str, lam)), "N": N, "dim": d, "consumer": consumer,
                    "rows": rows, "module_rows": N * d,
                    "passes": {layout: [] for layout in LAYOUTS}})
                for layout, ms in _time_layouts(run, force).items():
                    point["passes"][layout].append(ms)
        print(f"pass {done + 1} of {PASSES} done", file=sys.stderr, flush=True)

    for point in points.values():
        passes = point.pop("passes")
        ms = {layout: float(np.median(t)) for layout, t in passes.items()}
        point["ms"] = {layout: round(v, 4) for layout, v in ms.items()}
        point["spread"] = {layout: round((max(t) - min(t)) / ms[layout], 4)
                           for layout, t in passes.items()}
        point["passes_ms"] = {layout: [round(v, 4) for v in t] for layout, t in passes.items()}
        point["faster"] = min(LAYOUTS, key=ms.get)
        point["picked"] = "whole" if point["module_rows"] < blocks.DENSE_BELOW else "split"
    return {"dense_below": blocks.DENSE_BELOW, "points": list(points.values())}


def _slower(point: dict, pick: str) -> float:
    """How much slower the picked layout is than the faster of whole and
    split, as a fraction (0 where it is the faster)."""
    ms = point["ms"]
    return max(0.0, ms[pick] / min(ms.values()) - 1.0)


def _clearly_slower(point: dict, pick: str) -> bool:
    """Whether every pass of the picked layout read slower than every pass
    of the other."""
    other = "split" if pick == "whole" else "whole"
    return min(point["passes_ms"][pick]) > max(point["passes_ms"][other])


def _summary(points: list, dense_below: int) -> dict:
    out = {"picks": [{"shape": p["shape"], "consumer": p["consumer"], "rows": p["rows"],
                      "module_rows": p["module_rows"], "picked": p["picked"],
                      "slower_by": round(_slower(p, p["picked"]), 4),
                      "spread": p["spread"], "clear": _clearly_slower(p, p["picked"])}
                     for p in points if _slower(p, p["picked"]) > 0],
           "thresholds": []}
    # whole below t: every distinct split of the points' module rows
    rows = {p["module_rows"] for p in points}
    for t in sorted({min(rows)} | {r + 1 for r in rows} | {dense_below}):
        picks = [(p, "whole" if p["module_rows"] < t else "split") for p in points]
        wrong = [_slower(p, pick) for p, pick in picks if _slower(p, pick) > 0]
        clear = [_slower(p, pick) for p, pick in picks if _clearly_slower(p, pick)]
        out["thresholds"].append(
            {"dense_below": t, "slower_picks": len(wrong),
             "worst_slower_by": round(max(wrong, default=0.0), 4),
             "clear_slower_picks": len(clear),
             "worst_clear_slower_by": round(max(clear, default=0.0), 4)})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_layout.json"))
    args = parser.parse_args(argv)
    # set before numpy loads its BLAS
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    result = sweep()
    summary = _summary(result["points"], result["dense_below"])
    payload = {
        "what": "whole against split block layouts per consumer; see tools/layout_sweep.py",
        "command": "python3 tools/layout_sweep.py",
        "host": _host(),
        "blas_threads": BLAS_THREADS,
        "runs": RUNS,
        "passes": PASSES,
        "statistic": "median over the passes of the lower quartile of each pass's calls, ms",
        "rule": f"whole where N*d < DENSE_BELOW = {result['dense_below']}",
        "slower_picks": summary["picks"],
        "thresholds": summary["thresholds"],
        "points": result["points"],
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    clear = sum(pick["clear"] for pick in summary["picks"])
    print(f"wrote {args.out}: {len(result['points'])} points; the rule picks the slower "
          f"layout on {len(summary['picks'])}, clearly on {clear}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
