"""Self-test of the charid benchmark.

    python3 perfbench/selftest.py

1. A one-second run of every workload, untraced and traced, must print every
   metric named in BENCHMARK.json with its unit, and no job may fail.
2. Tampered outputs must be counted as failed jobs: a verify payload whose
   summary or residual was altered, a wrong root, an export whose dimension
   or CSV disagrees, and an invalid job that exits 0.  This keeps the output
   checks from being vacuous.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import Phase, import_charid, run_pass  # noqa: E402
from workloads import WORKLOADS, Job, rep_job, roots_job, verify_job  # noqa: E402

PROBLEMS: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        PROBLEMS.append(message)


def check_metric_listing() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 (stderr: {proc.stderr[-500:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label} prints exactly correct, attempted, failed, metrics")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{label} prints every {group} metric with its unit")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()), f"{label} values are numbers")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label} runs jobs and none fails")


class TamperingCli:
    """Runs the real CLI, then rewrites its output with tamper(argv, text)."""

    def __init__(self, cli, tamper):
        self.cli = cli
        self.tamper = tamper

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        text, code = self.tamper(argv, out.getvalue(), code)
        sys.stdout.write(text)
        return code


def failures_with(cli, jobs, tamper) -> int:
    phase = Phase()
    run_pass(TamperingCli(cli, tamper), jobs, phase)
    return phase.failed


def check_tampering() -> None:
    cli = import_charid().cli
    lam = (2, 1, 0)
    identity = verify_job(lam, "identity")
    roots = roots_job(lam, "A")
    pair = [rep_job(lam, "json"), rep_job(lam, "csv")]
    invalid = Job(("verify", "--algebra", "gl3", "--weight=0,1,2", "--suite", "identity"),
                  "invalid", None, {"exit": 2})
    honest = [identity, roots, *pair, invalid]
    expect(failures_with(cli, honest, lambda a, t, c: (t, c)) == 0,
           "untampered outputs pass every check")

    def overall_false(argv, text, code):
        return text.replace('"overall": true', '"overall": false'), code

    def residual_above(argv, text, code):
        payload = json.loads(text)
        check = next(c for c in payload["checks"] if c["kind"] == "residual")
        check["residual"] = 10 * check["threshold"]
        return json.dumps(payload), code

    def wrong_root(argv, text, code):
        return text.replace("4", "5", 1), code

    def wrong_dimension(argv, text, code):
        return (text.replace('"dimension": 8', '"dimension": 9')
                if "--format" in argv and argv[-1] == "json" else text), code

    def csv_disagrees(argv, text, code):
        if argv[-1] != "csv":
            return text, code
        head, first, rest = text.split("\n", 2)
        name, r, c, _ = first.split(",")
        return "\n".join([head, f"{name},{r},{c},123", rest]), code

    def invalid_accepted(argv, text, code):
        return text, 0

    cases = (
        ("a verify payload with summary.overall false", [identity], overall_false),
        ("a verify payload with a residual above its threshold", [identity], residual_above),
        ("a wrong root", [roots], wrong_root),
        ("an export whose dimension is not the Weyl dimension", pair, wrong_dimension),
        ("a CSV export that disagrees with the JSON one", pair, csv_disagrees),
        ("an invalid job that exits 0", [invalid], invalid_accepted),
    )
    for label, jobs, tamper in cases:
        expect(failures_with(cli, jobs, tamper) == 1, f"{label} counts as one failed job")


def main() -> int:
    check_tampering()
    check_metric_listing()
    print("selftest " + ("passed" if not PROBLEMS else f"failed: {len(PROBLEMS)} problem(s)"))
    return 0 if not PROBLEMS else 1


if __name__ == "__main__":
    sys.exit(main())
