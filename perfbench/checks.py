"""Output checks for benchmark jobs.

A job fails when its exit code or its output disagrees with what the
benchmark computed on its own: verify payloads must pass every check they
report and be internally consistent, exports must have the Weyl dimension
and agree between JSON and CSV, roots must equal the closed forms, and
invalid jobs must exit 2.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

VERDICTS = ("typical-type1", "atypical-type1", "not-type1-star")


def check_verify(text: str) -> tuple[str | None, float]:
    """(failure reason or None, worst residual/threshold of the payload)."""
    payload = json.loads(text)
    checks = payload["checks"]
    summary = payload["summary"]
    worst = 0.0
    for check in checks:
        if not check["passed"]:
            return f"check failed: {check['description']}", worst
        if check["kind"] == "residual":
            residual, threshold = check["residual"], check["threshold"]
            if not (math.isfinite(residual) and math.isfinite(threshold)
                    and 0 <= residual <= threshold):
                return f"residual {residual} above threshold {threshold}", worst
            worst = max(worst, residual / threshold)
    if not (summary["overall"] is True and summary["failed"] == 0
            and summary["total"] == len(checks) > 0):
        return "summary does not report a full pass", worst
    return None, worst


def json_triplets(text: str) -> set[tuple]:
    payload = json.loads(text)
    out = set()
    for gen in payload["generators"]:
        for r, c, value in gen["triplets"]:
            rendered = "%.17g" % value if isinstance(value, float) else str(value)
            out.add((gen["name"], r, c, rendered))
    return out


def csv_triplets(text: str) -> set[tuple]:
    lines = text.splitlines()
    if not lines or lines[0] != "generator,row,col,value":
        raise ValueError("missing CSV header")
    out = set()
    for line in lines[1:]:
        name, r, c, value = line.split(",", 3)
        out.add((name, int(r), int(c), value))
    return out


def check_rep_json(text: str, dimension: int) -> str | None:
    payload = json.loads(text)
    if payload["dimension"] != dimension or len(payload["basis"]) != dimension:
        return f"dimension {payload['dimension']} differs from Weyl dimension {dimension}"
    return None


def check_pair(json_text: str, csv_text: str) -> str | None:
    if json_triplets(json_text) != csv_triplets(csv_text):
        return "JSON and CSV triplets disagree"
    return None


def check_roots(text: str, expected: list[str]) -> str | None:
    got = [Fraction(part.strip()) for part in text.strip().split(",")]
    if got != [Fraction(x) for x in expected]:
        return f"roots {text.strip()} differ from {', '.join(expected)}"
    return None


def check_classify(text: str) -> str | None:
    verdict = text.strip().split(",")[0]
    if verdict not in VERDICTS:
        return f"unknown verdict {verdict!r}"
    return None


def check_job(job, code, out: str) -> tuple[str | None, float]:
    """(failure reason or None, residual margin) for one finished job.

    The JSON/CSV agreement of exports is checked separately with
    check_pair, once both halves of the pair have run.
    """
    if job.kind == "invalid":
        return (None if code == 2 else f"exit {code}, expected 2"), 0.0
    if code != 0:
        return f"exit {code}, expected 0", 0.0
    try:
        if job.kind == "verify":
            return check_verify(out)
        if job.kind == "rep":
            if job.expect["format"] == "json":
                return check_rep_json(out, job.expect["dimension"]), 0.0
            csv_triplets(out)
            return None, 0.0
        if job.kind == "roots":
            return check_roots(out, job.expect["roots"]), 0.0
        if job.kind == "classify":
            return check_classify(out), 0.0
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}", 0.0
    return f"unknown job kind {job.kind!r}", 0.0
