"""Command-line interface: build representations, run verification suites,
print characteristic roots and classify gl(m|n) highest weights.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Identical jobs produce byte-identical JSON (fixed key order, floats
rendered with %.17g); the verify report's duration_ms field is the one
documented exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import DomainError, Tolerance, to_rational
from .glrep import Representation
from .gtbasis import (
    pattern_weight,  # unused here, kept as a name the benchmark's tracer wraps
    row_starts,
    table_labels,
    table_weights,
)
from .charident import KIND_A, KIND_ABAR, char_roots
from .superglmn import (
    SuperWeight,
    classify_type1_star,
    super_char_roots,
    super_vector_weight,
    vector_rep,
)
from .verify import SUITE_NAMES, run_suite

SCHEMA_VERSION = 1
_ALGEBRA_RE = re.compile(r"^gl(\d+)(?:\|(\d+))?$")
_NEGATIVE_LABEL_RE = re.compile(r"^-[\d.]")


@dataclass(frozen=True)
class JobSpec:
    """One parsed CLI job."""

    command: str
    algebra: str
    weight: str
    kind: str | None = None
    suite: str | None = None
    tolerance: float | None = None
    output: str | None = None
    format: str = "json"


def parse_algebra(text: str):
    """'gl3' -> ('gl', (3,)); 'gl2|1' -> ('glmn', (2, 1))."""
    match = _ALGEBRA_RE.match(text.strip())
    if not match:
        raise DomainError(f"cannot parse algebra {text!r} (expected glN or glM|N)")
    first = int(match.group(1))
    if match.group(2) is None:
        if first < 1:
            raise DomainError("algebra size must be at least 1")
        return "gl", (first,)
    second = int(match.group(2))
    if first < 1 or second < 1:
        raise DomainError("both parity blocks must be non-empty")
    return "glmn", (first, second)


def parse_weight(text: str, family: str, sizes) -> tuple:
    """Comma-separated labels; super weights accept 'a,b|c' or a flat list
    split by the algebra's even block size."""
    text = text.strip()
    if family == "gl":
        labels = tuple(to_rational(x.strip()) for x in text.split(","))
        if len(labels) != sizes[0]:
            raise DomainError(
                f"expected {sizes[0]} labels for gl{sizes[0]}, got {len(labels)}")
        return labels
    m, n = sizes
    if "|" in text:
        even_text, odd_text = text.split("|", 1)
        even = tuple(to_rational(x.strip()) for x in even_text.split(","))
        odd = tuple(to_rational(x.strip()) for x in odd_text.split(","))
    else:
        labels = [to_rational(x.strip()) for x in text.split(",")]
        if len(labels) != m + n:
            raise DomainError(
                f"expected {m + n} labels for gl{m}|{n}, got {len(labels)}")
        even, odd = tuple(labels[:m]), tuple(labels[m:])
    if len(even) != m or len(odd) != n:
        raise DomainError(
            f"weight blocks ({len(even)}|{len(odd)}) do not match gl{m}|{n}")
    return SuperWeight(even, odd)


def resolve_tolerance(value: float | None) -> Tolerance:
    if value is None:
        env = os.environ.get("CHARID_TOLERANCE")
        if env is not None:
            value = float(env)
    if value is None:
        return Tolerance()
    return Tolerance(abs_eps=value, rel_eps=value)


class _Raw(str):
    """Text that render_json writes as it stands: JSON rendered in bulk."""


def render_json(value) -> str:
    """Deterministic JSON: insertion-ordered keys, floats as %.17g."""
    parts: list[str] = []

    def emit(v):
        if isinstance(v, dict):
            parts.append("{")
            for idx, (key, item) in enumerate(v.items()):
                if idx:
                    parts.append(", ")
                parts.append(json.dumps(str(key)))
                parts.append(": ")
                emit(item)
            parts.append("}")
        elif isinstance(v, (list, tuple)):
            parts.append("[")
            for idx, item in enumerate(v):
                if idx:
                    parts.append(", ")
                emit(item)
            parts.append("]")
        elif isinstance(v, (bool, np.bool_)) or v is None:
            parts.append(json.dumps(bool(v) if v is not None else None))
        elif isinstance(v, (int, np.integer)):
            parts.append(str(int(v)))
        elif isinstance(v, (float, np.floating)):
            parts.append(_float_json(v))
        elif isinstance(v, Fraction):
            parts.append(json.dumps(str(v)))
        elif isinstance(v, str):
            parts.append(v if isinstance(v, _Raw) else json.dumps(v))
        else:
            raise DomainError(f"cannot serialize {type(v).__name__}")

    emit(value)
    parts.append("\n")
    return "".join(parts)


def _float_json(v) -> str:
    if not math.isfinite(v):
        raise DomainError(f"cannot serialize non-finite float {float(v)}")
    return "%.17g" % float(v)


_CHECK_JSON = ('{"description": %s, "kind": "%s", "residual": %s, "threshold": %s, '
               '"passed": %s}')


def _checks_json(checks) -> _Raw:
    """The verify report's check records (CheckRecord.to_dict), each written
    with one format."""
    return _Raw("[" + ", ".join(
        _CHECK_JSON % (json.dumps(c.description), "exact" if c.exact else "residual",
                       "null" if c.residual is None else _float_json(c.residual),
                       "null" if c.threshold is None else _float_json(c.threshold),
                       "true" if c.passed else "false")
        for c in checks) + "]")


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _numbers(values: np.ndarray) -> tuple[list, str]:
    """Triplet values and their %-format: floats as %.17g, which must be
    finite, integers as they are."""
    if values.dtype.kind != "f":
        return values.tolist(), "%d"
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise DomainError(f"cannot serialize non-finite float {float(bad[0])}")
    return values.tolist(), "%.17g"


def _gl_generators(rep: Representation) -> list[tuple]:
    """(name, kind, rows, cols, values, format) of each generator's nonzero
    entries, row-major; a quoted format makes the values JSON strings."""
    d = rep.dim
    # Every diagonal entry is lam_N plus an integer offset; each distinct
    # value is formatted once.  An elementary entry is the str of
    # Surd.sqrt(Fraction(p, q)), with p/q the stored square reduced by gcd.
    diagonals = table_labels(rep.weight, table_weights(rep.table, rep.N), str)
    roots = {}
    for k, (_, _, nums, dens) in rep._ladders.items():
        g = np.gcd(nums, dens)
        roots[k] = np.array(["1*sqrt(%d/%d)" % pq if pq[0] else "0"
                             for pq in zip((nums // g).tolist(), (dens // g).tolist())])
    out = []
    for i, j in rep.generator_labels():
        name = f"a_{i}_{j}"
        if i == j:
            idx = np.flatnonzero(diagonals[:, i - 1] != "0")
            out.append((name, "diagonal", idx.tolist(), idx.tolist(),
                        diagonals[idx, i - 1].tolist(), '"%s"'))
        elif abs(i - j) == 1:
            rows, cols, _, _ = rep._ladders[min(i, j)]
            if i > j:
                rows, cols = cols, rows
            order = np.argsort(rows * d + cols, kind="stable")
            out.append((name, "elementary", rows[order].tolist(), cols[order].tolist(),
                        roots[min(i, j)][order].tolist(), '"%s"'))
        else:
            rows, cols, values = rep.triplets(i, j)
            out.append((name, "nonelementary", rows.tolist(), cols.tolist(), *_numbers(values)))
    return out


def _gl_basis(rep: Representation) -> _Raw:
    """The basis list: each pattern's ordinal and rows of labels, top row
    first, written with one format per pattern; each distinct label is
    rendered once."""
    starts = row_starts(rep.N)
    levels = range(rep.N, 0, -1)
    order = np.concatenate([np.arange(starts[k], starts[k] + k) for k in levels])
    labels = table_labels(rep.weight, rep.table[:, order], lambda x: json.dumps(str(x)))
    entry = '{"ordinal": %d, "rows": [' + ", ".join(
        "[" + ", ".join(["%s"] * k) + "]" for k in levels) + "]}"
    return _Raw("[" + ", ".join(entry % (i, *row) for i, row in enumerate(labels.tolist())) + "]")


def _super_generators(m: int, n: int) -> list[tuple]:
    gens = vector_rep(m, n)
    out = []
    for p, q in sorted(gens):
        rows, cols = np.nonzero(gens[(p, q)])
        out.append((f"a_{p}_{q}", "vector", rows.tolist(), cols.tolist(),
                    *_numbers(gens[(p, q)][rows, cols])))
    return out


def cmd_rep(spec: JobSpec) -> int:
    family, sizes = parse_algebra(spec.algebra)
    parsed = parse_weight(spec.weight, family, sizes)
    if family == "gl":
        rep = Representation(parsed)
        labels, dim = rep.weight, rep.dim
        generators = _gl_generators(rep)
    else:
        if parsed != super_vector_weight(*sizes):
            raise DomainError(
                "representation export for gl(m|n) covers the vector weight only")
        labels, dim = super_vector_weight(*sizes).labels(), sum(sizes)
        generators = _super_generators(*sizes)
    # Each generator's triplets are written with one format and one join.
    if spec.format == "csv":
        lines = ["generator,row,col,value"]
        for name, _, rows, cols, values, fmt in generators:
            line = f"{name},%d,%d," + fmt.strip('"')
            lines.extend(map(line.__mod__, zip(rows, cols, values)))
        _write_output("\n".join(lines) + "\n", spec.output)
        return 0
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "rep",
        "algebra": spec.algebra,
        "weight": [str(x) for x in labels],
        "dimension": dim,
    }
    if family == "gl":
        payload["basis"] = _gl_basis(rep)
    payload["generators"] = [
        {"name": name, "kind": kind, "rows": dim, "cols": dim,
         "triplets": _Raw("[" + ", ".join(map(f"[%d, %d, {fmt}]".__mod__,
                                              zip(rows, cols, values))) + "]")}
        for name, kind, rows, cols, values, fmt in generators]
    _write_output(render_json(payload), spec.output)
    return 0


def cmd_verify(spec: JobSpec) -> int:
    family, sizes = parse_algebra(spec.algebra)
    parsed = parse_weight(spec.weight, family, sizes)
    tol = resolve_tolerance(spec.tolerance)
    if spec.suite == "super":
        if family != "glmn":
            raise DomainError("suite super needs a gl(m|n) algebra")
        report = run_suite("super", super_mn=sizes, super_weight=parsed, tol=tol)
    else:
        if family != "gl":
            raise DomainError(f"suite {spec.suite} needs a gl(n) algebra")
        report = run_suite(spec.suite, rep=Representation(parsed), tol=tol)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "algebra": spec.algebra,
        "weight": spec.weight,
        "suite": spec.suite,
        "tolerance": {"abs_eps": tol.abs_eps, "rel_eps": tol.rel_eps},
    }
    payload.update(report.to_dict())
    payload["checks"] = _checks_json(report.checks)
    _write_output(render_json(payload), spec.output)
    return 0 if report.passed else 1


def cmd_roots(spec: JobSpec) -> int:
    family, sizes = parse_algebra(spec.algebra)
    parsed = parse_weight(spec.weight, family, sizes)
    kind = spec.kind or KIND_A
    if kind not in (KIND_A, KIND_ABAR):
        raise DomainError(f"roots command supports kinds A and Abar, got {kind!r}")
    if family == "gl":
        spectrum = char_roots(parsed, kind)
    else:
        spectrum = super_char_roots(parsed, kind)
    _write_output(", ".join(str(root.value) for root in spectrum) + "\n",
                  spec.output)
    return 0


def cmd_classify(spec: JobSpec) -> int:
    family, sizes = parse_algebra(spec.algebra)
    if family != "glmn":
        raise DomainError("classification applies to gl(m|n) weights")
    verdict = classify_type1_star(parse_weight(spec.weight, family, sizes))
    if verdict.witness is None:
        _write_output(f"{verdict.verdict}\n", spec.output)
    else:
        _write_output(f"{verdict.verdict}, witness mu={verdict.witness}\n",
                      spec.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs
    about ten times as much as parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="charid",
        description="Characteristic identities and Gelfand-Tsetlin "
                    "representations for gl(n) and gl(m|n).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kind=False, suite=False, fmt=False):
        p.add_argument("--algebra", required=True,
                       help="glN for gl(n), glM|N for gl(m|n)")
        p.add_argument("--weight", required=True,
                       help="comma-separated labels; super weights may use 'a,b|c'")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override abs/rel tolerance (env CHARID_TOLERANCE)")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        if kind:
            p.add_argument("--kind", choices=(KIND_A, KIND_ABAR), default=KIND_A)
        if suite:
            p.add_argument("--suite", choices=SUITE_NAMES, required=True)
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    common(sub.add_parser("rep", help="emit basis and generator matrices"), fmt=True)
    common(sub.add_parser("verify", help="run a verification suite"), suite=True)
    common(sub.add_parser("roots", help="print exact characteristic roots"), kind=True)
    common(sub.add_parser("classify", help="type 1 star classification"))
    return parser


def _attach_weight(argv) -> list[str]:
    """argv with each `--weight VALUE` whose VALUE is a negative label
    list, like -1,-3 or -1/2,-3/2, joined into `--weight=VALUE`: argparse
    takes such a value for an option and reports the weight missing."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--weight" and _NEGATIVE_LABEL_RE.match(arg):
            out[-1] = f"--weight={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_weight(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    spec = JobSpec(
        command=args.command,
        algebra=args.algebra,
        weight=args.weight,
        kind=getattr(args, "kind", None),
        suite=getattr(args, "suite", None),
        tolerance=args.tolerance,
        output=args.output,
        format=getattr(args, "format", "json"),
    )
    handlers = {
        "rep": cmd_rep,
        "verify": cmd_verify,
        "roots": cmd_roots,
        "classify": cmd_classify,
    }
    try:
        return handlers[spec.command](spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
