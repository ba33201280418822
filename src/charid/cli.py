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
from collections import namedtuple

import numpy as np

from .kernel import (
    KIND_A,
    KIND_ABAR,
    SUITE_NAMES,
    DomainError,
    Tolerance,
    late_names,
    offsets,
    to_rational,
)

# Importing this module loads only kernel: each command binds the names it
# runs when it first runs, so a process compiles the modules its jobs need.
_bind, __getattr__ = late_names(globals(), {
    "gtbasis": "row_starts table_labels table_weights",
    "glrep": "Representation",
    "charident": "char_roots",
    "superglmn": "SuperWeight classify_type1_star super_char_roots super_vector_weight "
                 "vector_rep",
    "verify": "check_job run_suite",
})

SCHEMA_VERSION = 1
_ALGEBRA_RE = re.compile(r"^gl(\d+)(?:\|(\d+))?$")
_NEGATIVE_LABEL_RE = re.compile(r"^-[\d.]")


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
    _bind("SuperWeight")
    return SuperWeight(even, odd)


def resolve_tolerance(value: float | None) -> Tolerance:
    if value is None and "CHARID_TOLERANCE" in os.environ:
        value = float(os.environ["CHARID_TOLERANCE"])
    return Tolerance() if value is None else Tolerance(value)


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
        elif isinstance(v, bool) or v is None:
            parts.append(json.dumps(v))
        elif isinstance(v, int):
            parts.append(str(v))
        elif isinstance(v, (float, np.floating)):
            parts.append(_float_json(v))
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
    """The verify report's check records, each written with one format."""
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


# Every generator's (name, kind) and nonzero entries, generator after
# generator and row-major within each: generator g owns the entries
# starts[g]:starts[g+1], and entry e's value is the JSON text texts[codes[e]].
_Table = namedtuple("_Table", "generators starts rows cols codes texts")


def _distinct(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Each value's index among the distinct values, which must be finite,
    and their %.17g texts."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise DomainError(f"cannot serialize non-finite float {float(bad[0])}")
    unique, codes = np.unique(values, return_inverse=True)
    return codes, ["%.17g" % v for v in unique.tolist()]


def _gl_table(rep: Representation) -> _Table:
    """The module's triplet table rep.entries, each distinct value rendered
    once."""
    N, d = rep.N, rep.dim
    rows, cols, values = rep.entries
    i, j = np.divmod(rep.entry_gen, N)
    step = abs(i - j)
    codes = np.empty(len(rows), dtype=np.intp)
    # A diagonal entry is lam_N plus an integer offset: one text per offset.
    weights = table_weights(rep.table, N)
    span = np.arange(weights.min(initial=0), weights.max(initial=0) + 1)
    texts = table_labels(rep.weight, span, '"{}"'.format).tolist()
    codes[step == 0] = weights[rows[step == 0], i[step == 0]] - span[0]
    # An elementary entry is the str of Surd.sqrt(Fraction(p, q)), with p/q
    # the stored square of a_{k,k+1}'s entry reduced by gcd: one text per
    # distinct (p, q), placed at the entry and its transpose in a_{k+1,k}.
    # Every square is positive, so the ladders hold exactly these entries.
    if rep._ladders:
        lrows, lcols, nums, dens = (np.concatenate(a) for a in zip(*rep._ladders.values()))
        k = np.repeat(np.arange(1, N), [len(ladder[0]) for ladder in rep._ladders.values()])
        g = np.gcd(nums, dens)
        nums, dens = nums // g, dens // g
        (_, p), (_, q) = (np.unique(x, return_inverse=True) for x in (nums, dens))
        _, first, pair = np.unique(p * (q.max(initial=0) + 1) + q,
                                   return_index=True, return_inverse=True)
        key = np.concatenate([(((k - 1) * N + k) * d + lrows) * d + lcols,
                              ((k * N + k - 1) * d + lcols) * d + lrows])
        codes[step == 1] = len(texts) + np.tile(pair, 2)[np.argsort(key)]
        texts += ['"1*sqrt(%d/%d)"' % pq for pq in zip(nums[first].tolist(), dens[first].tolist())]
    found, floats = _distinct(values[step > 1])
    codes[step > 1] = len(texts) + found
    kinds = ("diagonal", "elementary", "nonelementary")
    return _Table([(f"a_{a}_{b}", kinds[min(abs(a - b), 2)]) for a, b in rep.generator_labels()],
                  rep.entry_starts, rows, cols, codes, texts + floats)


def _super_table(m: int, n: int) -> _Table:
    size = m + n
    mats = vector_rep(m, n).reshape(size * size, size, size)  # a_pq at (p-1)s + q-1
    g, rows, cols = np.nonzero(mats)
    names = [(f"a_{p + 1}_{q + 1}", "vector") for p, q in np.ndindex(size, size)]
    return _Table(names, offsets(g, len(mats)), rows, cols, *_distinct(mats[g, rows, cols]))


def _pieces(table: _Table, dim: int, fmt: str) -> np.ndarray:
    """One row of text pieces per triplet, taken by index from pieces made
    once per index and per distinct value: `name,row,col,value` lines for
    CSV, `[row, col, value], ` for JSON."""
    if fmt == "csv":
        index = np.array(["%d," % v for v in range(dim)], dtype=object)
        names = np.array([name + "," for name, _ in table.generators], dtype=object)
        columns = [np.repeat(names, np.diff(table.starts)), index[table.rows], index[table.cols]]
        texts = [s.strip('"') + "\n" for s in table.texts]
    else:
        columns = [np.array(["[%d, " % v for v in range(dim)], dtype=object)[table.rows],
                   np.array(["%d, " % v for v in range(dim)], dtype=object)[table.cols]]
        texts = [s + "], " for s in table.texts]
    return np.stack(columns + [np.array(texts, dtype=object)[table.codes]], axis=1)


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


@functools.lru_cache(maxsize=8)
def _module(build, labels) -> Representation:
    """build(labels), kept for the 8 most recent keys, so that one process
    that runs several jobs on one weight builds its module once.  The key
    holds the constructor as looked up at the call, so a replaced
    Representation is never served a module built by another; a
    constructor that raises is not cached.  A built module's arrays are
    read-only, so no job can change what a later one reads."""
    return build(labels)


def cmd_rep(args: argparse.Namespace) -> int:
    family, sizes = parse_algebra(args.algebra)
    parsed = parse_weight(args.weight, family, sizes)
    if family == "gl":
        _bind("Representation", "row_starts", "table_labels", "table_weights")
        rep = _module(Representation, parsed)
        labels, dim, table = rep.weight, rep.dim, _gl_table(rep)
    else:
        _bind("super_vector_weight", "vector_rep")
        if parsed != super_vector_weight(*sizes):
            raise DomainError(
                "representation export for gl(m|n) covers the vector weight only")
        labels, dim, table = parsed.labels(), sum(sizes), _super_table(*sizes)
    pieces = _pieces(table, dim, args.format)
    if args.format == "csv":
        _write_output("generator,row,col,value\n" + "".join(pieces.ravel().tolist()),
                      args.output)
        return 0
    payload = {"schema": SCHEMA_VERSION, "command": "rep", "algebra": args.algebra,
               "weight": [str(x) for x in labels], "dimension": dim}
    if family == "gl":
        payload["basis"] = _gl_basis(rep)
    starts = table.starts.tolist()
    # Each generator's triplets are one join; the last one's ", " is cut.
    payload["generators"] = [
        {"name": name, "kind": kind, "rows": dim, "cols": dim,
         "triplets": _Raw("[" + "".join(pieces[lo:hi].ravel().tolist())[:-2] + "]")}
        for (name, kind), lo, hi in zip(table.generators, starts, starts[1:])]
    _write_output(render_json(payload), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    family, sizes = parse_algebra(args.algebra)
    parsed = parse_weight(args.weight, family, sizes)
    tol = resolve_tolerance(args.tolerance)
    _bind("Representation", "check_job", "run_suite")
    # A job its suite cannot run is refused before its module is built.
    check_job(args.suite, family, parsed if family == "gl" else parsed.labels())
    if family == "glmn":
        report = run_suite("super", super_weight=parsed, tol=tol)
    else:
        report = run_suite(args.suite, rep=_module(Representation, parsed), tol=tol)
    payload = {"schema": SCHEMA_VERSION, "command": "verify", "algebra": args.algebra,
               "weight": args.weight, "suite": args.suite,
               "tolerance": {"abs_eps": tol.eps, "rel_eps": tol.eps},
               "checks": _checks_json(report.checks)}
    payload.update(report.to_dict())
    _write_output(render_json(payload), args.output)
    return 0 if report.passed else 1


def cmd_roots(args: argparse.Namespace) -> int:
    family, sizes = parse_algebra(args.algebra)
    parsed = parse_weight(args.weight, family, sizes)
    if family == "gl":
        _bind("char_roots")
        spectrum = char_roots(parsed, args.kind)
    else:
        _bind("super_char_roots")
        spectrum = super_char_roots(parsed, args.kind)
    _write_output(", ".join(str(root.value) for root in spectrum) + "\n",
                  args.output)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    family, sizes = parse_algebra(args.algebra)
    if family != "glmn":
        raise DomainError("classification applies to gl(m|n) weights")
    _bind("classify_type1_star")
    verdict = classify_type1_star(parse_weight(args.weight, family, sizes))
    if verdict.witness is None:
        _write_output(f"{verdict.verdict}\n", args.output)
    else:
        _write_output(f"{verdict.verdict}, witness mu={verdict.witness}\n",
                      args.output)
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
    handlers = {"rep": cmd_rep, "verify": cmd_verify, "roots": cmd_roots,
                "classify": cmd_classify}
    try:
        with np.errstate(all="ignore"):  # no warnings: a non-finite residual exits 2
            return handlers[args.command](args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
