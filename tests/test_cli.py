import json
import math
import re
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import charid.blocks
import charid.cli
from charid.cli import main, parse_algebra, parse_weight, render_json
from charid.glrep import Representation
from charid.gtbasis import row_starts, table_labels, table_weights
from charid.kernel import DomainError
from charid.superglmn import SuperWeight, super_vector_weight, vector_rep
from charid.verify import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_algebra_forms():
    assert parse_algebra("gl3") == ("gl", (3,))
    assert parse_algebra("gl2|1") == ("glmn", (2, 1))
    with pytest.raises(Exception):
        parse_algebra("su3")


def test_parse_weight_super_both_syntaxes():
    piped = parse_weight("1,0|0", "glmn", (2, 1))
    flat = parse_weight("1,0,0", "glmn", (2, 1))
    assert piped == flat == SuperWeight((1, 0), (0,))


def test_rep_json_payload(capsys):
    code, out, _ = run(capsys, "rep", "--algebra", "gl3", "--weight", "2,1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["dimension"] == 8
    assert len(payload["basis"]) == 8
    assert payload["basis"][0]["rows"][0] == ["2", "1", "0"]


def test_rep_defining_gl2_triplets(capsys):
    code, out, _ = run(capsys, "rep", "--algebra", "gl2", "--weight", "1,0")
    assert code == 0
    payload = json.loads(out)
    gens = {g["name"]: g for g in payload["generators"]}
    assert gens["a_1_2"]["triplets"] == [[0, 1, "1*sqrt(1/1)"]]
    assert gens["a_2_1"]["triplets"] == [[1, 0, "1*sqrt(1/1)"]]
    assert gens["a_1_1"]["triplets"] == [[0, 0, "1"]]


def test_rep_triplets_list_every_nonzero_entry(capsys):
    # loop reference for the export: row-major nonzero entries, with the
    # commutator-built generators as decimals equal to the float matrix
    rep = Representation((2, 1, 0))
    _, out, _ = run(capsys, "rep", "--algebra", "gl3", "--weight", "2,1,0")
    for gen in json.loads(out)["generators"]:
        i, j = (int(x) for x in gen["name"].split("_")[1:])
        mat = rep.gen(i, j)
        entries = [[r, c] for r in range(rep.dim) for c in range(rep.dim)
                   if mat[r, c] != 0]
        assert [t[:2] for t in gen["triplets"]] == entries
        if abs(i - j) >= 2:
            assert [t[2] for t in gen["triplets"]] == [mat[r, c] for r, c in entries]


def test_rep_rejects_non_dominant(capsys):
    code, _, err = run(capsys, "rep", "--algebra", "gl2", "--weight", "0,1")
    assert code == 2
    assert "dominant" in err


def test_rep_byte_determinism(capsys):
    _, first, _ = run(capsys, "rep", "--algebra", "gl3", "--weight", "2,1,0")
    _, second, _ = run(capsys, "rep", "--algebra", "gl3", "--weight", "2,1,0")
    assert first == second


def test_rep_csv_format(capsys):
    code, out, _ = run(capsys, "rep", "--algebra", "gl2", "--weight", "1,0",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "generator,row,col,value"
    assert "a_1_2,0,1,1*sqrt(1/1)" in lines


def test_verify_identity_passes(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--algebra", "gl3", "--weight", "2,1,0",
                     "--suite", "identity", "--output", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["summary"]["overall"] is True
    assert payload["schema"] == 1
    assert all(check["passed"] for check in payload["checks"])


def test_verify_reports_are_stable_apart_from_duration(capsys):
    _, first, _ = run(capsys, "verify", "--algebra", "gl3", "--weight", "2,1,0",
                      "--suite", "identity")
    _, second, _ = run(capsys, "verify", "--algebra", "gl3", "--weight",
                       "2,1,0", "--suite", "identity")
    a, b = json.loads(first), json.loads(second)
    a.pop("duration_ms"), b.pop("duration_ms")
    assert a == b


def test_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "gl3", "--weight",
                       "2,1,0", "--suite", "identity", "--tolerance", "1e-30")
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["overall"] is False


def test_verify_tolerance_env(capsys, monkeypatch):
    monkeypatch.setenv("CHARID_TOLERANCE", "1e-30")
    code, _, _ = run(capsys, "verify", "--algebra", "gl3", "--weight", "2,1,0",
                     "--suite", "identity")
    assert code == 1
    monkeypatch.setenv("CHARID_TOLERANCE", "1e-9")
    code, _, _ = run(capsys, "verify", "--algebra", "gl3", "--weight", "2,1,0",
                     "--suite", "identity")
    assert code == 0
    monkeypatch.setenv("CHARID_TOLERANCE", "inf")
    code, out, err = run(capsys, "verify", "--algebra", "gl3", "--weight",
                         "2,1,0", "--suite", "identity")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err


def test_verify_infinite_tolerance_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "gl3", "--weight",
                         "2,1,0", "--suite", "identity", "--tolerance", "inf")
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("rep", "--algebra", "gl2", "--weight=1,0"),
    ("roots", "--algebra", "gl2", "--weight=1,0"),
    ("classify", "--algebra", "gl2|1", "--weight=1,0|0")], ids=lambda argv: argv[0])
def test_tolerance_is_a_verify_option_only(capsys, argv):
    """rep, roots and classify read no tolerance, so they refuse the option."""
    code, out, _ = run(capsys, *argv, "--tolerance", "1e-6")
    assert code == 2 and out == ""


def test_verify_vacuous_tolerance_is_usage_error(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "--algebra", "gl3", "--weight",
                         "2,1,0", "--suite", "identity", "--tolerance", "1e300")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "at most" in err
    monkeypatch.setenv("CHARID_TOLERANCE", "1e300")
    code, out, err = run(capsys, "verify", "--algebra", "gl3", "--weight",
                         "2,1,0", "--suite", "identity")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "at most" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--algebra", "gl2", "--weight=1/0,0", "--suite", "identity"),
    ("rep", "--algebra", "gl2", "--weight=1,0/0"),
    ("roots", "--algebra", "gl2|1", "--weight=1/0,0|0"),
])
def test_zero_denominator_label_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "zero denominator" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "--algebra", "gl3", "--weight=1,0", "--suite", "relations"),
     "expected 3 labels for gl3, got 2"),
    (("verify", "--algebra", "gl2|1", "--weight=1,0", "--suite", "super"),
     "expected 3 labels for gl2|1, got 2"),
    (("verify", "--algebra", "gl2|1", "--weight=1|0,0", "--suite", "super"),
     "weight blocks (1|2) do not match gl2|1"),
    (("rep", "--algebra", "gl0", "--weight=1"), "algebra size must be at least 1"),
    (("rep", "--algebra", "gl0|1", "--weight=1"), "both parity blocks must be non-empty"),
    (("rep", "--algebra", "gl2|1", "--weight=2,0|0"),
     "representation export for gl(m|n) covers the vector weight only"),
])
def test_malformed_algebra_or_weight_is_usage_error(capsys, argv, message):
    """Label counts, super weight blocks, empty algebras and a super
    export of a weight other than the vector weight are refused with one
    error line and nothing on stdout."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    for argv in (("verify", "--suite", "identity"), ("rep",)):
        code, _, err = run(capsys, *argv, "--algebra", "gl3", "--weight",
                           "2,1,0", "--output", str(target))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 1.5 GiB")],
                         ids=["bare", "numpy"])
def test_out_of_memory_is_usage_error(capsys, monkeypatch, exc):
    """A job too large for memory exits 2 with one error line, not 1 (a
    failed check) with a traceback."""
    def too_large(labels):
        raise exc

    monkeypatch.setattr(charid.cli, "Representation", too_large)
    code, out, err = run(capsys, "verify", "--algebra", "gl3", "--weight", "2,1,0",
                         "--suite", "invariants")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert err.strip() != "error:"


def test_verify_invariants_suite_serializes(capsys):
    # regression: numpy scalars from the residual sweep must not leak into
    # the JSON renderer
    code, out, _ = run(capsys, "verify", "--algebra", "gl3", "--weight",
                       "2,1,0", "--suite", "invariants")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["overall"] is True
    assert all(isinstance(c["passed"], bool) for c in payload["checks"])


@pytest.mark.parametrize("argv", [
    ("--algebra", "gl3", "--weight", "2,1,0", "--suite", "invariants"),
    ("--algebra", "gl3", "--weight", "7/2,5/2,1/2", "--suite", "relations"),
    ("--algebra", "gl3", "--weight", "2,1,0", "--suite", "projectors", "--tolerance", "1e-30"),
    ("--algebra", "gl2|1", "--weight", "1,0|0", "--suite", "super"),
], ids=" ".join)
def test_verify_check_records_render_as_the_generic_emitter(capsys, argv):
    """The verify payload writes each check record with one format; the
    text is what render_json makes of the same values, exact checks'
    nulls and failed checks included."""
    code, out, _ = run(capsys, "verify", *argv)
    assert code in (0, 1)
    assert out == render_json(json.loads(out))


def test_verify_super_suite(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "gl1|1", "--weight",
                       "1,0", "--suite", "super")
    assert code == 0
    assert json.loads(out)["summary"]["overall"] is True


def test_verify_unknown_suite_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--algebra", "gl3", "--weight", "2,1,0",
                     "--suite", "nonsense")
    assert code == 2


def test_verify_suite_algebra_mismatch(capsys):
    code, _, err = run(capsys, "verify", "--algebra", "gl1|1", "--weight",
                       "1,0", "--suite", "identity")
    assert code == 2
    assert "gl(n)" in err


def test_roots_outputs(capsys):
    code, out, _ = run(capsys, "roots", "--algebra", "gl3", "--weight",
                       "2,1,0", "--kind", "A")
    assert code == 0 and out.strip() == "4, 2, 0"
    code, out, _ = run(capsys, "roots", "--algebra", "gl3", "--weight",
                       "2,1,0", "--kind", "Abar")
    assert code == 0 and out.strip() == "-2, 0, 2"
    code, out, _ = run(capsys, "roots", "--algebra", "gl1", "--weight", "7")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run(capsys, "roots", "--algebra", "gl1|1", "--weight", "1,0")
    assert code == 0 and out.strip() == "0, 0"


def test_classify_outputs(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", "gl2|1", "--weight",
                       "1,0,0")
    assert code == 0 and out.strip() == "atypical-type1, witness mu=1"
    code, out, _ = run(capsys, "classify", "--algebra", "gl2|1", "--weight",
                       "2,1|3")
    assert code == 0 and out.strip() == "typical-type1"


def test_classify_needs_super_algebra(capsys):
    code, _, _ = run(capsys, "classify", "--algebra", "gl2", "--weight", "1,0")
    assert code == 2


def test_render_json_float_format():
    assert render_json({"x": 0.1}) == '{"x": 0.10000000000000001}\n'
    assert render_json([1, "a", None, True]) == '[1, "a", null, true]\n'
    for value in (float("inf"), float("-inf"), float("nan"), np.float64("inf")):
        with pytest.raises(DomainError):
            render_json({"residual": value})


def test_cli_import_loads_no_scipy():
    """Importing the CLI is the start-up cost of every command; the checks
    use numpy only, and scipy would add its import time to each."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, charid.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


# Reference for the export: the payload built entry by entry, with the
# elementary values from the exact Surd sidecar and the commutator-built
# ones from the dense matrices, written by a recursive JSON emitter.

def _reference_json(value) -> str:
    parts = []

    def emit(v):
        if isinstance(v, dict):
            parts.append("{")
            for idx, (key, item) in enumerate(v.items()):
                if idx:
                    parts.append(", ")
                parts.append(json.dumps(str(key)) + ": ")
                emit(item)
            parts.append("}")
        elif isinstance(v, list):
            parts.append("[")
            for idx, item in enumerate(v):
                if idx:
                    parts.append(", ")
                emit(item)
            parts.append("]")
        elif isinstance(v, int):
            parts.append(str(v))
        elif isinstance(v, float):
            assert math.isfinite(v)
            parts.append("%.17g" % v)
        else:
            parts.append(json.dumps(v))

    emit(value)
    return "".join(parts) + "\n"


def _reference_triplets(matrix):
    rows, cols = np.nonzero(matrix)
    return [list(t) for t in zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist())]


def _reference_payload(algebra, labels):
    if "|" in algebra:
        m, n = (int(x) for x in algebra[2:].split("|"))
        gens = vector_rep(m, n)
        size = m + n
        return {"schema": 1, "command": "rep", "algebra": algebra,
                "weight": [str(x) for x in super_vector_weight(m, n).labels()],
                "dimension": size,
                "generators": [{"name": f"a_{p}_{q}", "kind": "vector", "rows": size,
                                "cols": size, "triplets": _reference_triplets(gens[p - 1, q - 1])}
                               for p in range(1, size + 1) for q in range(1, size + 1)]}
    rep = Representation(labels)
    starts = row_starts(rep.N)
    basis = [{"ordinal": c, "rows": [[str(rep.weight[-1] + int(o))
                                       for o in row[starts[k]:starts[k] + k]]
                                      for k in range(rep.N, 0, -1)]}
             for c, row in enumerate(rep.table)]
    diagonals = table_labels(rep.weight, table_weights(rep.table, rep.N), str)
    generators = []
    for i, j in rep.generator_labels():
        if i == j:
            triplets = [[c, c, str(v)] for c, v in enumerate(diagonals[:, i - 1]) if v != "0"]
            kind = "diagonal"
        elif abs(i - j) == 1:
            surds = rep.raising_surds[min(i, j)]
            exact = surds if j == i + 1 else {(c, r): v for (r, c), v in surds.items()}
            triplets = [[r, c, str(v)] for (r, c), v in sorted(exact.items())]
            kind = "elementary"
        else:
            triplets = _reference_triplets(rep.gen(i, j))
            kind = "nonelementary"
        generators.append({"name": f"a_{i}_{j}", "kind": kind, "rows": rep.dim,
                           "cols": rep.dim, "triplets": triplets})
    return {"schema": 1, "command": "rep", "algebra": algebra,
            "weight": [str(x) for x in rep.weight], "dimension": rep.dim,
            "basis": basis, "generators": generators}


def _reference_csv(payload):
    lines = ["generator,row,col,value"]
    for gen in payload["generators"]:
        for r, c, value in gen["triplets"]:
            rendered = "%.17g" % value if isinstance(value, float) else str(value)
            lines.append(f"{gen['name']},{r},{c},{rendered}")
    return "\n".join(lines) + "\n"


EXPORTS = [
    ("gl1", "-5/2"),
    ("gl2", "3/2,-1/2"),
    ("gl2", "0,-3"),
    ("gl3", "5,3,-2"),
    ("gl3", "1/2,-1/2,-7/2"),
    ("gl4", "2,1,-1,-3"),
    ("gl4", "9/2,5/2,1/2,-3/2"),
    ("gl5", "7/2,7/2,5/2,3/2,1/2"),
    ("gl5", "3,2,2,1,0"),
    ("gl5", "-1,-1,-2,-3,-3"),
    # the ladder products of this gl(12) module reach 2**53 and are taken
    # in Python ints
    ("gl12", ",".join(["3/2"] + ["-1/2"] * 11)),
    ("gl2|1", "1,0|0"),
    ("gl2|2", "1,0|0,0"),
    # dim 1: no ladder entries and every off-diagonal generator empty
    ("gl3", "0,0,0"),
    # nonzero labels whose floats are 0.0: each diagonal entry is still
    # stored and written with its exact label
    ("gl1", "1e-400"),
    ("gl2", "1e-400,1e-400"),
    # dim 280, the largest export the benchmark draws: 6 844 triplets whose
    # 4 120 commutator-built floats hold 439 distinct values
    ("gl5", "3,2,1,0,0"),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("algebra, text", EXPORTS, ids=[e[0] + ":" + e[1] for e in EXPORTS])
def test_rep_export_is_byte_identical_to_reference(capsys, algebra, text, fmt):
    labels = tuple(Fraction(x) for x in text.replace("|", ",").split(","))
    payload = _reference_payload(algebra, labels)
    expected = _reference_json(payload) if fmt == "json" else _reference_csv(payload)
    code, out, _ = run(capsys, "rep", "--algebra", algebra, f"--weight={text}", "--format", fmt)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("suite", ["relations", "identity", "projectors"])
def test_label_below_float64_keeps_its_diagonal_entry(capsys, suite):
    """The entry of a_11 exists where its exact label is nonzero, even
    where that label's float is 0.0; both exports write the label and the
    checks pass on the module."""
    label = "1/1" + "0" * 400
    rep = Representation((Fraction(label),))
    rows, cols, values = rep.triplets(1, 1)
    assert (rows.tolist(), cols.tolist(), values.tolist()) == ([0], [0], [0.0])
    for fmt, line in (("json", f'"triplets": [[0, 0, "{label}"]]'),
                      ("csv", f"a_1_1,0,0,{label}")):
        code, out, _ = run(capsys, "rep", "--algebra", "gl1", "--weight=1e-400", "--format", fmt)
        assert code == 0 and line in out
    code, out, _ = run(capsys, "verify", "--algebra", "gl1", "--weight=1e-400", "--suite", suite)
    assert code == 0 and json.loads(out)["summary"]["overall"] is True


def test_gl12_export_weight_takes_the_python_int_path():
    rep = Representation((Fraction(3, 2),) + (Fraction(-1, 2),) * 11)
    assert any(nums.dtype == object for _, _, nums, _ in rep._ladders.values())


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rep_export_makes_no_dense_matrix(capsys, monkeypatch, fmt):
    def refuse(self, i, j):
        raise AssertionError(f"the export read a dense a_{i}_{j}")

    monkeypatch.setattr(Representation, "gen", refuse)
    code, out, _ = run(capsys, "rep", "--algebra", "gl4", "--weight=2,1,-1,-3", "--format", fmt)
    assert code == 0
    assert ("nonelementary" if fmt == "json" else "a_1_3,") in out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rep_export_refuses_non_finite_values(capsys, monkeypatch, replace_generator, fmt):
    def tampered(labels):
        rep = Representation(labels)
        matrix = rep.gen(1, 3).copy()
        matrix[tuple(np.argwhere(matrix)[0])] = np.nan
        replace_generator(rep, 1, 3, matrix)
        return rep

    monkeypatch.setattr(charid.cli, "Representation", tampered)
    code, out, err = run(capsys, "rep", "--algebra", "gl3", "--weight", "2,1,0", "--format", fmt)
    assert code == 2 and out == ""
    assert "non-finite float nan" in err


@pytest.mark.parametrize("argv", [
    ("roots", "--algebra", "gl2", "--weight", "-1,-3"),
    ("roots", "--algebra", "gl2", "--weight", "-1/2,-3/2", "--kind", "Abar"),
    ("roots", "--algebra", "gl1|1", "--weight", "-1,0"),
    ("rep", "--algebra", "gl2", "--weight", "-1/2,-3/2", "--format", "csv"),
    ("verify", "--algebra", "gl3", "--weight", "-.5,-1.5,-2.5", "--suite", "relations"),
], ids=" ".join)
def test_negative_weight_as_separate_argument(capsys, argv):
    """A weight whose first label is negative may follow --weight as its
    own argument, with the output of the --weight=... form."""
    joined = list(argv)
    at = joined.index("--weight")
    joined[at:at + 2] = [f"--weight={argv[at + 1]}"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    expected = run(capsys, *joined)
    if argv[0] == "verify":
        out, expected = json.loads(out), (expected[0], json.loads(expected[1]), expected[2])
        out.pop("duration_ms"), expected[1].pop("duration_ms")
    assert (code, out, err) == expected


def test_weight_option_still_needs_a_value(capsys):
    code, out, err = run(capsys, "roots", "--algebra", "gl2", "--weight", "--kind", "A")
    assert code == 2 and out == ""
    assert "expected one argument" in err


def test_main_reuses_its_parser_across_commands(capsys):
    """One process runs alternating commands, an invalid one among them, on
    the parser built once; each gives what a freshly built parser gives."""
    jobs = [
        ("roots", "--algebra", "gl3", "--weight", "2,1,0"),
        ("rep", "--algebra", "gl2", "--weight", "1,0", "--format", "csv"),
        ("verify", "--algebra", "gl3", "--suite", "identity"),  # no weight: exits 2
        ("classify", "--algebra", "gl2|1", "--weight", "1,0,0"),
        ("roots", "--algebra", "gl3", "--weight", "2,1,0", "--kind", "Abar"),
        ("verify", "--algebra", "gl2", "--weight", "1,0", "--suite", "nonsense"),
        ("rep", "--algebra", "gl2", "--weight", "1,0"),
    ]
    charid.cli.build_parser.cache_clear()
    fresh = []
    for argv in jobs:
        fresh.append(run(capsys, *argv))
        charid.cli.build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in jobs]
    assert charid.cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 2, 0]
    assert reused == fresh


GL_SUITES = ("relations", "identity", "projectors", "invariants", "melcross")
_DURATION = re.compile(r'"duration_ms": [^,}]*')


def masked(capsys, *argv):
    """run(), with the verify report's duration_ms written as 0."""
    code, out, err = run(capsys, *argv)
    return code, _DURATION.sub('"duration_ms": 0', out), err


def weight_jobs(algebra, weight):
    """The five gl suites and both exports of one weight."""
    common = ("--algebra", algebra, f"--weight={weight}")
    return ([("verify", *common, "--suite", suite) for suite in GL_SUITES]
            + [("rep", *common, "--format", fmt) for fmt in ("json", "csv")])


def test_kept_modules_print_what_fresh_builds_print(capsys):
    """Jobs on two weights, interleaved and run twice in one process, build
    each module once and print what they print on a module built for the
    job alone."""
    first, second = weight_jobs("gl4", "5,5,3,0"), weight_jobs("gl5", "3,3,2,1,0")
    jobs = [job for pair in zip(first, second) for job in pair]
    fresh = []
    for argv in jobs:
        charid.cli._module.cache_clear()
        fresh.append(masked(capsys, *argv))
    charid.cli._module.cache_clear()
    kept = [masked(capsys, *argv) for argv in jobs * 2]
    assert charid.cli._module.cache_info().misses == 2
    assert [code for code, _, _ in fresh] == [0] * len(jobs)
    assert kept == fresh * 2


def _with_nan_in_a12(replace_generator):
    def build(labels):
        rep = Representation(labels)
        matrix = rep.gen(1, 2).copy()
        matrix[tuple(np.argwhere(matrix)[0])] = np.nan
        replace_generator(rep, 1, 2, matrix)
        return rep
    return build


def test_a_replaced_constructor_is_honoured_for_a_kept_weight(capsys, monkeypatch,
                                                               replace_generator):
    argv = ("verify", "--algebra", "gl3", "--weight=2,1,0", "--suite", "relations")
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(charid.cli, "Representation", _with_nan_in_a12(replace_generator))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "not finite" in err and err.count("\n") == 1
    monkeypatch.undo()
    assert run(capsys, *argv)[0] == 0


def test_a_constructor_that_raises_is_called_again(capsys, monkeypatch):
    calls = []

    def too_large(labels):
        calls.append(labels)
        raise MemoryError("Unable to allocate 1.5 GiB")

    monkeypatch.setattr(charid.cli, "Representation", too_large)
    for _ in range(2):
        code, out, err = run(capsys, "verify", "--algebra", "gl3", "--weight", "2,1,0",
                             "--suite", "identity")
        assert (code, out) == (2, "") and err.count("\n") == 1
    assert len(calls) == 2


def test_one_build_per_weight_until_eight_others_are_built(capsys, monkeypatch):
    builds = []

    def counting(labels):
        builds.append(labels)
        return Representation(labels)

    monkeypatch.setattr(charid.cli, "Representation", counting)
    for suite in GL_SUITES:
        assert run(capsys, "verify", "--algebra", "gl3", "--weight=2,1,0", "--suite", suite)[0] == 0
    assert len(builds) == 1
    for top in range(3, 11):
        assert run(capsys, "rep", "--algebra", "gl3", f"--weight={top},0,0")[0] == 0
    assert len(builds) == 9
    assert run(capsys, "rep", "--algebra", "gl3", "--weight=2,1,0")[0] == 0
    assert len(builds) == 10 and builds[-1] == builds[0]


def _arrays(value):
    """Every ndarray held by value, through tuples, lists and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


def _bits(rep):
    """entries, table and _ladders, each array as its dtype, shape and
    bytes (its items, for an object array)."""
    return [(a.dtype.str, a.shape, a.tolist() if a.dtype == object else a.tobytes())
            for a in _arrays((rep.entries, rep.table, rep._ladders))]


def test_a_kept_module_is_read_only_and_unchanged_by_every_job(capsys):
    charid.cli._module.cache_clear()
    jobs = weight_jobs("gl4", "3,2,1,0")
    assert run(capsys, *jobs[0])[0] == 0
    rep = charid.cli._module(Representation, parse_weight("3,2,1,0", "gl", (4,)))
    assert charid.cli._module.cache_info().hits == 1
    before = _bits(rep)
    assert [run(capsys, *argv)[0] for argv in jobs] == [0] * len(jobs)
    assert charid.cli._module.cache_info().misses == 1
    arrays = list(_arrays(vars(rep)))
    assert len(arrays) >= 12 and not any(a.flags.writeable for a in arrays)
    assert _bits(rep) == before


def test_a_kept_module_labels_each_kind_once_and_tabulates_its_export_once(capsys,
                                                                           monkeypatch):
    """gl(4) (5,5,3,0), dim 224, 896 rows N*d, split: the identity,
    projectors and invariants jobs find the components of each kind's
    characteristic matrix once, in the first job that builds it, and the
    second export format reuses the first one's table."""
    charid.cli._module.cache_clear()
    labelled, tables = [], []
    components, gl_table = charid.blocks._pattern_components, charid.cli._gl_table

    def counting_components(rows, cols, size):
        labelled.append(size)
        return components(rows, cols, size)

    def counting_table(rep):
        tables.append(rep)
        return gl_table(rep)

    monkeypatch.setattr(charid.blocks, "_pattern_components", counting_components)
    monkeypatch.setattr(charid.cli, "_gl_table", counting_table)
    common = ("--algebra", "gl4", "--weight=5,5,3,0")
    for suite in ("identity", "projectors", "invariants"):
        assert run(capsys, "verify", *common, "--suite", suite)[0] == 0
    assert labelled.count(4 * 224) == 2
    assert labelled.count(3 * 224) > 0  # the restrictions are found per call
    for fmt in ("json", "csv"):
        assert run(capsys, "rep", *common, "--format", fmt)[0] == 0
    assert len(tables) == 1


REFUSED_BEFORE_BUILD = [
    (("--algebra", "gl2", "--weight=3,1", "--suite", "melcross"),
     "cross-check needs gl(N) with N >= 3"),
    (("--algebra", "gl1", "--weight=3", "--suite", "invariants"),
     "invariant suite needs a gl(n+1) module with n >= 1"),
    (("--algebra", "gl2", "--weight=4503599627370496,4503599627370495", "--suite", "melcross"),
     "suite melcross on gl(2): a label or characteristic root reaches 2^52, "
     "beyond exact float64 checks"),
    (("--algebra", "gl2", "--weight=0,1", "--suite", "melcross"),
     "weight (0,1) is not dominant (labels must not increase)"),
    (("--algebra", "gl2|1", "--weight=1,0,0", "--suite", "relations"),
     "suite relations needs a gl(n) algebra"),
    (("--algebra", "gl3", "--weight=1,0,0", "--suite", "super"),
     "suite super needs a gl(m|n) algebra"),
]


@pytest.mark.parametrize("argv, message", REFUSED_BEFORE_BUILD,
                         ids=[" ".join(argv) for argv, _ in REFUSED_BEFORE_BUILD])
def test_a_job_its_suite_cannot_run_builds_nothing(argv, message, capsys, monkeypatch):
    """Each precondition is checked before the module is built, with the
    message run_suite gives on a built module, in the same order: the
    weight's own error before the 2^52 bound, and that before the size."""
    builds = []
    monkeypatch.setattr(charid.cli, "Representation", lambda labels: builds.append(labels))
    assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")
    assert builds == []
    family, sizes = parse_algebra(argv[1])
    if family == "gl" and "dominant" not in message:
        with pytest.raises(DomainError) as raised:
            run_suite(argv[-1], rep=Representation(
                parse_weight(argv[2].split("=", 1)[1], family, sizes)))
        assert str(raised.value) == message
