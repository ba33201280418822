import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from charid.cli import main, parse_algebra, parse_weight, render_json
from charid.glrep import Representation
from charid.kernel import DomainError
from charid.superglmn import SuperWeight


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


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    for argv in (("verify", "--suite", "identity"), ("rep",)):
        code, _, err = run(capsys, *argv, "--algebra", "gl3", "--weight",
                           "2,1,0", "--output", str(target))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def test_verify_invariants_suite_serializes(capsys):
    # regression: numpy scalars from the residual sweep must not leak into
    # the JSON renderer
    code, out, _ = run(capsys, "verify", "--algebra", "gl3", "--weight",
                       "2,1,0", "--suite", "invariants")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["overall"] is True
    assert all(isinstance(c["passed"], bool) for c in payload["checks"])


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
