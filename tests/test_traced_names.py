"""The benchmark's traced run (perfbench/run.py --trace 1) wraps charid
names listed in perfbench/spans.py PATCHES and looks each one up with
getattr; a renamed or deleted name makes that run crash.  The table is
read from the benchmark's file, never edited here."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name, attr",
                         [(m, a) for m, a, *_ in _patches()])
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(f"charid.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# In a fresh process: a counting wrapper is set on each cli and verify name
# the tracer wraps, as the tracer sets it, before any command runs; then
# jobs of every command run.  Prints {name: [bound on first use, calls]}.
CONTRACT = """
import json, sys
import charid.cli, charid.verify
calls, late = {}, {}
for module_name, attr in json.loads(sys.argv[1]):
    module = sys.modules[f"charid.{module_name}"]
    name = f"{module_name}.{attr}"
    late[name] = attr not in vars(module)
    def counting(*args, _fn=getattr(module, attr), _name=name, **kwargs):
        calls[_name] = calls.get(_name, 0) + 1
        return _fn(*args, **kwargs)
    setattr(module, attr, counting)
gl3, gl21 = ["--algebra", "gl3", "--weight=2,1,0"], ["--algebra", "gl2|1", "--weight=1,0|0"]
jobs = [["rep", *gl3], ["rep", *gl21], ["roots", *gl3], ["roots", *gl21], ["classify", *gl21]]
jobs += [["verify", *gl3, "--suite", s]
         for s in ("relations", "identity", "projectors", "invariants", "melcross")]
jobs += [["verify", *gl21, "--suite", "super"]]
for argv in jobs:
    assert charid.cli.main(argv) == 0, argv
print(json.dumps({name: [late[name], calls.get(name, 0)] for name in late}), file=sys.stderr)
"""


def test_a_patch_set_before_the_first_job_is_the_function_that_runs():
    """The names cli and verify bind on first use keep a wrapper the tracer
    set before their command first ran, so --trace 1 counts their calls."""
    names = [(m, a) for m, a, *_ in _patches() if m in ("cli", "verify")]
    assert all("." not in a for _, a in names)
    src = SPANS.parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", CONTRACT, json.dumps(names)],
                         capture_output=True, text=True, env=env, check=True)
    seen = json.loads(out.stderr.splitlines()[-1])
    late = {name for name, (bound_late, _) in seen.items() if bound_late}
    assert {"cli.char_roots", "cli.run_suite", "cli.classify_type1_star",
            "cli.super_char_roots", "cli.super_vector_weight", "cli.vector_rep",
            "verify.super_vector_weight", "verify.verify_super_identity",
            "verify.vector_rep_relations_hold"} <= late
    assert [name for name in sorted(late) if not seen[name][1]] == []
