"""What a fresh process loads.  Importing charid.cli loads no module that
only a command runs; each command loads the modules it runs and no other;
and a job's output in a fresh process equals main's in this one."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from charid.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}

# Runs one job through main and writes, after it, the charid modules loaded.
RUN = """
import sys
from charid.cli import main
code = main(sys.argv[1:])
print("loaded", *sorted(m for m in sys.modules if m.startswith("charid.")), file=sys.stderr)
sys.exit(code)
"""

GL3 = ("--algebra", "gl3", "--weight=2,1,0")
GL21 = ("--algebra", "gl2|1", "--weight=1,0|0")
GL = ("gtbasis", "glrep")
ROOTS = GL + ("charident", "blocks")

# (job, modules other than kernel and cli that it may load)
JOBS = [
    (("rep", *GL3, "--format", "json"), GL),
    (("rep", *GL3, "--format", "csv"), GL),
    (("roots", *GL3, "--kind", "A"), ROOTS),
    (("roots", *GL3, "--kind", "Abar"), ROOTS),
    (("verify", *GL3, "--suite", "identity"), ROOTS + ("verify",)),
    (("verify", *GL3, "--suite", "projectors"), ROOTS + ("verify",)),
    (("classify", *GL21), ROOTS + ("superglmn",)),
    (("verify", *GL21, "--suite", "super"), ROOTS + ("superglmn", "verify")),
]


def _mask(text: str) -> str:
    return re.sub(r'"duration_ms": [^,}]*', '"duration_ms": 0', text)


def test_importing_the_cli_loads_no_command_module():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, charid.cli; "
         "print(*sorted(m for m in sys.modules if m.startswith('charid')))"],
        capture_output=True, text=True, env=ENV, check=True)
    assert out.stdout.split() == ["charid", "charid.cli", "charid.kernel"]


@pytest.mark.parametrize("argv, allowed", JOBS, ids=lambda x: " ".join(x))
def test_a_fresh_job_loads_its_modules_and_prints_what_main_prints(argv, allowed):
    fresh = subprocess.run([sys.executable, "-c", RUN, *argv],
                           capture_output=True, text=True, env=ENV)
    *_, last = fresh.stderr.splitlines()
    loaded = set(last.split()[1:])
    assert loaded <= {"charid.kernel", "charid.cli", *(f"charid.{m}" for m in allowed)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert fresh.returncode == code == 0
    assert _mask(fresh.stdout) == _mask(out.getvalue())
