"""The benchmark's traced run (perfbench/run.py --trace 1) wraps charid
names listed in perfbench/spans.py PATCHES and looks each one up with
getattr; a renamed or deleted name makes that run crash.  The table is
read from the benchmark's file, never edited here."""

import importlib
import importlib.util
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
