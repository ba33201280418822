"""A charid module may import a name it never uses only where the
benchmark's tracer wraps that name in that module: perfbench/spans.py
PATCHES looks it up there by string.  Any other dead import fails here.
The table is read from the benchmark's file, as test_traced_names reads
it, never edited here."""

import ast
from pathlib import Path

import pytest

from test_traced_names import _patches

SRC = Path(__file__).resolve().parent.parent / "src" / "charid"


def unused_imports(source: str) -> set[str]:
    """The names a module's source binds by import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unused_imports_finds_a_dead_import():
    source = "from .kernel import max_abs, Tolerance\nimport numpy as np\n" \
             "def f(x):\n    return np.asarray(max_abs(x))\n"
    assert unused_imports(source) == {"Tolerance"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_unused_import_is_a_traced_name(path):
    traced = {attr for module, attr, *_ in _patches() if module == path.stem}
    assert unused_imports(path.read_text()) <= traced
