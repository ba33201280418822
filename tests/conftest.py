import numpy as np
import pytest

import charid.cli
from charid.kernel import Triplets


@pytest.fixture(autouse=True)
def fresh_modules():
    """Each test starts with no module kept by charid.cli.main, so a test
    that watches the build is not served a module an earlier test built."""
    charid.cli._module.cache_clear()


def _replace_generator(rep, i, j, matrix):
    """Make the dense matrix the stored generator a_ij of rep: its nonzero
    entries replace a_ij's in the one triplet table every check reads."""
    parts = [rep.triplets(*key) for key in rep.generator_labels()]
    rows, cols = np.nonzero(matrix)
    parts[(i - 1) * rep.N + j - 1] = Triplets(rows, cols, np.asarray(matrix)[rows, cols])
    g = np.repeat(np.arange(len(parts)), [len(t.rows) for t in parts])
    rep._store(g, *(np.concatenate(a) for a in zip(*parts)))


@pytest.fixture
def replace_generator():
    """A tampering helper for negative controls: replace_generator(rep, i,
    j, matrix) puts a changed a_ij into the module's one triplet store."""
    return _replace_generator
