"""Reference helpers the tests read and no charid command, suite or traced
run does: the ordinals of a module's patterns, a projector's rank, the
zero test of a Tolerance and the magnitudes of one product-form range."""

import numpy as np

from charid.glrep import Representation, _product_forms
from charid.gtbasis import GTPattern, pattern_ordinals
from charid.kernel import DomainError, Tolerance, Triplets, max_abs


def ordinal(rep: Representation) -> dict[GTPattern, int]:
    """Each basis pattern of rep mapped to its ordinal."""
    return pattern_ordinals(rep.patterns)


def rank(projector) -> int:
    """The rank of a Projector, read from the trace of its blocks."""
    return round(projector.blocks.trace())


def is_zero(tol: Tolerance, m, *reference) -> bool:
    """Whether m counts as zero under tol, scaled by the largest |entry|
    among the reference inputs (m itself when none is given)."""
    scale = max_abs([max_abs(x) for x in reference or (m,)])
    return max_abs(m) <= tol.threshold(scale)


def nonelementary_magnitudes(rep: Representation, l: int, n: int) -> Triplets:
    """|<pattern + sum of shifts| a_{l,n+1} |pattern>| for every basis
    pattern and shift combination, as the Triplets of a dim x dim matrix,
    from the product form of nonelementary_coefficient.

    Every combination (i_n, ..., i_l) raises one label per level; this is
    the range l..n of _product_forms, taken alone.  No position comes
    twice: distinct combinations reach distinct targets.
    """
    if not 1 <= l <= n < rep.N:
        raise DomainError(f"need 1 <= l <= n < {rep.N}, got l={l} n={n}")
    _, cols, rows, _, _, values = _product_forms(rep, [(l, n)])
    keep = np.flatnonzero(values)
    order = keep[np.argsort(rows[keep] * rep.dim + cols[keep])]
    return Triplets(rows[order], cols[order], np.sqrt(values[order]))
