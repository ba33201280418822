"""The one ordered-product loop and the lockstep projector layout against
the loops they replaced, kept here as references: the list-returning
prefix/suffix Lagrange products of the scalar roots, and the restricted
projectors' own lockstep loop with its per-factor division."""

import math
from fractions import Fraction

import numpy as np
import pytest

from charid.blocks import ordered_product
from charid.charident import (
    KIND_A, KIND_ABAR, _blocked_product, _lagrange_stacks, build_char_matrix, char_roots)
from charid.glrep import Representation
from charid.shifts import LOCKSTEP_ENTRIES, _restricted_matrices, _restricted_projectors
from reference import every_projector


def _reference_lagrange_products(stack, nodes, scales):
    """prod_{l != r} (stack - nodes[l]) / scales[r] for every r, each a
    fresh array, from prefix and suffix products."""
    m, b = len(nodes), stack.shape[-1]

    def factor(l):
        out = stack.copy()
        out.reshape(stack.shape[:-2] + (b * b,))[..., ::b + 1] -= nodes[l]
        return out

    if m == 1:
        out = np.empty(stack.shape)
        out[...] = np.eye(b)
        return [out]
    prefix = [factor(0)]
    for l in range(1, m - 1):
        prefix.append(prefix[-1] @ factor(l))
    out = [None] * m
    out[m - 1] = prefix.pop()
    suffix = factor(m - 1)
    for r in range(m - 2, 0, -1):
        out[r] = prefix.pop() @ suffix
        suffix = factor(r) @ suffix
    out[0] = suffix
    for product, scale in zip(out, scales):
        product /= scale
    return out


def _reference_projector_stacks(cm, spectrum):
    """The stacks of every projector of spectrum, a zero stack for each
    absent root, from _reference_lagrange_products."""
    values = [root.value for root in spectrum if root.multiplicity > 0]
    scales = [float(math.prod((v - w for w in values if w != v), start=Fraction(1)))
              for v in values]
    nodes = [float(v) for v in values]
    parts = iter(zip(*(_reference_lagrange_products(stack, nodes, scales)
                       for stack in cm.blocks.stacks)))
    return [next(parts) if root.multiplicity > 0
            else tuple(np.zeros_like(stack) for stack in cm.blocks.stacks)
            for root in spectrum]


def _reference_restricted_projectors(blocks, nodes):
    """The restricted projectors' lockstep loop with a column-wise division
    per factor, its stacks (n, k, b, b)."""
    n = len(nodes)
    others = np.array([[m for m in range(n) if m != r] for r in range(n)],
                      dtype=np.intp).reshape(n, n - 1)
    quotients = nodes[:, None, :] - nodes[others]
    parts = []
    for index, stack in zip(blocks.index, blocks.stacks):
        b = stack.shape[-1]
        step = max(1, LOCKSTEP_ENTRIES // stack.size)
        stack_nodes = nodes[others][..., index]
        stack_quotients = quotients[..., index][..., None, :]
        batches = []
        for rs in (slice(lo, min(lo + step, n)) for lo in range(0, n, step)):
            factor = np.empty((rs.stop - rs.start,) + stack.shape)
            factor_diagonal = factor.reshape(factor.shape[:-2] + (b * b,))[..., ::b + 1]
            product = spare = None
            for l in range(n - 1):
                np.copyto(factor, stack)
                factor_diagonal -= stack_nodes[rs, l]
                if product is None:
                    product, spare = factor.copy(), np.empty(factor.shape)
                else:
                    product, spare = np.matmul(product, factor, out=spare), product
                product /= stack_quotients[rs, l]
            if product is None:
                product = factor
                product[...] = np.eye(b)
            batches.append(product)
        parts.append(batches[0] if len(batches) == 1 else np.concatenate(batches))
    return parts


def _same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# m = 1 to 5 present roots: a gl(1) weight, (2,2,2,2,2,0) (two distinct
# labels), (5,5,3,0) (an absent kind-A root), (3,2,1,0) and (4,3,2,1,0).
LAGRANGE_WEIGHTS = [(Fraction(7, 2),), (2, 2, 2, 2, 2, 0), (5, 5, 3, 0), (3, 2, 1, 0),
                    (4, 3, 2, 1, 0)]


@pytest.mark.parametrize("lam", LAGRANGE_WEIGHTS, ids=str)
def test_lockstep_projectors_equal_the_list_products(lam):
    """Every projector of build_projector is a view of one lockstep stack
    per block size and equals, bit for bit, the list-returning prefix and
    suffix products; absent roots get zero blocks of their own."""
    rep = Representation(lam)
    present_counts = set()
    for kind in (KIND_A, KIND_ABAR):
        cm = build_char_matrix(rep, kind)
        spectrum = char_roots(lam, kind)
        projectors = every_projector(cm, spectrum)
        lockstep = list(_lagrange_stacks(cm, spectrum))
        present = [root for root in spectrum if root.multiplicity > 0]
        present_counts.add(len(present))
        assert all(stack.shape[0] == len(present) for stack in lockstep)
        for stacks, proj in zip(_reference_projector_stacks(cm, spectrum), projectors):
            assert len(stacks) == len(proj.blocks.stacks)
            for expected, stack in zip(stacks, proj.blocks.stacks):
                assert _same(expected, stack), (lam, kind, proj.r)
            if proj.root.multiplicity > 0:
                assert all(stack.base is not None for stack in proj.blocks.stacks)
            else:
                assert not any(stack.any() for stack in proj.blocks.stacks)
        for r, root in enumerate(present):
            (proj,) = [p for p in projectors if p.root is root]
            for stack, part in zip(lockstep, proj.blocks.stacks):
                assert _same(stack[r], part), (lam, kind, r)
    assert present_counts


def test_lagrange_weights_cover_one_to_five_present_roots():
    counts = {sum(root.multiplicity > 0 for root in char_roots(lam, kind))
              for lam in LAGRANGE_WEIGHTS for kind in (KIND_A, KIND_ABAR)}
    assert counts == {1, 2, 3, 4, 5}
    assert any(root.multiplicity == 0 for root in char_roots((5, 5, 3, 0), KIND_A))


# (1,0) has one node (the identity); (3,2,1,0)+1/2 and (2,1,1,1,0) are
# split into blocks, (2,1,0) and (3,3,3,0) are one block each.
@pytest.mark.parametrize("lam", [(1, 0), (2, 1, 0), (3, 3, 3, 0),
                                 (Fraction(7, 2), Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)),
                                 (2, 1, 1, 1, 0)], ids=str)
def test_ordered_product_with_quotients_equals_the_restricted_loop(lam):
    """The restricted projectors of both kinds, each batch of r one
    ordered_product with quotients, equal the lockstep loop they replaced
    bit for bit; so does a direct call on one r."""
    rep = Representation(lam)
    for blocks, nodes in _restricted_matrices(rep, rep.N - 1):
        expected = _reference_restricted_projectors(blocks, nodes)
        got = _restricted_projectors(blocks, nodes)
        assert len(expected) == len(got.stacks)
        for a, b in zip(expected, got.stacks):
            assert _same(a, b), lam
        n = len(nodes)
        index, stack = blocks.index[0], blocks.stacks[0]
        others = [l for l in range(n) if l != n - 1]
        single = ordered_product(stack, [nodes[l][index] for l in others],
                                 [(nodes[n - 1] - nodes[l])[index][:, None, :] for l in others])
        assert _same(single, expected[0][n - 1]), lam


def test_ordered_product_scales_and_identity():
    """Scalar nodes: each factor's largest entry is collected, and no nodes
    give the identity on every block."""
    stack = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
    scales = []
    product = ordered_product(stack, [1.0, -2.0], scales=scales)
    eye = np.eye(3)
    assert np.array_equal(product, (stack - eye) @ (stack + 2 * eye))
    assert scales == [np.abs(stack - eye).max(), np.abs(stack + 2 * eye).max()]
    assert np.array_equal(ordered_product(stack, []), np.broadcast_to(eye, stack.shape))
    assert not np.shares_memory(ordered_product(stack, [0.0]), stack)
    blocks = build_char_matrix(Representation((2, 1)), KIND_A).blocks
    product, scale = _blocked_product(blocks, [], with_scale=True)
    assert scale == 0.0 and np.array_equal(product.stacks[0][0], np.eye(blocks.size))
