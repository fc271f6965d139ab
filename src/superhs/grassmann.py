"""Level stacks: homogeneous values in the finite Grassmann algebra Lambda_N.

An element of ``Lambda_N`` is a real combination of products of the
anticommuting generators ``eta_1 .. eta_N``.  Each product is identified by
the set of generator indices it contains, encoded as a bitmask (bit ``i-1``
set means ``eta_i`` is present), so nilpotency and the reordering sign reduce
to bit arithmetic.

A homogeneous value is held as a level stack: an array whose first axis has
one row per mask of its parity, in ``even_masks(N)``/``odd_masks(N)`` order
(``mask_row`` gives a mask's row), and whose trailing axes, if any, index
points.  ``gmul_stack`` multiplies two stacks; ``numerics``, which evaluates
expressions and integrates the system on stacks, uses it and no other
product.  Parities are the 0/1 of ``algebra.EVEN``/``algebra.ODD``.

The product is a loop over the nonzero mask pairs of ``_product_table``, one
row of ``a`` times one row of ``b`` added into or subtracted from one output
row.  An even ``a`` first contributes its body row times all of ``b`` in one
broadcast multiply; the loop then holds only the pairs whose ``a`` row is a
soul (a mask with generators).  Rows are views taken once per call and each
pair's product goes through one scratch row, so the loop allocates nothing.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Tuple

import numpy as np


def merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of merging two disjoint sorted generator products, 0 on overlap.

    Moving each generator of ``mask_b`` left past the generators of ``mask_a``
    with a larger index contributes one transposition.
    """
    if mask_a & mask_b:
        return 0
    inversions = 0
    a = mask_a
    b = mask_b
    while b:
        low = b & -b
        # generators of a strictly above this generator of b
        inversions += (a >> low.bit_length()).bit_count()
        b ^= low
    return -1 if inversions % 2 else 1


def mask_row(mask: int) -> int:
    """Row of ``mask`` in the ``even_masks``/``odd_masks`` list of its parity.

    Each pair ``(2j, 2j + 1)`` holds one mask of either parity, so ``mask >> 1``
    counts the masks of the same parity below it.
    """
    return mask >> 1


@lru_cache(maxsize=None)
def _product_table(n_generators: int, parity_a: int, parity_b: int) -> Tuple[int, tuple]:
    """Output row count and the nonzero ``(row_a, row_b, row_out, sign)`` pairs.

    The body of ``a`` (mask 0) is left out: ``gmul_stack`` multiplies it in
    by one broadcast before the loop.
    """
    masks = (even_masks(n_generators), odd_masks(n_generators))
    pairs = tuple(
        (mask_row(ma), mask_row(mb), mask_row(ma | mb), sign)
        for ma in masks[parity_a]
        if ma
        for mb in masks[parity_b]
        if (sign := merge_sign(ma, mb))
    )
    return len(masks[parity_a ^ parity_b]), pairs


def gmul_stack(
    a: np.ndarray, parity_a: int, b: np.ndarray, parity_b: int, n_generators: int
) -> np.ndarray:
    """Pointwise product of two level stacks of ``Lambda_N``, with ``merge_sign``'s signs.

    Rows follow ``even_masks(N)`` (parity 0) or ``odd_masks(N)`` (parity 1);
    the result is the stack of parity ``parity_a ^ parity_b``, with the point
    axes that ``a`` and ``b`` share.  Each output row sums its products in
    ``_product_table`` order, an even ``a``'s body product first.  That one is
    written over the zeros instead of added to them, which gives the same
    floats, except that an exact zero may come out as -0.0.
    """
    n_out, pairs = _product_table(n_generators, parity_a, parity_b)
    points = a.shape[1:]
    size = math.prod(points)
    out = np.zeros((n_out,) + points)
    # 2-D, so that rows are views: a 1-D stack iterates as scalars, which += cannot write back
    a2, b2, out2 = (x.reshape(len(x), size) for x in (a, b, out))
    if not parity_a:
        # into the zeros, not a fresh product: that array raised peak RSS
        np.multiply(a2[0], b2, out=out2)
    rows_a, rows_b, rows_out = list(a2), list(b2), list(out2)
    product = np.empty(size)
    for row_a, row_b, row_out, sign in pairs:
        np.multiply(rows_a[row_a], rows_b[row_b], out=product)
        # add or subtract instead of scaling by sign: one array operation fewer
        if sign > 0:
            rows_out[row_out] += product
        else:
            rows_out[row_out] -= product
    return out


def even_masks(n_generators: int) -> Iterable[int]:
    return [m for m in range(1 << n_generators) if m.bit_count() % 2 == 0]


def odd_masks(n_generators: int) -> Iterable[int]:
    return [m for m in range(1 << n_generators) if m.bit_count() % 2 == 1]
