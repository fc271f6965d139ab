"""Finite-dimensional Grassmann algebra over the reals.

A ``GrassmannElement`` of ``Lambda_N`` is a linear combination of products of
anticommuting generators ``eta_1 .. eta_N``.  Each product is identified by the
set of generator indices it contains, encoded as a bitmask (bit ``i-1`` set
means ``eta_i`` is present), so nilpotency and the reordering sign reduce to
bit arithmetic.  Coefficients are doubles; the exact symbolic side of the
package never touches this module.

The numeric solver stores a homogeneous field as a level stack: an array with
one row per mask of one parity, in ``even_masks``/``odd_masks`` order.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

EVEN = 0
ODD = 1
MIXED = "mixed"


class GrassmannError(ValueError):
    """Raised for operations between incompatible Grassmann algebras."""


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
    """Output row count and the nonzero ``(row_a, row_b, row_out, sign)`` pairs."""
    masks = (even_masks(n_generators), odd_masks(n_generators))
    pairs = tuple(
        (mask_row(ma), mask_row(mb), mask_row(ma | mb), sign)
        for ma in masks[parity_a]
        for mb in masks[parity_b]
        if (sign := merge_sign(ma, mb))
    )
    return len(masks[parity_a ^ parity_b]), pairs


def gmul_stack(
    a: np.ndarray, parity_a: int, b: np.ndarray, parity_b: int, n_generators: int
) -> np.ndarray:
    """Pointwise product of two level stacks of ``Lambda_N``, with ``gmul``'s signs.

    Rows follow ``even_masks(N)`` (EVEN) or ``odd_masks(N)`` (ODD); the result
    is the stack of parity ``parity_a ^ parity_b``.
    """
    n_out, pairs = _product_table(n_generators, parity_a, parity_b)
    out = np.zeros((n_out,) + a.shape[1:])
    for row_a, row_b, row_out, sign in pairs:
        # add or subtract instead of scaling by sign: one array operation fewer
        if sign > 0:
            out[row_out] += a[row_a] * b[row_b]
        else:
            out[row_out] -= a[row_a] * b[row_b]
    return out


class GrassmannElement:
    """Immutable element of Lambda_N with real coefficients."""

    __slots__ = ("n_generators", "coeffs")

    def __init__(self, n_generators: int, coeffs: Mapping[int, float] | None = None):
        if n_generators < 0 or n_generators > 64:
            raise GrassmannError(f"need 0 <= N <= 64, got {n_generators}")
        cleaned: Dict[int, float] = {}
        if coeffs:
            top = 1 << n_generators
            for mask, c in coeffs.items():
                if not 0 <= mask < top:
                    raise GrassmannError(f"mask {mask:#x} outside Lambda_{n_generators}")
                c = float(c)
                if c != 0.0:
                    cleaned[mask] = c
        object.__setattr__(self, "n_generators", n_generators)
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GrassmannElement is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def scalar(value: float, n_generators: int) -> "GrassmannElement":
        return GrassmannElement(n_generators, {0: value})

    @staticmethod
    def generator(index: int, n_generators: int) -> "GrassmannElement":
        """eta_index, 1-based."""
        if not 1 <= index <= n_generators:
            raise GrassmannError(f"generator index {index} outside 1..{n_generators}")
        return GrassmannElement(n_generators, {1 << (index - 1): 1.0})

    @staticmethod
    def zero(n_generators: int) -> "GrassmannElement":
        return GrassmannElement(n_generators, {})

    # -- queries -----------------------------------------------------------
    def body(self) -> float:
        """Coefficient of the empty product (the scalar part)."""
        return self.coeffs.get(0, 0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GrassmannElement)
            and self.n_generators == other.n_generators
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n_generators, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for mask in sorted(self.coeffs):
            c = self.coeffs[mask]
            gens = "".join(f"e{i + 1}" for i in range(self.n_generators) if mask >> i & 1)
            parts.append(f"{c:g}" if not gens else f"{c:g}*{gens}")
        return " + ".join(parts)


def _check_same_algebra(a: GrassmannElement, b: GrassmannElement) -> None:
    if a.n_generators != b.n_generators:
        raise GrassmannError(
            f"incompatible algebras Lambda_{a.n_generators} and Lambda_{b.n_generators}"
        )


def gadd(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    _check_same_algebra(a, b)
    out = dict(a.coeffs)
    for mask, c in b.coeffs.items():
        out[mask] = out.get(mask, 0.0) + c
    return GrassmannElement(a.n_generators, out)


def scale(factor: float, a: GrassmannElement) -> GrassmannElement:
    return GrassmannElement(a.n_generators, {m: factor * c for m, c in a.coeffs.items()})


def gsub(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    return gadd(a, scale(-1.0, b))


def gmul(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Bilinear product; overlapping generator sets vanish by nilpotency."""
    _check_same_algebra(a, b)
    out: Dict[int, float] = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            sign = merge_sign(ma, mb)
            if sign:
                mask = ma | mb
                out[mask] = out.get(mask, 0.0) + sign * ca * cb
    return GrassmannElement(a.n_generators, out)


def parity_of(a: GrassmannElement):
    """EVEN/ODD for homogeneous elements, MIXED otherwise.

    The zero element is reported EVEN.
    """
    seen_even = False
    seen_odd = False
    for mask, c in a.coeffs.items():
        if c == 0.0:
            continue
        if mask.bit_count() % 2:
            seen_odd = True
        else:
            seen_even = True
    if seen_even and seen_odd:
        return MIXED
    if seen_odd:
        return ODD
    return EVEN


def even_masks(n_generators: int) -> Iterable[int]:
    return [m for m in range(1 << n_generators) if m.bit_count() % 2 == 0]


def odd_masks(n_generators: int) -> Iterable[int]:
    return [m for m in range(1 << n_generators) if m.bit_count() % 2 == 1]
