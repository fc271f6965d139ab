import random

import numpy as np
import pytest

from superhs.algebra import EVEN, ODD
from superhs.grassmann import (
    even_masks,
    gmul_stack,
    mask_row,
    merge_sign,
    odd_masks,
)

from helpers import gmul, ref_gmul_stack


def eta(i, n=2):
    """The generator eta_i as an odd stack at one point."""
    stack = np.zeros((len(odd_masks(n)), 1))
    stack[mask_row(1 << (i - 1))] = 1.0
    return stack


def test_generators_anticommute():
    e1, e2 = eta(1), eta(2)
    assert gmul_stack(e1, ODD, e2, ODD, 2).tolist() == [[0.0], [1.0]]  # rows body, e1e2
    assert gmul_stack(e2, ODD, e1, ODD, 2).tolist() == [[0.0], [-1.0]]


def test_generators_nilpotent():
    assert not gmul_stack(eta(1), ODD, eta(1), ODD, 2).any()


def test_even_element_squares():
    x = np.array([[1.0], [1.0]])  # 1 + e1 e2
    assert gmul_stack(x, EVEN, x, EVEN, 2).tolist() == [[1.0], [2.0]]


def test_body_and_masks():
    # the body is row 0 of an even stack; rows follow the mask lists
    assert mask_row(0) == 0
    assert [mask_row(m) for m in even_masks(3)] == [0, 1, 2, 3]
    assert even_masks(3).index(0b101) == mask_row(0b101)
    assert set(even_masks(2)) == {0, 0b11}
    assert set(odd_masks(2)) == {0b01, 0b10}


def test_merge_sign_examples():
    assert merge_sign(0b01, 0b10) == 1
    assert merge_sign(0b10, 0b01) == -1
    assert merge_sign(0b01, 0b01) == 0
    assert merge_sign(0, 0b111) == 1


def _random_element(rng, n, parity=None):
    """(even stack, odd stack) at one point of a random element of Lambda_n."""
    masks = list(range(1 << n))
    if parity is not None:
        masks = [m for m in masks if m.bit_count() % 2 == parity]
    stacks = (np.zeros((len(even_masks(n)), 1)), np.zeros((len(odd_masks(n)), 1)))
    for m in rng.sample(masks, k=min(3, len(masks))):
        stacks[m.bit_count() % 2][mask_row(m)] = rng.choice([-2.0, -1.0, 1.0, 3.0])
    return stacks


def _mul(a, b, n):
    """Product of two (even, odd) stack pairs, one gmul_stack per parity pair."""
    out = [np.zeros_like(a[EVEN]), np.zeros_like(a[ODD])]
    for pa in (EVEN, ODD):
        for pb in (EVEN, ODD):
            out[pa ^ pb] += gmul_stack(a[pa], pa, b[pb], pb, n)
    return out


def test_graded_commutativity_randomized():
    rng = random.Random(7)
    for _ in range(100):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = _random_element(rng, 4, pa)[pa]
        b = _random_element(rng, 4, pb)[pb]
        lhs = gmul_stack(a, pa, b, pb, 4)
        rhs = (-1.0) ** (pa * pb) * gmul_stack(b, pb, a, pa, 4)
        assert np.array_equal(lhs, rhs)


def test_associativity_randomized():
    rng = random.Random(11)
    for _ in range(100):
        a = _random_element(rng, 4)
        b = _random_element(rng, 4)
        c = _random_element(rng, 4)
        for lhs, rhs in zip(_mul(_mul(a, b, 4), c, 4), _mul(a, _mul(b, c, 4), 4)):
            assert np.array_equal(lhs, rhs)


def test_odd_squares_vanish_randomized():
    rng = random.Random(13)
    for _ in range(50):
        a = _random_element(rng, 5, ODD)[ODD]
        assert not gmul_stack(a, ODD, a, ODD, 5).any()


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("parity_a", [EVEN, ODD])
@pytest.mark.parametrize("parity_b", [EVEN, ODD])
def test_gmul_stack_matches_gmul(n, parity_a, parity_b):
    rng = np.random.default_rng(100 * n + 10 * parity_a + parity_b)
    masks = (even_masks(n), odd_masks(n))
    points = 3
    a = rng.uniform(-1.0, 1.0, (len(masks[parity_a]), points))
    b = rng.uniform(-1.0, 1.0, (len(masks[parity_b]), points))
    out = gmul_stack(a, parity_a, b, parity_b, n)
    out_masks = masks[parity_a ^ parity_b]
    assert out.shape == (len(out_masks), points)
    assert [mask_row(m) for m in out_masks] == list(range(len(out_masks)))
    for j in range(points):
        expected = gmul(dict(zip(masks[parity_a], a[:, j])), dict(zip(masks[parity_b], b[:, j])))
        assert set(expected) <= set(out_masks)
        for row, mask in enumerate(out_masks):
            assert abs(out[row, j] - expected.get(mask, 0.0)) <= 1e-14


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("parity_a", [EVEN, ODD])
@pytest.mark.parametrize("parity_b", [EVEN, ODD])
@pytest.mark.parametrize("points", [(), (5,), (3, 4), "broadcast"])
def test_gmul_stack_equals_the_pair_loop_exactly(n, parity_a, parity_b, points):
    # random floats round differently under any other summation order, so
    # equality (==, not a tolerance) shows the same products summed in the same
    # order; zero rows and a sign-changing body make exact zero products occur
    rng = np.random.default_rng(1000 * n + 100 * parity_a + 10 * parity_b + len(str(points)))
    rows = (len(even_masks(n)), len(odd_masks(n)))
    shape = (1, 4) if points == "broadcast" else points
    a = rng.uniform(-1.0, 1.0, (rows[parity_a],) + shape)
    b = rng.uniform(-1.0, 1.0, (rows[parity_b],) + shape)
    a[1::3] = 0.0
    b[::4] = 0.0
    if points == "broadcast":
        # what evaluate passes: read-only views with a zero stride on a point axis
        a = np.broadcast_to(a, a.shape[:1] + (3, 4))
        b = np.broadcast_to(b, b.shape[:1] + (3, 4))
    a_before, b_before = a.copy(), b.copy()
    out = gmul_stack(a, parity_a, b, parity_b, n)
    expected = ref_gmul_stack(a, parity_a, b, parity_b, n)
    assert out.shape == expected.shape == (rows[parity_a ^ parity_b],) + a.shape[1:]
    assert np.array_equal(out, expected)
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)
