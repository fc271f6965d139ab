import random

import numpy as np
import pytest

from superhs.grassmann import (
    EVEN,
    MIXED,
    ODD,
    GrassmannElement,
    GrassmannError,
    even_masks,
    gadd,
    gmul,
    gmul_stack,
    gsub,
    mask_row,
    merge_sign,
    odd_masks,
    parity_of,
    scale,
)


def eta(i, n=2):
    return GrassmannElement.generator(i, n)


def test_generators_anticommute():
    e1, e2 = eta(1), eta(2)
    assert gmul(e1, e2) == GrassmannElement(2, {0b11: 1.0})
    assert gmul(e2, e1) == GrassmannElement(2, {0b11: -1.0})


def test_generators_nilpotent():
    assert gmul(eta(1), eta(1)).is_zero()


def test_even_element_squares():
    one = GrassmannElement.scalar(1.0, 2)
    x = gadd(one, gmul(eta(1), eta(2)))  # 1 + e1 e2
    sq = gmul(x, x)
    assert sq == GrassmannElement(2, {0: 1.0, 0b11: 2.0})


def test_addition_and_scaling():
    assert gadd(eta(1), eta(1)) == GrassmannElement(2, {0b01: 2.0})
    assert scale(0.0, gadd(eta(1), eta(2))).is_zero()
    lhs = gadd(GrassmannElement(2, {0: 1.0, 0b01: 1.0}), GrassmannElement(2, {0: -1.0, 0b10: 1.0}))
    assert lhs == GrassmannElement(2, {0b01: 1.0, 0b10: 1.0})


def test_parity_classification():
    assert parity_of(gmul(eta(1), eta(2))) == EVEN
    assert parity_of(eta(1)) == ODD
    assert parity_of(gadd(GrassmannElement.scalar(1.0, 2), eta(1))) == MIXED
    assert parity_of(GrassmannElement.zero(2)) == EVEN


def test_mismatched_algebras_rejected():
    with pytest.raises(GrassmannError):
        gmul(GrassmannElement.scalar(1.0, 2), GrassmannElement.scalar(1.0, 3))
    with pytest.raises(GrassmannError):
        gadd(GrassmannElement.scalar(1.0, 1), GrassmannElement.scalar(1.0, 4))


def test_body_and_masks():
    x = GrassmannElement(3, {0: 2.5, 0b101: 1.0})
    assert x.body() == 2.5
    assert set(even_masks(2)) == {0, 0b11}
    assert set(odd_masks(2)) == {0b01, 0b10}


def test_merge_sign_examples():
    assert merge_sign(0b01, 0b10) == 1
    assert merge_sign(0b10, 0b01) == -1
    assert merge_sign(0b01, 0b01) == 0
    assert merge_sign(0, 0b111) == 1


def _random_element(rng, n, parity=None):
    masks = list(range(1 << n))
    if parity is not None:
        masks = [m for m in masks if m.bit_count() % 2 == parity]
    coeffs = {m: rng.choice([-2.0, -1.0, 1.0, 3.0]) for m in rng.sample(masks, k=min(3, len(masks)))}
    return GrassmannElement(n, coeffs)


def test_graded_commutativity_randomized():
    rng = random.Random(7)
    for _ in range(100):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = _random_element(rng, 4, pa)
        b = _random_element(rng, 4, pb)
        lhs = gmul(a, b)
        rhs = scale((-1.0) ** (pa * pb), gmul(b, a))
        assert gsub(lhs, rhs).is_zero()


def test_associativity_randomized():
    rng = random.Random(11)
    for _ in range(100):
        a = _random_element(rng, 4)
        b = _random_element(rng, 4)
        c = _random_element(rng, 4)
        assert gsub(gmul(gmul(a, b), c), gmul(a, gmul(b, c))).is_zero()


def test_odd_squares_vanish_randomized():
    rng = random.Random(13)
    for _ in range(50):
        a = _random_element(rng, 5, ODD)
        assert gmul(a, a).is_zero()


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
        ga = GrassmannElement(n, dict(zip(masks[parity_a], a[:, j])))
        gb = GrassmannElement(n, dict(zip(masks[parity_b], b[:, j])))
        expected = gmul(ga, gb)
        assert set(expected.coeffs) <= set(out_masks)
        for row, mask in enumerate(out_masks):
            assert abs(out[row, j] - expected.coeffs.get(mask, 0.0)) <= 1e-14
