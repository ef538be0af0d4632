"""The coordinate split kernels of `hypercube` against independent oracles."""

import numpy as np
import pytest

from boolres.hypercube import (
    BooleanFunction,
    BoundedFunction,
    coordinate_signs,
    coordinate_values,
    level_one_sums,
    per_coordinate_influence,
    wht,
    wht_int,
)
from boolres.zoo import cyclerun, random_boolean, tribes


def _gather_influence(fn):
    """Influence by index gather (Boolean) and subset-mask selection (bounded)."""
    n = fn.n
    idx = np.arange(1 << n)
    if isinstance(fn, BooleanFunction):
        table = fn.table
        return np.array(
            [np.mean(table != table[idx ^ (1 << (j - 1))]) for j in range(1, n + 1)]
        )
    sq = wht(fn).coeffs ** 2
    masks = np.arange(1 << n)
    return np.array([sq[(masks >> (j - 1)) & 1 == 1].sum() for j in range(1, n + 1)])


@pytest.mark.parametrize("n", range(1, 15))
def test_level_one_sums_match_exact_spectrum(n):
    for seed in (0, 1):
        f = random_boolean(n, seed=1000 * n + seed)
        coeffs = wht_int(f)
        sums = level_one_sums(f.table)
        assert sums.dtype == np.int64
        assert [int(s) for s in sums] == [int(coeffs[1 << (j - 1)]) for j in range(1, n + 1)]


def test_coordinate_signs_are_coordinate_values_rows():
    n = 6
    points = np.array([0, 1, 5, 37, 63])
    signs = coordinate_signs(points, n)
    assert signs.shape == (len(points), n)
    for j in range(1, n + 1):
        assert np.array_equal(signs[:, j - 1], coordinate_values(n, j)[points])


def test_coordinate_signs_product_is_level_one_sum():
    f = random_boolean(9, seed=4)
    points = np.arange(1 << 9)
    via_signs = f.table.astype(np.int64) @ coordinate_signs(points, 9)
    assert np.array_equal(via_signs, level_one_sums(f.table))


@pytest.mark.parametrize(
    "fn",
    [cyclerun(13), tribes(3, 4), random_boolean(10, seed=3), random_boolean(1, seed=2)],
    ids=["cyclerun13", "tribes34", "random10", "random1"],
)
def test_boolean_influence_is_bit_identical_to_gather(fn):
    new = per_coordinate_influence(fn)
    old = _gather_influence(fn)
    assert new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("n", [1, 5, 12, 16, 18])
def test_bounded_influence_is_bit_identical_to_mask_selection(n):
    rng = np.random.default_rng(n)
    fn = BoundedFunction(n, rng.uniform(-1.0, 1.0, 1 << n))
    new = per_coordinate_influence(fn)
    old = _gather_influence(fn)
    assert new.tobytes() == old.tobytes()
