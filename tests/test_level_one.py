"""The coordinate split kernels of `hypercube` against independent oracles."""

import tracemalloc

import numpy as np
import pytest

from boolres.hypercube import (
    BooleanFunction,
    BoundedFunction,
    coordinate_signs,
    coordinate_values,
    fwht,
    low_degree_sums,
    per_coordinate_influence,
    popcounts,
    wht,
    wht_int,
)
from boolres.zoo import cyclerun, random_boolean, tribes


def _gather_influence(fn):
    """Influence by index gather: all points (Boolean), or the points with
    x_j = +1 selected by a boolean mask (bounded, derivative form)."""
    n = fn.n
    idx = np.arange(1 << n)
    table = fn.table
    if isinstance(fn, BooleanFunction):
        return np.array(
            [np.mean(table != table[idx ^ (1 << (j - 1))]) for j in range(1, n + 1)]
        )
    out = []
    for j in range(1, n + 1):
        plus = idx[(idx >> (j - 1)) & 1 == 0]
        out.append(np.mean(((table[plus] - table[plus ^ (1 << (j - 1))]) / 2) ** 2))
    return np.array(out)


def _spectral_influence(sq):
    """sum_{S ni j} sq[S] for j = 1..n, from the squared coefficients sq."""
    masks = np.arange(sq.shape[0])
    n = sq.shape[0].bit_length() - 1
    return np.array([sq[(masks >> (j - 1)) & 1 == 1].sum() for j in range(1, n + 1)])


@pytest.mark.parametrize("n", range(1, 15))
def test_level_one_sums_match_exact_spectrum(n):
    for seed in (0, 1):
        f = random_boolean(n, seed=1000 * n + seed)
        coeffs = wht_int(f)
        masks, sums = low_degree_sums(f.table, 1, np.int64)
        assert sums.dtype == np.int64
        assert masks.tolist() == [0] + [1 << (j - 1) for j in range(1, n + 1)]
        assert sums.tolist() == [int(coeffs[m]) for m in masks]


@pytest.mark.parametrize("n", range(0, 13))
def test_low_degree_sums_match_fwht_at_every_degree(n):
    rng = np.random.default_rng(70 + n)
    signs = np.where(rng.random(1 << n) < 0.5, 1, -1).astype(np.int8)
    reals = rng.uniform(-1.0, 1.0, 1 << n)
    pc = popcounts(n)
    for table, dtype in (
        (signs, np.int64),
        (signs.astype(np.int64), np.int64),
        (signs.astype(np.float64), np.float64),
        (reals, np.float64),
    ):
        full = fwht(table, dtype)
        for d in range(n + 1):
            masks, sums = low_degree_sums(table, d, dtype)
            low = np.nonzero(pc <= d)[0]
            assert masks.dtype == np.int64 and sums.dtype == dtype
            assert np.array_equal(masks, low)
            if table is reals:
                # another summation order: 2^n terms of size <= 1, float64 rounding
                assert np.allclose(sums, full[low], rtol=0, atol=1e-13 * max(1, n) * (1 << n))
            else:
                assert sums.tobytes() == full[low].tobytes()


def test_low_degree_sums_reject_bad_degree():
    with pytest.raises(ValueError):
        low_degree_sums(np.ones(8, dtype=np.int8), 4, np.int64)
    with pytest.raises(ValueError):
        low_degree_sums(np.ones(8, dtype=np.int8), -1, np.int64)


def test_low_degree_sums_make_no_widened_copy_of_an_int8_table():
    table = np.where(np.random.default_rng(6).random(1 << 16) < 0.5, 1, -1).astype(np.int8)
    widened = table.astype(np.int64)
    tracemalloc.start()
    try:
        _, sums = low_degree_sums(table, 1, np.int64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.tolist() == fwht(widened)[[0] + [1 << j for j in range(16)]].tolist()
    # the first fold is half a widened table, the next a quarter
    assert peak < 0.8 * widened.nbytes


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
    assert np.array_equal(via_signs, low_degree_sums(f.table, 1, np.int64)[1][1:])


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


@pytest.mark.parametrize("n", [1, 4, 9, 13])
def test_influence_matches_spectral_form(n):
    rng = np.random.default_rng(300 + n)
    for fn in (
        BoundedFunction(n, rng.uniform(-1.0, 1.0, 1 << n)),
        BoundedFunction(n, 0.5 * coordinate_values(n, n)),
        random_boolean(n, seed=300 + n),
    ):
        oracle = _spectral_influence(wht(fn) ** 2)
        # two float64 sums of 2^n terms in [0, 1] in different orders
        assert np.allclose(per_coordinate_influence(fn), oracle, rtol=1e-12, atol=1e-15)
