import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolres.hypercube import (
    MAX_DIM,
    BooleanFunction,
    BoundedFunction,
    DimensionMismatch,
    DimensionTooLarge,
    chi_values,
    correlation,
    fwht,
    is_d_resilient,
    l1_distance,
    low_degree_sums,
    noise_sensitivity,
    per_coordinate_influence,
    read_truth_table,
    spectral_stats,
    wht,
    wht_int,
)
from reference import INT64_BITS, noise_sensitivity_direct, write_truth_table


def brute_force_coefficient(table, n, mask):
    """Independent oracle: 2^-n sum_x f(x) chi_S(x) over explicit tuples."""
    total = 0.0
    for idx in range(1 << n):
        coords = [1 if (idx >> j) & 1 == 0 else -1 for j in range(n)]
        chi = 1
        for j in range(n):
            if (mask >> j) & 1:
                chi *= coords[j]
        total += table[idx] * chi
    return total / (1 << n)


def make_majority3():
    coords = [chi_values(3, 1 << (j - 1)).astype(int) for j in (1, 2, 3)]
    return BooleanFunction(3, np.sign(coords[0] + coords[1] + coords[2]))


def random_boolean(n, rng):
    return BooleanFunction(n, rng.choice([-1, 1], size=1 << n))


def test_parity_spectrum_is_single_character():
    f = BooleanFunction(2, chi_values(2, 0b11))
    spec = wht(f)
    expected = np.zeros(4)
    expected[0b11] = 1.0
    assert np.allclose(spec, expected, atol=1e-15)


def test_majority3_spectrum_matches_brute_force():
    f = make_majority3()
    spec = wht(f)
    for mask in range(8):
        oracle = brute_force_coefficient(f.table, 3, mask)
        assert spec[mask] == pytest.approx(oracle, abs=1e-12)
    for j in range(3):
        assert spec[1 << j] == pytest.approx(0.5)
    assert spec[0b111] == pytest.approx(-0.5)
    assert spec[0] == pytest.approx(0.0)


def test_constant_function_spectrum():
    f = BooleanFunction(3, np.ones(8, dtype=np.int8))
    spec = wht(f)
    assert spec[0] == pytest.approx(1.0)
    assert np.allclose(spec[1:], 0.0)


def test_dictator_bit_convention_canary():
    # coordinate 1 must decode from bit 0 of the point index
    f = BooleanFunction(3, chi_values(3, 1))
    spec = wht(f)
    assert spec[0b001] == pytest.approx(1.0)
    assert np.sum(np.abs(spec)) == pytest.approx(1.0)
    assert f(0) == 1 and f(1) == -1


def test_wht_round_trip_boolean_exact():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        f = random_boolean(n, rng)
        back = fwht(wht(f))
        assert np.array_equal(back, f.table.astype(float))


def test_wht_round_trip_bounded():
    rng = np.random.default_rng(11)
    g = BoundedFunction(6, rng.uniform(-1, 1, size=64))
    back = fwht(wht(g))
    assert np.max(np.abs(back - g.table)) < 1e-12


def test_wht_int_is_exact_and_consistent():
    rng = np.random.default_rng(3)
    f = random_boolean(6, rng)
    ints = wht_int(f)
    assert ints.dtype == np.int64
    assert np.allclose(ints / 64.0, wht(f))


def test_wht_int_headroom_tied_to_dimension_cap():
    # wht_int's values stay within 2^n, and BooleanFunction caps n at
    # MAX_DIM, so they cannot wrap in int64
    assert MAX_DIM <= INT64_BITS


def copy_based_fwht(values):
    """The earlier butterfly, kept as the bit-level oracle: it copies the
    left half at every stage and writes both halves back in place."""
    a = np.array(values, copy=True)
    size = a.shape[0]
    h = 1
    while h < size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:]
        a[:, :h] = left + right
        a[:, h:] = left - right
        a = a.reshape(-1)
        h *= 2
    return a


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_fwht_is_bit_identical_to_copy_based_butterfly(dtype):
    rng = np.random.default_rng(17)
    for n in [*range(15), 18]:
        if dtype is np.float64:
            values = rng.standard_normal(1 << n)
        else:
            values = rng.integers(-(1 << 20), 1 << 20, size=1 << n)
        before = values.copy()
        out = fwht(values)
        assert out.dtype == dtype
        assert out.tobytes() == copy_based_fwht(values).tobytes(), n
        assert np.array_equal(values, before), n  # the input is only read
        assert not np.shares_memory(out, values), n  # a fresh result, n = 0 too


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_fwht_widens_an_int8_table_without_a_copy(dtype):
    table = np.where(np.random.default_rng(5).random(1 << 16) < 0.5, 1, -1).astype(np.int8)
    widened = table.astype(dtype)
    tracemalloc.start()
    try:
        out = fwht(table, dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == dtype
    assert out.tobytes() == copy_based_fwht(widened).tobytes()
    # the two butterfly buffers, and no widened copy of the table
    assert peak < 2.5 * widened.nbytes


def test_bounded_spectral_stats_runs_no_wht(monkeypatch):
    from boolres import hypercube

    g = BoundedFunction(12, np.random.default_rng(4).uniform(-1, 1, size=1 << 12))
    real = hypercube.fwht
    calls = []

    def counting(values, dtype=None):
        calls.append(values.shape[0])
        return real(values, dtype)

    monkeypatch.setattr(hypercube, "fwht", counting)
    stats = spectral_stats(g, 2)
    assert calls == []
    assert stats.per_coordinate_influence == tuple(
        float(v) for v in per_coordinate_influence(g)
    )
    sq = wht(g) ** 2
    low = np.bitwise_count(np.arange(1 << 12, dtype=np.uint64)) <= 2
    assert stats.low_weight == pytest.approx(float(sq[low].sum()), rel=1e-12)


def _full_transform_stats(fn, d):
    """The low weight and the worst low coefficient read off the whole spectrum."""
    pc = np.bitwise_count(np.arange(1 << fn.n, dtype=np.uint64))
    low = pc <= d
    sq = wht(fn) ** 2
    if isinstance(fn, BooleanFunction):
        coeffs, scale = wht_int(fn), float(1 << fn.n)
    else:
        coeffs, scale = wht(fn), 1.0
    vals = np.abs(coeffs[low])
    worst = int(np.argmax(vals))
    return float(sq[low].sum()), int(np.nonzero(low)[0][worst]), float(vals[worst]) / scale


@pytest.mark.parametrize("seed", range(6))
def test_boolean_low_weight_and_worst_mask_match_the_full_transform(seed):
    rng = np.random.default_rng(seed)
    n = 4 + seed
    for f in (random_boolean(n, rng), make_majority3(), BooleanFunction(n, chi_values(n, 0b101))):
        for d in range(f.n + 1):
            low_weight, worst_mask, worst = _full_transform_stats(f, d)
            assert spectral_stats(f, d).low_weight == low_weight  # bit for bit
            check = is_d_resilient(f, d)
            assert (check.worst_mask, check.worst_coefficient) == (worst_mask, worst)


def test_resilience_worst_mask_ties_keep_the_lowest_mask():
    # |coef| ties: every singleton of majority(3) is 1/2, and the dyadic
    # bounded tables below have exact float sums, so ties stay ties
    assert is_d_resilient(make_majority3(), 1).worst_mask == 0b001
    assert is_d_resilient(make_majority3(), 3).worst_mask == 0b001
    x = [chi_values(3, 1 << (j - 1)).astype(np.float64) for j in (1, 2, 3)]
    for table, d, mask in (
        ((x[1] + x[2]) / 2, 1, 0b010),
        ((x[2] - x[0]) / 2, 2, 0b001),
        ((x[0] * x[1] + x[2] * x[1]) / 2, 2, 0b011),
        (np.full(8, 0.25), 3, 0b000),
    ):
        g = BoundedFunction(3, table)
        check = is_d_resilient(g, d)
        assert check.worst_mask == mask
        assert check.worst_coefficient == (0.5 if mask else 0.25)
        assert (check.worst_mask, check.worst_coefficient) == _full_transform_stats(g, d)[1:]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_parseval_random_boolean(n, seed):
    rng = np.random.default_rng(seed)
    f = random_boolean(n, rng)
    assert np.sum(wht(f) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_parseval_across_dimensions():
    rng = np.random.default_rng(2024)
    for n in range(4, 13):
        for _ in range(12):
            f = random_boolean(n, rng)
            assert np.sum(wht(f) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_plancherel_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = random_boolean(6, rng)
        g = random_boolean(6, rng)
        lhs = correlation(f, g)
        rhs = float(np.dot(wht(f), wht(g)))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        BooleanFunction(40, np.ones(4, dtype=np.int8))


def test_majority3_stats():
    stats = spectral_stats(make_majority3(), d=1)
    assert stats.total_influence == pytest.approx(1.5)
    assert stats.low_weight == pytest.approx(0.75)
    assert stats.per_coordinate_influence == pytest.approx((0.5, 0.5, 0.5))


def test_edge_influence_by_exhaustive_oracle():
    rng = np.random.default_rng(17)
    f = random_boolean(5, rng)
    stats = spectral_stats(f, d=2)
    # oracle: count boundary edges one point at a time
    n = 5
    for j in range(1, n + 1):
        count = 0
        for idx in range(1 << n):
            if f(idx) != f(idx ^ (1 << (j - 1))):
                count += 1
        assert stats.per_coordinate_influence[j - 1] == pytest.approx(count / (1 << n))


def test_parity_influence_and_low_weight():
    for k in (2, 3, 4):
        f = BooleanFunction(5, chi_values(5, (1 << k) - 1))
        stats = spectral_stats(f, d=k - 1)
        assert stats.total_influence == pytest.approx(k)
        assert stats.low_weight == pytest.approx(0.0, abs=1e-12)


def test_dictator_influence_vector():
    f = BooleanFunction(4, chi_values(4, 1))
    stats = spectral_stats(f, d=1)
    assert stats.per_coordinate_influence == pytest.approx((1.0, 0.0, 0.0, 0.0))


def test_edge_influence_equals_fourier_influence():
    rng = np.random.default_rng(23)
    for n in (4, 6, 8):
        f = random_boolean(n, rng)
        stats = spectral_stats(f, d=1)
        sq = wht(f) ** 2
        pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(int)
        assert stats.total_influence == pytest.approx(float(np.dot(pc, sq)), abs=1e-9)


def test_monotone_singleton_coefficients_equal_influence():
    f = make_majority3()
    spec = wht(f)
    stats = spectral_stats(f, d=1)
    for j in range(1, 4):
        assert spec[1 << (j - 1)] == pytest.approx(
            stats.per_coordinate_influence[j - 1], abs=1e-10
        )


def test_noise_sensitivity_zero_rate():
    rng = np.random.default_rng(31)
    f = random_boolean(6, rng)
    assert noise_sensitivity(f, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert noise_sensitivity_direct(f, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_noise_sensitivity_of_characters():
    # NS_delta[chi_S] = (1 - (1-2 delta)^|S|) / 2
    for size, delta in itertools.product((1, 2, 3), (0.1, 0.25, 0.4)):
        f = BooleanFunction(4, chi_values(4, (1 << size) - 1))
        expected = (1.0 - (1.0 - 2.0 * delta) ** size) / 2.0
        assert noise_sensitivity(f, delta) == pytest.approx(expected, abs=1e-12)
    f = BooleanFunction(4, chi_values(4, 0b1))
    assert noise_sensitivity(f, 0.25) == pytest.approx(0.25)


def test_noise_sensitivity_direct_oracle_agreement():
    rng = np.random.default_rng(41)
    f = make_majority3()
    direct = noise_sensitivity_direct(f, 0.1)
    spectral = noise_sensitivity(f, 0.1)
    assert abs(direct - spectral) < 1e-10
    for _ in range(5):
        g = random_boolean(7, rng)
        delta = rng.uniform(0, 1)
        assert abs(
            noise_sensitivity_direct(g, delta) - noise_sensitivity(g, delta)
        ) < 1e-10


def test_noise_sensitivity_validates_rate():
    f = make_majority3()
    for ns in (noise_sensitivity, noise_sensitivity_direct):
        with pytest.raises(ValueError):
            ns(f, -0.1)
        with pytest.raises(ValueError):
            ns(f, 1.5)
        with pytest.raises(TypeError):
            ns(BoundedFunction(3, np.zeros(8)), 0.1)
    with pytest.raises(DimensionTooLarge):
        noise_sensitivity_direct(BooleanFunction(15, np.ones(1 << 15, dtype=np.int8)), 0.1)


def test_distance_correlation_identity():
    rng = np.random.default_rng(43)
    f = random_boolean(6, rng)
    g = BoundedFunction(6, rng.uniform(-1, 1, size=64))
    assert l1_distance(f, g) + correlation(f, g) == pytest.approx(1.0, abs=1e-10)


def test_distance_extremes():
    rng = np.random.default_rng(47)
    f = random_boolean(5, rng)
    neg = BooleanFunction(5, -f.table)
    assert l1_distance(f, f) == 0.0
    assert correlation(f, f) == 1.0
    assert l1_distance(f, neg) == 2.0
    assert correlation(f, neg) == -1.0


def test_and2_vs_zero_function():
    # +1 everywhere except the all-true point
    table = np.ones(4, dtype=np.int8)
    table[0] = -1
    f = BooleanFunction(2, table)
    zero = BoundedFunction(2, np.zeros(4))
    assert l1_distance(f, zero) == pytest.approx(1.0)
    assert correlation(f, zero) == pytest.approx(0.0)
    assert is_d_resilient(zero, 0).resilient


def test_dimension_mismatch_raises():
    f = BooleanFunction(2, np.ones(4, dtype=np.int8))
    g = BooleanFunction(3, np.ones(8, dtype=np.int8))
    with pytest.raises(DimensionMismatch):
        l1_distance(f, g)


def test_resilience_check_exact_integer_path():
    f = BooleanFunction(4, chi_values(4, 0b111))
    check = is_d_resilient(f, 2)
    assert check.resilient
    assert low_degree_sums(f.table, 2)[1].dtype == np.int64  # int8 table, exact int64 sums
    check3 = is_d_resilient(f, 3)
    assert not check3.resilient
    assert check3.worst_mask == 0b111
    assert check3.worst_coefficient == pytest.approx(1.0)


def test_resilience_check_bounded_tolerance():
    g = BoundedFunction(3, np.full(8, 1e-12))
    assert is_d_resilient(g, 1, tol=1e-9).resilient
    g2 = BoundedFunction(3, np.full(8, 1e-3))
    check = is_d_resilient(g2, 0, tol=1e-9)
    assert not check.resilient
    assert check.worst_mask == 0


def test_truth_table_round_trip(tmp_path):
    rng = np.random.default_rng(53)
    f = random_boolean(4, rng)
    path = tmp_path / "f.tt"
    write_truth_table(f, str(path))
    back = read_truth_table(str(path))
    assert isinstance(back, BooleanFunction)
    assert np.array_equal(back.table, f.table)

    g = BoundedFunction(3, rng.uniform(-1, 1, size=8))
    pathg = tmp_path / "g.tt"
    write_truth_table(g, str(pathg))
    backg = read_truth_table(str(pathg))
    assert isinstance(backg, BoundedFunction)
    assert np.array_equal(backg.table, g.table)


def test_spectrum_parseval_invariant_documented():
    # AND of two bits in +-1 form: every coefficient has magnitude 1/2
    spec = wht(BooleanFunction(2, np.array([1, 1, 1, -1])))
    assert spec.dtype == np.float64 and spec.tolist() == [0.5, 0.5, 0.5, -0.5]
    assert np.sum(spec**2) == 1.0
