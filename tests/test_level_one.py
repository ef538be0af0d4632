"""The coordinate split and cyclic shift kernels of `hypercube` against
independent oracles."""

import tracemalloc

import numpy as np
import pytest

from boolres import hypercube
from boolres.hypercube import (
    BooleanFunction,
    BoundedFunction,
    characters,
    chi_values,
    flip_sign_bits,
    fwht,
    is_d_resilient,
    level_one_sums,
    low_degree_part,
    low_degree_sums,
    orbit_members,
    per_coordinate_influence,
    periods,
    popcounts,
    rotate,
    rotations,
    sign_sums,
    sign_words,
    spectral_stats,
    wht,
    wht_int,
)
from boolres.zoo import constant, cyclerun, dictator, majority, parity, random_boolean, tribes
from reference import shift_orbit


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
        masks, sums = low_degree_sums(f.table, 1)
        assert sums.dtype == np.int64
        assert masks.tolist() == [0] + [1 << (j - 1) for j in range(1, n + 1)]
        assert sums.tolist() == [int(coeffs[m]) for m in masks]


@pytest.mark.parametrize("n", range(0, 13))
def test_low_degree_sums_match_fwht_at_every_degree(n):
    rng = np.random.default_rng(70 + n)
    signs = np.where(rng.random(1 << n) < 0.5, 1, -1).astype(np.int8)
    reals = rng.uniform(-1.0, 1.0, 1 << n)
    pc = popcounts(n)
    # integer tables sum in int64, any other in float64
    for table, dtype in (
        (signs, np.int64),
        (signs.astype(np.int64), np.int64),
        (signs.astype(np.float32), np.float64),
        (signs.astype(np.float64), np.float64),
        (reals, np.float64),
    ):
        full = fwht(table, dtype)
        for d in range(n + 1):
            masks, sums = low_degree_sums(table, d)
            low = np.nonzero(pc <= d)[0]
            assert masks.dtype == np.int64 and sums.dtype == dtype
            assert np.array_equal(masks, low)
            if table is reals:
                # another summation order: 2^n terms of size <= 1, float64 rounding
                assert np.allclose(sums, full[low], rtol=0, atol=1e-13 * max(1, n) * (1 << n))
            else:
                assert sums.tobytes() == full[low].tobytes()


@pytest.mark.parametrize("n", range(11))
def test_low_degree_part_is_the_masked_double_transform(n):
    rng = np.random.default_rng(500 + n)
    pc = popcounts(n)
    ints = rng.integers(-(1 << 20), 1 << 20, 1 << n)
    for d in range(n + 1):
        part = low_degree_part(ints, d)
        assert part.dtype == np.int64
        assert np.array_equal(part, fwht(np.where(pc <= d, fwht(ints), 0)))


@pytest.mark.parametrize("n", range(1, 13))
def test_low_degree_pass_groups_by_degree_then_bit_reversed_mask(n):
    # the order `_low_degree_transpose` reads the pass's sums in, unsorted
    table = np.arange(1 << n, dtype=np.int64)
    for d in range(1, n + 1):
        masks, sums = hypercube._low_degree_pass(table, d)
        keys = [(m.bit_count(), int(format(m, f"0{n}b")[::-1], 2)) for m in masks.tolist()]
        assert keys == sorted(set(keys))  # strictly ascending
        assert np.array_equal(np.sort(masks), np.nonzero(popcounts(n) <= d)[0])
        assert np.array_equal(sums, fwht(table)[masks])


def test_low_degree_part_peak_memory_is_a_few_tables_at_middle_degree():
    # n = 16, d = 8 keeps 39203 masks: a (masks, n) array would take 9.6 tables
    n, d = 16, 8
    values = np.random.default_rng(16).integers(-(1 << 20), 1 << 20, 1 << n)
    tracemalloc.start()
    try:
        part = low_degree_part(values, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(part, fwht(np.where(popcounts(n) <= d, fwht(values), 0)))
    assert peak < 8 * values.nbytes


@pytest.mark.parametrize("n", [0, 3, 6, 7, 9])
def test_sign_words_set_bit_x_of_the_minus_one_points(n):
    table = random_boolean(n, seed=40 + n).table
    words = sign_words(table)
    assert words.dtype == np.dtype("<u8") and len(words) == max(1, (1 << n) // 64)
    bits = [(int(words[x // 64]) >> (x % 64)) & 1 for x in range(64 * len(words))]
    assert bits == [int(v == -1) for v in table] + [0] * (64 * len(words) - (1 << n))


@pytest.mark.parametrize("n", range(1, 15))
def test_level_one_sums_match_low_degree_sums(n):
    # n < 6 fits one padded word; from n = 7 on, coordinates 7.. are word halves
    for f in (random_boolean(n, seed=60 + n), cyclerun(n) if n % 2 and n > 1 else tribes(1, n)):
        expected = low_degree_sums(f.table, 1)[1]
        sums = level_one_sums(f.table)
        assert sums.dtype == np.int64 and np.array_equal(sums, expected)


def _zoo_tables(n):
    yield random_boolean(n, seed=80 + n).table
    yield constant(n, -1).table
    yield majority(n).table if n % 2 else parity((1 << n) - 1, n).table
    if n:
        yield dictator(n, n).table
        yield random_boolean(n, seed=90 + n, balanced=True).table
    if n % 2 and n > 1:
        yield cyclerun(n).table
    if n >= 2:
        yield tribes(2, n // 2).table if n % 2 == 0 else tribes(1, n).table


@pytest.mark.parametrize("n", range(0, 17))
def test_packed_sums_match_low_degree_sums(n):
    # n <= 6 is one word, padded below n = 6; from n = 7 on the per-word
    # counts carry the cross-word coordinates
    for table in _zoo_tables(n):
        sums = sign_sums(sign_words(table), n)
        assert sums.dtype == np.int64 and len(sums) == n + 1
        assert np.array_equal(sums, low_degree_sums(table, min(n, 1))[1])


@pytest.mark.parametrize("n", [0, 3, 6, 7, 12])
def test_flip_sign_bits_negates_the_listed_points(n):
    table = random_boolean(n, seed=70 + n).table
    points = np.random.default_rng(n).choice(1 << n, size=(1 << n) // 2 + 1, replace=False)
    words = sign_words(table)
    flip_sign_bits(words, points)
    flipped = table.copy()
    flipped[points] *= -1
    assert np.array_equal(words, sign_words(flipped))
    flip_sign_bits(words, np.concatenate([points, points]))  # twice is no flip
    assert np.array_equal(words, sign_words(flipped))


def test_low_degree_sums_reject_bad_degree():
    with pytest.raises(ValueError):
        low_degree_sums(np.ones(8, dtype=np.int8), 4)
    with pytest.raises(ValueError):
        low_degree_sums(np.ones(8, dtype=np.int8), -1)


def _stats_bits(stats):
    return [v.hex() for v in (stats.low_weight, stats.total_influence,
                              *stats.per_coordinate_influence)]


@pytest.mark.parametrize("fn", [
    random_boolean(6, seed=16), tribes(3, 2), random_boolean(7, seed=17), cyclerun(7),
    random_boolean(13, seed=23), cyclerun(13),
], ids=["random6", "tribes32", "random7", "cyclerun7", "random13", "cyclerun13"])
def test_spectral_stats_at_degree_one_are_bit_identical_on_both_routes(monkeypatch, fn):
    # a Boolean table's sign bits are packed once, for its influences and its
    # d = 1 sums; the int64 low_degree_sums pass gives the same integers, so
    # every field agrees
    packed, calls = [], []
    real_words, real_sums = hypercube.sign_words, hypercube.sign_sums
    monkeypatch.setattr(hypercube, "sign_words", lambda t: packed.append(t) or real_words(t))
    monkeypatch.setattr(hypercube, "sign_sums", lambda w, n: calls.append(n) or real_sums(w, n))
    via_signs = spectral_stats(fn, 1)
    assert len(packed) == 1 and calls == [fn.n]
    assert via_signs.per_coordinate_influence == tuple(_gather_influence(fn).tolist())
    monkeypatch.setattr(hypercube, "sign_sums", lambda w, n: low_degree_sums(fn.table, 1)[1])
    assert _stats_bits(spectral_stats(fn, 1)) == _stats_bits(via_signs)


def test_spectral_stats_keep_the_degree_check_at_n_zero():
    with pytest.raises(ValueError, match=r"^degree d=1 outside \[0, 0\]$"):
        spectral_stats(BooleanFunction(0, np.ones(1)), 1)


@pytest.mark.parametrize("d", [-1, 4])
@pytest.mark.parametrize("check", [spectral_stats, is_d_resilient])
def test_degree_checks_read_the_range_off_low_degree_sums(check, d):
    for fn in (BooleanFunction(3, np.ones(8)), BoundedFunction(3, np.zeros(8))):
        with pytest.raises(ValueError, match=rf"^degree d={d} outside \[0, 3\]$"):
            check(fn, d)


def test_low_degree_sums_make_no_widened_copy_of_an_int8_table():
    table = np.where(np.random.default_rng(6).random(1 << 16) < 0.5, 1, -1).astype(np.int8)
    widened = table.astype(np.int64)
    tracemalloc.start()
    try:
        _, sums = low_degree_sums(table, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.tolist() == fwht(widened)[[0] + [1 << j for j in range(16)]].tolist()
    # the first fold is half a widened table, the next a quarter
    assert peak < 0.8 * widened.nbytes


def test_characters_match_the_parity_of_each_mask_and_point():
    masks = [0, 1, 0b1010, 0b1111111, 0b100]
    points = np.array([0, 3, 64, 127, 3, 85])
    rows = characters(masks, points)
    assert rows.dtype == np.int8 and rows.flags.c_contiguous and rows.shape == (5, 6)
    for row, mask in zip(rows, masks):
        assert row.tolist() == [(-1) ** (mask & int(x)).bit_count() for x in points]
    assert np.array_equal(characters(masks, np.arange(128))[2], chi_values(7, 0b1010))


@pytest.mark.parametrize(
    "fn",
    [cyclerun(13), tribes(3, 4), random_boolean(10, seed=3), random_boolean(1, seed=2),
     random_boolean(6, seed=6), random_boolean(7, seed=7)],
    ids=["cyclerun13", "tribes34", "random10", "random1", "random6", "random7"],
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
        BoundedFunction(n, 0.5 * chi_values(n, 1 << (n - 1))),
        random_boolean(n, seed=300 + n),
    ):
        oracle = _spectral_influence(wht(fn) ** 2)
        # two float64 sums of 2^n terms in [0, 1] in different orders
        assert np.allclose(per_coordinate_influence(fn), oracle, rtol=1e-12, atol=1e-15)


def _rotated(x: int, k: int, n: int) -> int:
    """Reference: bit j of the result is bit (j + k) mod n of x, one bit at a time."""
    return sum(((x >> ((j + k) % n)) & 1) << j for j in range(n))


@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_rotate_matches_the_bitwise_oracle(dtype):
    # n = 25 is CycleRun's largest dimension; uint32 is what its stages use
    n = 25
    mask = (1 << n) - 1
    rng = np.random.default_rng(25)
    points = [0, 1, 1 << (n - 1), mask, 0b10110, mask ^ 1]
    points += rng.integers(0, 1 << n, size=200).tolist()
    values = np.array(points, dtype=dtype)
    for k in range(n + 1):
        rotated = rotate(values, k, n)
        assert rotated.dtype == dtype
        assert rotated.tolist() == [_rotated(x, k, n) for x in points]


def test_all_ones_orbit():
    members, sizes = orbit_members(np.array([0]), 5)  # index 0 is the all-(+1) point
    assert sorted(members.tolist()) == [0, 0b11111]
    assert sizes.tolist() == [2]
    assert periods(rotations(np.array([0]), 5)).tolist() == [1]


def test_coprime_weight_orbit_size():
    # Hamming weight 2 is coprime to 5 -> period n, orbit size 2n
    assert periods(rotations(np.array([0b00011]), 5)).tolist() == [5]
    assert orbit_members(np.array([0b00011]), 5)[1].tolist() == [10]


def test_periodic_point_orbit_size():
    # period-3 pattern on n=9: 001 repeated; 3 shifts x 2 signs = 6 members
    x = 0b001001001
    assert periods(rotations(np.array([x]), 9)).tolist() == [3]
    assert orbit_members(np.array([x]), 9)[1].tolist() == [6]


def test_rotations_columns_are_successive_shifts():
    rots = rotations(np.array([0b00011, 0b10110]), 5)
    assert rots.tolist() == [
        [0b00011, 0b10001, 0b11000, 0b01100, 0b00110],
        [0b10110, 0b01011, 0b10101, 0b11010, 0b01101],
    ]


@pytest.mark.parametrize("n", [5, 7, 9])
def test_orbit_members_match_the_reference_closure(n):
    points = np.arange(1 << n)
    members, sizes = orbit_members(points, n)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for x in range(1 << n):
        orbit = members[offsets[x]:offsets[x + 1]].tolist()
        assert len(orbit) == len(set(orbit))  # each member once
        assert frozenset(orbit) == shift_orbit(x, n)


def test_orbit_members_need_odd_n():
    with pytest.raises(ValueError):
        orbit_members(np.array([1]), 6)


def test_orbits_partition_small():
    n = 5
    members, sizes = orbit_members(np.arange(1 << n), n)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    seen = {}
    for x in range(1 << n):
        orbit = frozenset(members[offsets[x]:offsets[x + 1]].tolist())
        key = min(orbit)
        if key in seen:
            assert seen[key] == orbit
        else:
            seen[key] = orbit
    assert sum(len(m) for m in seen.values()) == 1 << n
    for orbit in seen.values():
        assert len(orbit) % 2 == 0
        assert (2 * n) % len(orbit) == 0
