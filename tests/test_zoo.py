import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from boolres import zoo
from boolres.hypercube import (
    is_d_resilient,
    popcounts,
    spectral_stats,
    wht,
)
from boolres.zoo import (
    constant,
    cyclerun,
    cyclerun_table,
    dictator,
    ft_sandwich,
    ft_stats,
    gaussian_density,
    majority,
    parity,
    random_boolean,
    tribes,
)
from reference import (
    SymmetricFunction,
    ft_stats_exact,
    threshold_ft,
    tribes_loop,
    tribes_spectrum_closed_form,
    tribes_weight_bound,
)


# ---------------------------------------------------------------------------
# tribes
# ---------------------------------------------------------------------------

def tribes_reference(w, s, idx):
    """Independent DNF evaluation: TRUE (-1) iff some block is all-true."""
    for block in range(s):
        if all((idx >> (block * w + j)) & 1 for j in range(w)):
            return -1
    return 1


def test_tribes_table_matches_dnf_oracle():
    for w, s in ((1, 1), (2, 2), (2, 3), (3, 2)):
        f = tribes(w, s)
        for idx in range(1 << (w * s)):
            assert f(idx) == tribes_reference(w, s, idx)


@pytest.mark.parametrize("w,s", [(w, s) for w in range(1, 17) for s in range(1, 17) if w * s <= 16])
def test_tribes_outer_products_match_the_block_mask_loop(w, s):
    f, expected = tribes(w, s), tribes_loop(w, s)
    assert f.table.dtype == expected.table.dtype == np.int8
    assert np.array_equal(f.table, expected.table)


def test_tribes_empty_set_coefficient():
    assert tribes_spectrum_closed_form(2, 2)[0] == pytest.approx(2 * (3 / 4) ** 2 - 1)
    assert tribes_spectrum_closed_form(2, 2)[0] == pytest.approx(1 / 8)


def test_tribes_full_block_coefficient():
    # whole first block: k=1 blocks hit, |T| = 2
    assert tribes_spectrum_closed_form(2, 2)[0b0011] == pytest.approx(-3 / 8)


def test_tribes_closed_form_equals_wht():
    for w, s in ((2, 2), (2, 3), (3, 2)):
        exact = wht(tribes(w, s))
        closed = tribes_spectrum_closed_form(w, s)
        assert np.max(np.abs(exact - closed)) <= 1e-12


def test_tribes_single_variable_is_dictator():
    f = tribes(1, 1)
    assert np.array_equal(f.table, dictator(1, 1).table)
    assert tribes_spectrum_closed_form(1, 1)[0b1] == pytest.approx(1.0)


def test_tribes_weight_bound_formula():
    # w=3, s=5 is the integer closest to (ln 2) 2^w; d=1
    n = 15
    assert tribes_weight_bound(3, 5, 1) == pytest.approx(2 * (2 * math.log(n)) ** 6 / n)


def test_tribes_low_weight_below_bound_when_meaningful():
    for w, s in ((2, 2), (2, 3), (3, 2)):
        f = tribes(w, s)
        for d in (0, 1):
            exact = spectral_stats(f, d).low_weight
            assert exact <= 1.0
            bound = tribes_weight_bound(w, s, d)
            if bound <= 1.0:
                assert exact <= bound


def test_tribes_guards():
    with pytest.raises(ValueError):
        tribes(0, 3)
    with pytest.raises(ValueError):
        tribes(6, 5)  # 30 bits


# ---------------------------------------------------------------------------
# cyclerun
# ---------------------------------------------------------------------------

def cyclerun_reference(bits):
    """Literal three-stage procedure on a +-1 sequence (index 0 = coord 1)."""
    n = len(bits)
    if all(b == bits[0] for b in bits):
        return bits[0]
    start = next(i for i in range(n) if bits[i] != bits[i - 1])
    rotated = [bits[(start + i) % n] for i in range(n)]
    runs = []
    i = 0
    while i < n:
        j = i
        while j < n and rotated[j] == rotated[i]:
            j += 1
        runs.append((rotated[i], j - i))
        i = j

    best_one = max((l for v, l in runs if v == 1), default=0)
    best_neg = max((l for v, l in runs if v == -1), default=0)
    if best_one != best_neg:
        return 1 if best_one > best_neg else -1
    best = best_one
    count_one = sum(1 for v, l in runs if v == 1 and l == best)
    count_neg = sum(1 for v, l in runs if v == -1 and l == best)
    if count_one != count_neg:
        return 1 if count_one > count_neg else -1

    max_positions = [k for k, (v, l) in enumerate(runs) if l == best]
    totals = {1: 0, -1: 0}
    m = len(max_positions)
    for a in range(m):
        here = max_positions[a]
        there = max_positions[(a + 1) % m]
        owner = runs[here][0]
        k = (here + 1) % len(runs)
        while k != there:
            totals[owner] += runs[k][1]
            k = (k + 1) % len(runs)
    if totals[1] != totals[-1]:
        return 1 if totals[1] > totals[-1] else -1
    return 1 if sum(bits) > 0 else -1


def bits_of(idx, n):
    return [-1 if (idx >> j) & 1 else 1 for j in range(n)]


def test_cyclerun_definition_examples():
    f = cyclerun(3)
    # x = (1, 1, -1): longest 1-run is 2
    assert f(0b100) == 1
    # x = (1, -1, 1): the 1-run wraps around to length 2
    assert f(0b010) == 1
    # mirrored for the -1 player
    assert f(0b011) == -1


def test_cyclerun_matches_reference_exhaustively():
    for n in (3, 5, 7, 9, 11, 13):
        f = cyclerun(n)
        for idx in range(1 << n):
            assert f(idx) == cyclerun_reference(bits_of(idx, n)), (n, idx)


def longest_run_reference(point, n):
    """Longest cyclic run of set bits, read off the point written out twice."""
    bits = [(point >> j) & 1 for j in range(n)]
    if all(bits):
        return n
    best = run = 0
    for bit in bits + bits:
        run = run + 1 if bit else 0
        best = max(best, run)
    return best


@pytest.mark.parametrize("n", [21, 23, 25])
def test_longest_run_matches_cyclic_oracle(n):
    rng = np.random.default_rng(n)
    mask = (1 << n) - 1
    wrap = (0b111 << (n - 3)) | 0b11  # one run of 5 across the seam
    half = rng.integers(0, 1 << n, size=300)  # bits set with probability 1/2
    dense = half | rng.integers(0, 1 << n, size=300) | rng.integers(0, 1 << n, size=300)
    points = np.concatenate([half, dense, [0, mask, wrap]])
    runs = zoo._longest_runs(n)
    assert runs.dtype == np.int8 and runs.shape == (1 << n,)
    got = runs[points]
    assert [int(v) for v in got] == [longest_run_reference(int(p), n) for p in points]
    assert got[-3:].tolist() == [0, n, 5]


def shift_loop_cyclerun_table(n):
    """CycleRun's table and the number of points left tied after stage 3
    (settled by majority here), by n - 1 shifted passes over the cube.

    Stage 1 finds each point's longest cyclic run by ANDing it with its
    rotations; the tied points go through stages 2 and 3 one run length
    at a time.
    """
    mask = (1 << n) - 1

    def rol(v, k):
        return ((v << k) | (v >> (n - k))) & mask if k else v

    def ror(v, k):
        return ((v >> k) | (v << (n - k))) & mask if k else v

    def run_starts(v, run_len):
        y = v.copy()
        for t in range(1, run_len):
            y = y & ror(v, t)
        return y & ~rol(v, 1)

    neg_bits = np.arange(1 << n, dtype=np.uint32)
    pos_bits = neg_bits[::-1]
    len_neg = (neg_bits != 0).astype(np.int8)
    y = neg_bits.copy()
    for k in range(1, n):
        y &= ror(neg_bits, k)
        len_neg += y != 0
    len_pos = len_neg[::-1]
    table = np.zeros(1 << n, dtype=np.int8)
    table[len_pos > len_neg] = 1
    table[len_neg > len_pos] = -1

    fallbacks = 0
    tied = np.nonzero(table == 0)[0]
    for run_len in np.unique(len_pos[tied]):
        run_len = int(run_len)
        group = tied[len_pos[tied] == run_len]
        starts_p = run_starts(pos_bits[group], run_len)
        starts_n = run_starts(neg_bits[group], run_len)
        verdict = np.sign(
            np.bitwise_count(starts_p).astype(np.int64) - np.bitwise_count(starts_n)
        ).astype(np.int8)
        still = np.nonzero(verdict == 0)[0]
        if len(still):
            sp, sn = starts_p[still], starts_n[still]
            cover = sp | sn
            for t in range(1, run_len):
                cover |= rol(sp | sn, t)
            open_pos = ~cover & mask
            seed_p = rol(sp, run_len) & open_pos
            seed_n = rol(sn, run_len) & open_pos
            for _ in range(n):
                grown_p = seed_p | (rol(seed_p, 1) & open_pos)
                grown_n = seed_n | (rol(seed_n, 1) & open_pos)
                if np.array_equal(grown_p, seed_p) and np.array_equal(grown_n, seed_n):
                    break
                seed_p, seed_n = grown_p, grown_n
            stage3 = np.sign(
                np.bitwise_count(seed_p).astype(np.int64) - np.bitwise_count(seed_n)
            ).astype(np.int8)
            residual = stage3 == 0
            if residual.any():
                fallbacks += int(residual.sum())
                pc = np.bitwise_count(group[still[residual]].astype(np.uint64))
                stage3[residual] = np.where(pc < n / 2, 1, -1)
            verdict[still] = stage3
        table[group] = verdict
    return table, fallbacks


@pytest.mark.parametrize("n", range(3, 22, 2))
def test_cyclerun_table_matches_shift_loop_pipeline(n):
    table = cyclerun_table(n)
    expected, residual_ties = shift_loop_cyclerun_table(n)
    assert table.dtype == np.int8
    assert np.array_equal(table, expected)
    assert residual_ties == 0


def test_cyclerun_table_matches_reference_at_11():
    table = cyclerun_table(11)
    assert table.dtype == np.int8
    for idx in range(1 << 11):
        assert table[idx] == cyclerun_reference(bits_of(idx, 11)), idx


def test_cyclerun_table_matches_reference_on_sampled_points_at_19():
    table = cyclerun_table(19)
    assert table.dtype == np.int8
    for idx in np.random.default_rng(19).integers(0, 1 << 19, size=2000):
        assert table[idx] == cyclerun_reference(bits_of(int(idx), 19)), idx


def test_cyclerun_table_matches_reference_on_sampled_points_at_23():
    table = cyclerun_table(23)
    assert table.dtype == np.int8
    for idx in np.random.default_rng(23).integers(0, 1 << 23, size=2000):
        assert table[idx] == cyclerun_reference(bits_of(int(idx), 23)), idx


@pytest.mark.parametrize("n", [7, 11, 15])
def test_cyclerun_ties_run_only_on_the_low_half(monkeypatch, n):
    # stages 2 and 3 see each stage-1 tie below 2^(n-1) once, as the
    # +1 player's points (mask - i) and then the -1 player's (i)
    calls = []
    run_starts = zoo._run_starts

    def recording(v, run_len, n):
        calls.append(v.copy())
        return run_starts(v, run_len, n)

    monkeypatch.setattr(zoo, "_run_starts", recording)
    cyclerun_table(n)
    mask = (1 << n) - 1
    assert calls and len(calls) % 2 == 0
    pos, neg = calls[0::2], calls[1::2]
    for vp, vn in zip(pos, neg):
        assert np.all(vn < 1 << (n - 1))
        assert np.array_equal(vp, mask - vn)
    seen = np.concatenate(neg).astype(np.int64)
    runs = zoo._longest_runs(n)
    low_ties = np.flatnonzero(runs[: 1 << (n - 1)] == runs[::-1][: 1 << (n - 1)])
    assert np.array_equal(np.sort(seen), low_ties)


def test_cyclerun_table_peak_memory_at_21():
    cyclerun_table(9)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        cyclerun_table(21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int8 run table and the int8 output, with the tie stages' arrays
    # over the low half's ties only
    assert peak <= 6.5 * (1 << 21)


def test_cyclerun_cap_fits_uint32_points():
    # points and their rotations are uint32; the cap must stay below 32 bits
    assert zoo.CYCLERUN_MAX_DIM < 32
    with pytest.raises(ValueError):
        cyclerun_table(zoo.CYCLERUN_MAX_DIM + 2)


def test_cyclerun_rejects_even_n():
    with pytest.raises(ValueError):
        cyclerun(6)


def test_cyclerun_is_odd():
    for n in (3, 5, 7):
        f = cyclerun(n)
        full = (1 << n) - 1
        idx = np.arange(1 << n)
        assert np.array_equal(f.table[idx ^ full], -f.table)


def test_cyclerun_is_monotone():
    for n in (3, 5, 7, 9, 11):
        f = cyclerun(n)
        idx = np.arange(1 << n)
        for j in range(n):
            bit = 1 << j
            upper = f.table[idx & ~bit]  # coordinate j+1 set to +1
            lower = f.table[idx | bit]   # coordinate j+1 set to -1
            assert np.all(lower <= upper)


def test_cyclerun_is_shift_invariant():
    for n in (3, 5, 7, 9):
        f = cyclerun(n)
        idx = np.arange(1 << n)
        rotated = ((idx >> 1) | ((idx & 1) << (n - 1))) & ((1 << n) - 1)
        assert np.array_equal(f.table[rotated], f.table)


def test_cyclerun_total_no_fallback():
    # stage 3 decides every point: a residual tie would raise
    for n in (3, 5, 7, 9, 11, 13):
        assert np.all(cyclerun_table(n) != 0)


def test_cyclerun_raises_on_a_residual_tie(monkeypatch):
    # with no run starts found, stages 2 and 3 tie on every point they see
    monkeypatch.setattr(zoo, "_run_starts", lambda v, run_len, n: np.zeros_like(v))
    with pytest.raises(RuntimeError, match="cyclerun left 14 points tied after stage 3 at n=7"):
        cyclerun_table(7)


def test_cyclerun_balanced():
    for n in (3, 5, 7, 9):
        f = cyclerun(n)
        assert int(f.table.astype(np.int64).sum()) == 0


# ---------------------------------------------------------------------------
# majority / parity / dictator / random
# ---------------------------------------------------------------------------

def test_majority3_spectrum():
    spec = wht(majority(3))
    assert spec[0b001] == pytest.approx(0.5)
    assert spec[0b111] == pytest.approx(-0.5)


def test_monotone_zoo_singleton_coefficients_equal_influences():
    # for monotone Boolean f, coef({i}) equals the influence of coordinate i
    for f in (majority(5), tribes(2, 3), tribes(3, 2), cyclerun(5), cyclerun(9)):
        spec = wht(f)
        stats = spectral_stats(f, 1)
        for j in range(1, f.n + 1):
            assert spec[1 << (j - 1)] == pytest.approx(
                stats.per_coordinate_influence[j - 1], abs=1e-10
            )


def test_majority_rejects_even():
    with pytest.raises(ValueError):
        majority(4)


def test_parity_resilience():
    f = parity(0b011, 3)
    assert is_d_resilient(f, 1).resilient
    assert not is_d_resilient(f, 2).resilient


def test_dictator_spectrum():
    spec = wht(dictator(2, 3))
    assert spec[0b010] == pytest.approx(1.0)


def test_constant_and_random():
    c = constant(3, -1)
    assert np.all(c.table == -1)
    f1 = random_boolean(6, seed=12)
    f2 = random_boolean(6, seed=12)
    assert np.array_equal(f1.table, f2.table)
    g = random_boolean(6, seed=1, balanced=True)
    assert int(g.table.astype(np.int64).sum()) == 0


# ---------------------------------------------------------------------------
# threshold functions
# ---------------------------------------------------------------------------

def test_ft_above_all_levels_is_zero():
    f = threshold_ft(4.0, 9)  # 4 sqrt(9) = 12 > 9
    assert np.all(f.level_values == 0.0)
    stats = ft_stats(4.0, 9)
    assert stats.influence_sum == 0.0
    assert stats.support_prob == 0.0


@pytest.mark.parametrize("t", [math.inf, 1e308])
@pytest.mark.parametrize("n", [9, 100])  # the rational path and the log-space path
def test_ft_infinite_threshold_is_zero(n, t):
    stats = ft_stats(t, n)
    assert (stats.influence_sum, stats.support_prob) == (0.0, 0.0)
    assert np.all(threshold_ft(t, n).level_values == 0.0)


@pytest.mark.parametrize("n", [-3, -1, zoo.FT_MAX_N + 1])
def test_ft_rejects_n_outside_its_range(n):
    for fn in (ft_stats, threshold_ft):
        with pytest.raises(ValueError, match=f"n={n} outside"):
            fn(1.0, n)


def test_ft_zero_threshold_support():
    stats = ft_stats(0.0, 9)
    assert stats.support_prob == pytest.approx(1.0)  # odd n: sum never 0
    stats_even = ft_stats(0.0, 10)
    center = Fraction(math.comb(10, 5), 1 << 10)
    assert stats_even.support_prob == pytest.approx(float(1 - center))


def test_ft_brute_force_agreement_n12():
    for t in (0.5, 1.0, 2.0):
        f = threshold_ft(t, 12).to_bounded()
        pc = popcounts(12)
        sums = 12 - 2 * pc
        infl_bf = float(np.mean(f.table * sums))
        supp_bf = float(np.mean(f.table != 0.0))
        stats = ft_stats(t, 12)
        assert stats.influence_sum == pytest.approx(infl_bf, abs=1e-9)
        assert stats.support_prob == pytest.approx(supp_bf, abs=1e-9)


def test_ft_symmetric_and_odd():
    f = threshold_ft(1.0, 11)
    vals = f.level_values
    assert np.array_equal(vals, -vals[::-1])
    assert np.all(np.diff(vals) >= 0)  # monotone in the level


# n <= 64 takes the rational path, which is exact; at n = 400 and n >= 2500
# the cases sit on the level cutoff, where tau + n rounds up in floats
@pytest.mark.parametrize("n, t", [
    (9, 1.0), (12, 0.5), (64, 0.25), (64, 1.0),
    (200, 1.5), (2500, 1.16), (10**4, 0.58), (10**4, 1.16), (10**4, 2.32),
    (400, 0.9999999999999999),
])
def test_ft_log_space_matches_exact_bigint(n, t):
    stats, exact = ft_stats(t, n), ft_stats_exact(t, n)
    if n <= zoo.FT_EXACT_MAX:
        assert stats == exact
        return
    assert (stats.n, stats.t) == (n, t)
    assert stats.influence_sum == pytest.approx(exact.influence_sum, rel=1e-10)
    assert stats.support_prob == pytest.approx(exact.support_prob, rel=1e-10)


def test_ft_sandwich_standard_normalization_large_n():
    for t in (0.5, 1.0, 2.0, 3.0):
        row = ft_sandwich(ft_stats(t, 1000), printed=False, factor=4.0)
        assert row.influence_pass, (t, row)
        assert row.support_pass, (t, row)


@pytest.mark.parametrize("printed", [False, True])
def test_ft_sandwich_fails_on_vacuous_bounds(printed):
    # phi(t) underflows to 0 at t = 40, so both sandwiches shrink to [0, 0];
    # f_t is 0 there too, but a zero lower bound certifies nothing
    stats = ft_stats(40.0, 100)
    row = ft_sandwich(stats, printed=printed, factor=4.0)
    assert row.phi == 0.0
    assert (row.influence_low, row.influence_high) == (0.0, 0.0)
    assert (row.support_low, row.support_high) == (0.0, 0.0)
    assert (stats.influence_sum, stats.support_prob) == (0.0, 0.0)
    assert row.influence_pass is False
    assert row.support_pass is False


@pytest.mark.parametrize("printed", [False, True])
def test_ft_sandwich_fails_on_an_infinite_upper_bound(printed):
    # at factor 1e308 the influence bound overflows, the support bound does not
    stats = ft_stats(1.0, 1000)
    row = ft_sandwich(stats, printed=printed, factor=1e308)
    assert row.influence_high == math.inf
    assert row.influence_low <= stats.influence_sum
    assert row.influence_pass is False
    assert math.isfinite(row.support_high)
    assert row.support_pass is True


def test_gaussian_density_normalizations():
    assert gaussian_density(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert gaussian_density(0.0, printed=True) == pytest.approx(1 / (2 * math.pi))


def test_symmetric_function_validation():
    with pytest.raises(ValueError):
        SymmetricFunction(3, np.array([0.0, 2.0, 0.0, 0.0]))
