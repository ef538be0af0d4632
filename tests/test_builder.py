import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from boolres import builder, cli
from boolres.builder import (
    BudgetExhausted,
    BuilderError,
    BuilderReport,
    NoWeightOnePoint,
    audit_invariants,
    build_one_resilient,
)
from boolres.hypercube import (
    BooleanFunction,
    correlation,
    is_d_resilient,
    low_degree_sums,
    orbit_members,
    popcounts,
    rotations,
    sign_words,
    wht_int,
)
from boolres.zoo import cyclerun, random_boolean
from reference import shift_orbit


RECORD_FIELDS = [
    ("branch", "U8"), ("point", np.int64), ("weight", np.int64),
    ("orbit_size", np.int64), ("sigma_before", np.int64), ("sigma_after", np.int64),
]


def reference_build(n: int, c1: float = 8.0) -> BuilderReport:
    """The greedy repair one orbit at a time: the oracle for the batched build."""
    base = cyclerun(n)
    size = 1 << n
    wt = n - 2 * np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.int64)
    table = base.table.astype(np.int64).copy()
    sigma = sigma_initial = int(np.dot(table, wt))
    budget = c1 * math.sqrt(math.log2(n) / n) * size

    ones = np.nonzero(table == 1)[0]
    order = ones[np.lexsort((ones, -wt[ones]))]
    light_pool = order[wt[order] == 1]
    flipped = np.zeros(size, dtype=bool)
    records = []
    sbar_size = sbar_prime_size = cursor = light_cursor = 0
    while sigma != 0:
        if sbar_size > budget:
            raise BudgetExhausted(
                f"|Sbar| = {sbar_size} exceeded budget {budget:.1f} with sigma {sigma}"
            )
        while cursor < len(order) and flipped[order[cursor]]:
            cursor += 1
        if cursor >= len(order):
            raise BuilderError("no unflipped CycleRun=1 candidates remain")
        x = int(order[cursor])
        if wt[x] <= 0:
            raise BuilderError("best remaining candidate has nonpositive weight")
        orbit = shift_orbit(x, n)
        decrement = 2 * len(orbit) * int(wt[x])
        if sigma - decrement < 0:
            while light_cursor < len(light_pool) and flipped[light_pool[light_cursor]]:
                light_cursor += 1
            if light_cursor >= len(light_pool):
                raise NoWeightOnePoint("no weight-one point")
            star = int(light_pool[light_cursor])
            orbit = shift_orbit(star, n)
            assert len(orbit) == 2 * n
            branch, chosen, delta = "light", star, 4 * n
            sbar_prime_size += len(orbit)
        elif sigma - decrement > 0:
            branch, chosen, delta = "heavy", x, decrement
        else:
            branch, chosen, delta = "boundary", x, decrement
        members = np.fromiter(orbit, dtype=np.int64)
        assert not flipped[members].any()
        flipped[members] = True
        table[members] *= -1
        sbar_size += len(orbit)
        records.append((branch, chosen, int(wt[chosen]), len(orbit), sigma, sigma - delta))
        sigma -= delta
    distance = sbar_size / size
    points = np.arange(size)
    return BuilderReport(
        output=BooleanFunction(n, table.astype(np.int8)),
        sigma_initial=sigma_initial, sigma_final=sigma,
        first_level_sums=tuple(int(table @ (1 - 2 * (points >> j & 1))) for j in range(n)),
        sbar_size=sbar_size,
        sbar_prime_size=sbar_prime_size, iterations=np.array(records, dtype=RECORD_FIELDS),
        distance=distance,
        budget_ratio=distance / math.sqrt(math.log2(n) / n),
    )


def _scalar_fields(report):
    return {
        field.name: getattr(report, field.name)
        for field in dataclasses.fields(report)
        if field.name not in ("output", "iterations")
    }


@pytest.mark.parametrize("n", range(5, 20, 2))
def test_batched_build_matches_the_per_orbit_reference(n):
    report = build_one_resilient(n)
    expected = reference_build(n)
    # every field but the table and the records, which are compared below
    assert _scalar_fields(report) == _scalar_fields(expected)
    assert report.iterations.dtype == expected.iterations.dtype
    assert report.iterations.tolist() == expected.iterations.tolist()
    assert not report.iterations.flags.writeable
    assert report.first_level_sums == expected.first_level_sums == (0,) * n
    assert np.array_equal(report.output.table, expected.output.table)
    assert report.output.table.dtype == expected.output.table.dtype
    assert report.sbar_prime_size == expected.sbar_prime_size


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_orbit_walk_meets_each_candidate_orbit_at_its_first_point(n):
    # every level, the light one and the nonpositive ones included
    pc = popcounts(n)
    ones = np.flatnonzero(cyclerun(n).table == 1)
    for level in range(n + 1):
        points = ones[pc[ones] == level]
        seen, expected = set(), []
        for x in points.tolist():
            if x not in seen:
                seen |= shift_orbit(x, n)
                expected.append(x)
        assert builder._least_shifts(points, n).tolist() == expected
        for count in range(len(expected) + 2):
            assert builder._first_least_shifts(points, count, n).tolist() == expected[:count]


def test_cyclerun_half_positive_on_each_orbit():
    n = 7
    f = cyclerun(n)
    members, sizes = orbit_members(np.arange(1 << n), n)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for x in range(1 << n):
        assert f.table[members[offsets[x]:offsets[x + 1]]].sum() == 0


def test_sigma_initialization_multiple_of_4n():
    for n in (5, 7, 9, 11, 13):
        f = cyclerun(n)
        pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
        wt = n - 2 * pc
        sigma0 = int(np.dot(f.table.astype(np.int64), wt))
        assert sigma0 >= 0
        assert sigma0 % (4 * n) == 0


def test_builder_first_iteration_is_all_ones_orbit():
    report = build_one_resilient(7)
    first = report.iterations[0]
    assert first["point"] == 0
    assert first["orbit_size"] == 2
    assert first["sigma_before"] - first["sigma_after"] == 4 * 7


def test_builder_n5_output_certified():
    report = build_one_resilient(5, c1=8.0)
    f = report.output
    ints = wht_int(f)
    assert ints[0] == 0  # balanced, exactly
    for j in range(5):
        assert ints[1 << j] == 0
    assert is_d_resilient(f, 1).resilient
    assert report.sigma_final == 0
    assert report.distance == report.sbar_size / 32


def test_builder_outputs_for_range():
    for n in (5, 7, 9, 11):
        report = build_one_resilient(n)
        assert report.sigma_final == 0
        check = is_d_resilient(report.output, 1)
        assert check.resilient
        assert low_degree_sums(report.output.table, 1)[1].dtype == np.int64  # exact int64 sums
        base = cyclerun(n)
        corr = correlation(report.output, base)
        assert corr == pytest.approx(1.0 - 2.0 * report.distance, abs=1e-12)
        assert report.budget_ratio <= 8.0  # the default c1


def test_builder_rejects_bad_params():
    with pytest.raises(ValueError):
        build_one_resilient(6)
    for n in (3, 27):
        with pytest.raises(ValueError, match=r"^builder needs odd n in \[5, 25\]$"):
            build_one_resilient(n)
    for c1 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            build_one_resilient(7, c1=c1)


def test_audit_accepts_honest_run():
    for n in (5, 7, 9, 23):
        report = build_one_resilient(n)
        result = audit_invariants(report)
        assert result.ok, result.detail


def _tampered(report, position, **values):
    """The report with these fields of the record at `position` replaced."""
    recs = report.iterations.copy()
    for name, value in values.items():
        recs[name][position] = value
    return dataclasses.replace(report, iterations=recs)


def test_audit_detects_corrupted_sigma():
    report = build_one_resilient(7)
    target = len(report.iterations) // 2
    bad = _tampered(report, target, sigma_after=report.iterations[target]["sigma_after"] - 4)
    result = audit_invariants(bad)
    assert not result.ok
    assert result.failed_iteration == target


@pytest.mark.parametrize("offset", [0, 1])
def test_audit_reports_a_tampered_record_by_its_position(offset):
    # at a checkpoint and just past it; records carry no index of their own
    report = build_one_resilient(15)
    target = 2 * builder.FULL_RECHECK_EVERY + offset
    assert target < len(report.iterations)
    sigma_after = report.iterations[target]["sigma_after"]
    result = audit_invariants(_tampered(report, target, sigma_after=sigma_after - 4))
    assert result.ok is False
    assert result.failed_iteration == target


def test_audit_detects_wrong_orbit():
    report = build_one_resilient(7)
    # claim a different flip point for the first heavy iteration
    result = audit_invariants(_tampered(report, 0, point=0b0000011))
    assert not result.ok


def _cyclerun_build_artifact(tmp_path, n):
    out = tmp_path / "build.json"
    assert cli.main(["cyclerun-build", "--n", str(n), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_report_json_round_trips(tmp_path):
    report = build_one_resilient(5)
    payload = _cyclerun_build_artifact(tmp_path, 5)
    assert payload["n"] == 5 and payload["c1"] == 8.0
    assert payload["sigma_final"] == 0
    assert len(payload["iterations"]) == len(report.iterations)
    assert payload["distance"] == report.distance


def test_report_dict_is_its_json_payload(tmp_path):
    # the CLI writes the report's values as they are, so each must be a
    # JSON value already: a plain int, float or str, never a numpy scalar
    report = build_one_resilient(9)
    values = [
        getattr(report, field.name)
        for field in dataclasses.fields(report)
        if field.name not in ("output", "first_level_sums", "iterations")
    ]
    values += list(report.first_level_sums)
    assert {type(value) for value in values} <= {int, float, str}
    # the records are int64 and str columns, written column by column
    dtype = report.iterations.dtype
    assert {dtype[name].kind for name in dtype.names} == {"i", "U"}
    payload = _cyclerun_build_artifact(tmp_path, 9)
    assert payload["first_level_coefficients"] == list(report.first_level_sums)


def test_report_iteration_dicts_match_the_record_rows(tmp_path):
    # the CLI writes each record's fields in order, after its position
    report = build_one_resilient(11)
    payload = _cyclerun_build_artifact(tmp_path, 11)
    names = report.iterations.dtype.names
    assert names == tuple(name for name, _ in RECORD_FIELDS)
    assert payload["iterations"] == [
        {"index": i, **dict(zip(names, row))} for i, row in enumerate(report.iterations.tolist())
    ]
    assert [list(entry) for entry in payload["iterations"]] == [
        ["index", *names]
    ] * len(report.iterations)


def test_budget_ratio_definition():
    report = build_one_resilient(9)
    expected = report.distance / math.sqrt(math.log2(9) / 9)
    assert report.budget_ratio == pytest.approx(expected)


def test_audit_detects_drifted_incremental_sums(monkeypatch):
    # corrupt the incremental update once, at iteration 0; the full recheck
    # there goes through level_one_sums, a different arithmetic route
    report = build_one_resilient(7)
    real = builder.characters
    calls = []

    def corrupt_first(masks, points):
        calls.append(masks)
        rows = real(masks, points)
        return -rows if len(calls) == 1 else rows

    monkeypatch.setattr(builder, "characters", corrupt_first)
    result = audit_invariants(report)
    assert result.ok is False
    assert result.failed_iteration == 0
    assert result.detail == "incremental sums drifted"


@pytest.mark.parametrize("n", [7, 9, 11, 13])
def test_level_one_deltas_match_a_loop_over_every_orbit_member_and_none(n):
    table = random_boolean(n, seed=n).table
    orbits, seen = [], set()
    for x in range(1 << n):
        if x not in seen:
            orbits.append(sorted(shift_orbit(x, n)))
            seen |= set(orbits[-1])
    members = np.array([y for orbit in orbits for y in orbit], dtype=np.int64)
    offsets = np.cumsum([0] + [len(orbit) for orbit in orbits])
    deltas = builder._level_one_deltas(table, members, offsets, n)
    assert deltas.shape == (len(orbits), n) and deltas.dtype == np.int64
    for i, orbit in enumerate(orbits):
        for j in range(n):
            want = -2 * sum(int(table[y]) * (1 - 2 * (y >> j & 1)) for y in orbit)
            assert deltas[i, j] == want
    assert builder._level_one_deltas(table, members[:0], offsets[:1], n).shape == (0, n)


@pytest.mark.parametrize("mask_index,detail", [(0, "not balanced"), (3, "not exactly 1-resilient")])
def test_output_check_reads_balance_and_level_one_off_one_call(monkeypatch, mask_index, detail):
    real = builder.level_one_sums

    def shifted(table):
        sums = real(table)
        sums[mask_index] += 2
        return sums

    monkeypatch.setattr(builder, "level_one_sums", shifted)
    with pytest.raises(builder.BuilderError, match=detail):
        build_one_resilient(7)


def test_audit_detects_a_changed_output_table():
    report = build_one_resilient(7)
    table = report.output.table.copy()
    table[3] = -table[3]
    bad = dataclasses.replace(report, output=BooleanFunction(7, table))
    result = audit_invariants(bad)
    assert result.ok is False
    assert result.failed_iteration == len(report.iterations) - 1
    assert result.detail == "replayed table differs"


def test_audit_detects_two_records_naming_one_orbit():
    report = build_one_resilient(9)
    recs = report.iterations
    first = int(np.flatnonzero(recs["orbit_size"] > 2)[0])
    shifted = int(rotations(recs["point"][first:first + 1], 9)[0, 1])
    assert shifted != recs[first]["point"]
    result = audit_invariants(_tampered(report, first + 1, point=shifted))
    assert result.ok is False
    assert result.failed_iteration == first + 1
    assert result.detail == f"orbit of point {shifted} overlaps an earlier orbit"


def _minus_one_points(words, n):
    """The points whose packed sign bit is set."""
    return np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little")[: 1 << n])


def test_audit_replays_the_table_at_every_checkpoint(monkeypatch):
    # every FULL_RECHECK_EVERY iterations and once at the end, the level-one
    # sums are recomputed from the packed replayed table, which holds
    # exactly the flips made so far
    report = build_one_resilient(15)
    assert len(report.iterations) > 2 * builder.FULL_RECHECK_EVERY
    real = builder.sign_sums
    tables = []

    def recording(words, n):
        tables.append(_minus_one_points(words, n))
        return real(words, n)

    monkeypatch.setattr(builder, "sign_sums", recording)
    assert audit_invariants(report).ok
    every = builder.FULL_RECHECK_EVERY
    checkpoints = list(range(0, len(report.iterations), every))
    assert len(tables) == 1 + len(checkpoints) + 1  # initial, checkpoints, final
    base = cyclerun(15).table
    assert np.array_equal(tables[0], np.flatnonzero(base == -1))
    points = report.iterations["point"]
    for table, done in zip(tables[1:-1], checkpoints):
        members = orbit_members(points[:done + 1], 15)[0]
        flipped = np.setxor1d(table, np.flatnonzero(base == -1))
        assert np.array_equal(flipped, np.sort(members))
    assert np.array_equal(tables[-1], np.flatnonzero(report.output.table == -1))


@pytest.mark.parametrize("checkpoint", [0, 1, 2])
def test_audit_fails_at_the_checkpoint_whose_replay_skips_a_member(monkeypatch, checkpoint):
    # the incremental sums count every member, so a flip the packed table
    # misses shows at the next full recheck
    report = build_one_resilient(15)
    real = builder.flip_sign_bits
    calls = []

    def skipping(words, points):
        calls.append(len(points))
        return real(words, points[1:] if len(calls) == checkpoint + 1 else points)

    monkeypatch.setattr(builder, "flip_sign_bits", skipping)
    result = audit_invariants(report)
    assert result.ok is False
    assert result.failed_iteration == checkpoint * builder.FULL_RECHECK_EVERY
    assert result.detail == "incremental sums drifted"
    assert len(calls) == checkpoint + 1


def test_audit_fails_when_the_last_replay_skips_a_member(monkeypatch):
    report = build_one_resilient(15)
    real = builder.flip_sign_bits
    calls = []

    def skipping_the_last(words, points):
        calls.append(len(points))
        last = len(calls) > len(range(0, len(report.iterations), builder.FULL_RECHECK_EVERY))
        return real(words, points[1:] if last else points)

    monkeypatch.setattr(builder, "flip_sign_bits", skipping_the_last)
    result = audit_invariants(report)
    assert (result.ok, result.failed_iteration) == (False, len(report.iterations) - 1)
    assert result.detail == "final sums drifted"


def test_budget_exhausted_as_the_per_orbit_reference_words_it():
    with pytest.raises(BudgetExhausted) as expected:
        reference_build(7, c1=0.01)
    with pytest.raises(BudgetExhausted) as raised:
        build_one_resilient(7, c1=0.01)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("|Sbar| = 2 exceeded budget")


@pytest.mark.parametrize("n", [5, 9, 13, 17, 19])
def test_budget_fires_at_the_reference_iteration(n):
    # a budget just under the |Sbar| some iteration starts with
    report = reference_build(n)
    sbar = np.concatenate([[0], np.cumsum(report.iterations["orbit_size"])])
    for stop in (1, len(report.iterations) // 2, len(report.iterations) - 1):
        c1 = (sbar[stop] - 0.5) / (math.sqrt(math.log2(n) / n) * (1 << n))
        with pytest.raises(BudgetExhausted) as expected:
            reference_build(n, c1=c1)
        with pytest.raises(BudgetExhausted) as raised:
            build_one_resilient(n, c1=c1)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("light_points,error", [
    ([], NoWeightOnePoint),
    ([0], BuilderError),  # period 1, not n
])
def test_light_branch_failures_fire_after_the_budget_test(monkeypatch, light_points, error):
    # at n = 19 the light branch takes two orbits after 2983 heavy ones
    n = 19
    report = build_one_resilient(n)
    heavy = int(np.count_nonzero(report.iterations["branch"] != "light"))
    light = np.array(light_points, dtype=np.int64)
    monkeypatch.setattr(builder, "_first_least_shifts", lambda points, count, n: light)
    with pytest.raises(error) as raised:
        build_one_resilient(n)
    assert type(raised.value) is error
    # a budget just under the |Sbar| of the failing iteration fires first
    sbar = int(report.iterations["orbit_size"][:heavy].sum())
    c1 = (sbar - 0.5) / (math.sqrt(math.log2(n) / n) * (1 << n))
    sigma = report.iterations["sigma_before"][heavy]
    expected = rf"^\|Sbar\| = {sbar} exceeded .* with sigma {sigma}$"
    with pytest.raises(BudgetExhausted, match=expected):
        build_one_resilient(n, c1=c1)


def test_int64_cumulative_sums_cannot_wrap():
    # the orbits are disjoint and an orbit's decrement 2 |O| |weight| is at
    # most 2n |O|, so every cumulative sum of decrements, like sigma, is at
    # most 2n 2^n: under 2^31 at the largest n
    assert 2 * 25 * (1 << 25) < 1 << 31
    for n in range(5, 22, 2):
        bound = 2 * n * (1 << n)
        # the decrements of every orbit, each counted once, add up to
        # 2 sum_x |n - 2|x||
        assert 2 * int(np.abs(n - 2 * popcounts(n)).sum()) <= bound
        report = build_one_resilient(n)
        decrements = report.iterations["sigma_before"] - report.iterations["sigma_after"]
        assert report.sigma_initial == int(decrements.sum()) <= bound


def test_build_and_audit_hold_no_members_by_n_matrix():
    # six int64 tables; a (members, n) int64 sign matrix at n = 19 alone
    # would take 113394 * 19 * 8 bytes, about 17 MB, plus its int64 bits
    n = 19
    bound = 6 * 8 * (1 << n)
    tracemalloc.start()
    try:
        report = build_one_resilient(n)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = audit_invariants(report)
        audit_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result.ok
    assert build_peak < bound
    assert audit_peak < bound


def test_audit_detects_a_decrement_that_does_not_match_the_orbit():
    report = build_one_resilient(9)
    target = len(report.iterations) // 2
    sigma_before = report.iterations[target]["sigma_before"]
    result = audit_invariants(_tampered(report, target, sigma_before=sigma_before + 8 * 9))
    assert result.ok is False
    assert result.failed_iteration == target
    assert result.detail == "sigma decrement does not match the orbit"


def test_build_counts_the_flipped_entries_against_sbar(monkeypatch):
    # two orbits sharing a point flip it once but count it twice
    real = builder.orbit_members

    def overlapping(points, n):
        members, sizes = real(points, n)
        members = members.copy()
        members[-1] = members[0]
        return members, sizes

    monkeypatch.setattr(builder, "orbit_members", overlapping)
    with pytest.raises(BuilderError, match="orbits overlap"):
        build_one_resilient(9)
