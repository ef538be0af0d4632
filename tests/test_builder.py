import dataclasses
import itertools
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
    IterationRecord,
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
    wht_int,
)
from boolres.zoo import cyclerun, random_boolean
from reference import shift_orbit


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
            raise BudgetExhausted("budget")
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
        records.append(IterationRecord(
            branch=branch, point=chosen, weight=int(wt[chosen]),
            orbit_size=len(orbit), sigma_before=sigma, sigma_after=sigma - delta,
        ))
        sigma -= delta
    distance = sbar_size / size
    points = np.arange(size)
    return BuilderReport(
        output=BooleanFunction(n, table.astype(np.int8)),
        sigma_initial=sigma_initial, sigma_final=sigma,
        first_level_sums=tuple(int(table @ (1 - 2 * (points >> j & 1))) for j in range(n)),
        sbar_size=sbar_size,
        sbar_prime_size=sbar_prime_size, iterations=tuple(records), distance=distance,
        budget_ratio=distance / math.sqrt(math.log2(n) / n),
    )


@pytest.mark.parametrize("n", range(5, 20, 2))
def test_batched_build_matches_the_per_orbit_reference(n):
    report = build_one_resilient(n)
    expected = reference_build(n)
    # every field but the table, which is compared below
    assert dataclasses.replace(report, output=None) == dataclasses.replace(expected, output=None)
    assert report.first_level_sums == expected.first_level_sums == (0,) * n
    assert np.array_equal(report.output.table, expected.output.table)
    assert report.output.table.dtype == expected.output.table.dtype
    assert report.sbar_prime_size == expected.sbar_prime_size


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_orbit_walk_meets_each_candidate_orbit_at_its_first_point(n):
    # every level, the light one and the nonpositive ones included
    wt = n - 2 * popcounts(n)
    ones = np.flatnonzero(cyclerun(n).table == 1)
    seen, expected = set(), []
    for x in ones[np.lexsort((ones, -wt[ones]))].tolist():
        if x not in seen:
            orbit = shift_orbit(x, n)
            seen |= orbit
            expected.append((x, len(orbit) // 2, int(wt[x])))
    levels = builder._orbits_by_level(ones, popcounts(n)[ones], n)
    assert len(levels) == n + 1  # one walk per popcount, the first level first
    assert list(itertools.chain.from_iterable(levels)) == expected


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
    assert first.point == 0
    assert first.orbit_size == 2
    assert first.sigma_before - first.sigma_after == 4 * 7


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
    with pytest.raises(ValueError):
        build_one_resilient(3)
    for c1 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            build_one_resilient(7, c1=c1)


def test_audit_accepts_honest_run():
    for n in (5, 7, 9):
        report = build_one_resilient(n)
        result = audit_invariants(report)
        assert result.ok, result.detail


def test_audit_detects_corrupted_sigma():
    report = build_one_resilient(7)
    target = len(report.iterations) // 2
    broken = []
    for i, rec in enumerate(report.iterations):
        if i == target:
            rec = dataclasses.replace(rec, sigma_after=rec.sigma_after - 4)
        broken.append(rec)
    bad = dataclasses.replace(report, iterations=tuple(broken))
    result = audit_invariants(bad)
    assert not result.ok
    assert result.failed_iteration == target


@pytest.mark.parametrize("offset", [0, 1])
def test_audit_reports_a_tampered_record_by_its_position(offset):
    # at a checkpoint and just past it; records carry no index of their own
    report = build_one_resilient(15)
    target = 2 * builder.FULL_RECHECK_EVERY + offset
    assert target < len(report.iterations)
    recs = list(report.iterations)
    recs[target] = dataclasses.replace(recs[target], sigma_after=recs[target].sigma_after - 4)
    result = audit_invariants(dataclasses.replace(report, iterations=tuple(recs)))
    assert result.ok is False
    assert result.failed_iteration == target


def test_audit_detects_wrong_orbit():
    report = build_one_resilient(7)
    recs = list(report.iterations)
    # claim a different flip point for the first heavy iteration
    recs[0] = dataclasses.replace(recs[0], point=0b0000011)
    result = audit_invariants(dataclasses.replace(report, iterations=tuple(recs)))
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
    values += [value for rec in report.iterations for value in vars(rec).values()]
    assert {type(value) for value in values} <= {int, float, str}
    payload = _cyclerun_build_artifact(tmp_path, 9)
    assert payload["first_level_coefficients"] == list(report.first_level_sums)


def test_report_iteration_dicts_match_asdict(tmp_path):
    # asdict is the oracle only: the CLI copies the flat records directly,
    # each after its position
    report = build_one_resilient(11)
    payload = _cyclerun_build_artifact(tmp_path, 11)
    assert payload["iterations"] == [
        {"index": i, **dataclasses.asdict(rec)} for i, rec in enumerate(report.iterations)
    ]
    assert [list(entry) for entry in payload["iterations"]] == [
        ["index"] + [field.name for field in dataclasses.fields(IterationRecord)]
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
    recs = list(report.iterations)
    first = next(i for i, rec in enumerate(recs) if rec.orbit_size > 2)
    shifted = int(rotations(np.array([recs[first].point]), 9)[0, 1])
    assert shifted != recs[first].point
    recs[first + 1] = dataclasses.replace(recs[first + 1], point=shifted)
    result = audit_invariants(dataclasses.replace(report, iterations=tuple(recs)))
    assert result.ok is False
    assert result.failed_iteration == first + 1
    assert result.detail == f"orbit of point {shifted} overlaps an earlier orbit"


def test_audit_replays_the_table_at_every_checkpoint(monkeypatch):
    # every FULL_RECHECK_EVERY iterations and once at the end, the level-one
    # sums are recomputed from the replayed table, which holds exactly the
    # flips made so far
    report = build_one_resilient(15)
    assert len(report.iterations) > 2 * builder.FULL_RECHECK_EVERY
    real = builder.level_one_sums
    tables = []

    def recording(table):
        tables.append(np.array(table))
        return real(table)

    monkeypatch.setattr(builder, "level_one_sums", recording)
    assert audit_invariants(report).ok
    every = builder.FULL_RECHECK_EVERY
    checkpoints = list(range(0, len(report.iterations), every))
    assert len(tables) == 1 + len(checkpoints) + 1  # initial, checkpoints, final
    base = cyclerun(15).table
    points = np.array([rec.point for rec in report.iterations])
    for table, done in zip(tables[1:-1], checkpoints):
        members = orbit_members(points[:done + 1], 15)[0]
        assert np.array_equal(np.flatnonzero(table != base), np.sort(members))
    assert np.array_equal(tables[-1], report.output.table)


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
    recs = list(report.iterations)
    target = len(recs) // 2
    recs[target] = dataclasses.replace(recs[target], sigma_before=recs[target].sigma_before + 8 * 9)
    result = audit_invariants(dataclasses.replace(report, iterations=tuple(recs)))
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
