import dataclasses
import json
import math

import numpy as np
import pytest

from boolres import builder
from boolres.builder import (
    BuilderReport,
    IterationRecord,
    audit_invariants,
    build_one_resilient,
    shift_orbit,
)
from boolres.hypercube import BooleanFunction, correlation, is_d_resilient, wht_int
from boolres.zoo import cyclerun


def test_all_ones_orbit():
    orbit = shift_orbit(0, 5)  # index 0 is the all-(+1) point
    assert orbit.members == frozenset({0, 0b11111})
    assert orbit.size == 2
    assert orbit.weight == 5


def test_coprime_weight_orbit_size():
    # Hamming weight 2 is coprime to 5 -> orbit size 2n
    orbit = shift_orbit(0b00011, 5)
    assert orbit.size == 10


def test_periodic_point_orbit_size():
    # period-3 pattern on n=9: 001 repeated; 3 shifts x 2 signs = 6 members
    x = 0b001001001
    orbit = shift_orbit(x, 9)
    assert orbit.size == 6


def test_orbits_partition_small():
    n = 5
    seen = {}
    for x in range(1 << n):
        orbit = shift_orbit(x, n)
        key = min(orbit.members)
        if key in seen:
            assert seen[key] == orbit.members
        else:
            seen[key] = orbit.members
    assert sum(len(m) for m in seen.values()) == 1 << n
    for members in seen.values():
        assert len(members) % 2 == 0
        assert (2 * n) % len(members) == 0


def test_cyclerun_half_positive_on_each_orbit():
    n = 7
    f = cyclerun(n)
    reps = set()
    for x in range(1 << n):
        orbit = shift_orbit(x, n)
        key = min(orbit.members)
        if key in reps:
            continue
        reps.add(key)
        values = [f(int(y)) for y in orbit.members]
        assert sum(values) == 0


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
        assert check.resilient and check.exact
        base = cyclerun(n)
        corr = correlation(report.output, base)
        assert corr == pytest.approx(1.0 - 2.0 * report.distance, abs=1e-12)
        assert report.budget_ratio <= report.c1


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
    for rec in report.iterations:
        if rec.index == target:
            rec = dataclasses.replace(rec, sigma_after=rec.sigma_after - 4)
        broken.append(rec)
    bad = BuilderReport(
        **{
            **{f.name: getattr(report, f.name) for f in dataclasses.fields(report)},
            "iterations": tuple(broken),
        }
    )
    result = audit_invariants(bad)
    assert not result.ok
    assert result.failed_iteration == target


def test_audit_detects_wrong_orbit():
    report = build_one_resilient(7)
    recs = list(report.iterations)
    # claim a different flip point for the first heavy iteration
    first = recs[0]
    recs[0] = IterationRecord(
        index=0,
        branch=first.branch,
        point=0b0000011,
        weight=first.weight,
        orbit_size=first.orbit_size,
        sigma_before=first.sigma_before,
        sigma_after=first.sigma_after,
    )
    bad = BuilderReport(
        **{
            **{f.name: getattr(report, f.name) for f in dataclasses.fields(report)},
            "iterations": tuple(recs),
        }
    )
    result = audit_invariants(bad)
    assert not result.ok


def test_report_json_round_trips():
    report = build_one_resilient(5)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["n"] == 5
    assert payload["sigma_final"] == 0
    assert len(payload["iterations"]) == len(report.iterations)
    assert payload["distance"] == report.distance


def test_report_dict_is_its_json_payload():
    # the CLI emits to_dict() directly, so it must hold JSON values only
    report = build_one_resilient(9)
    payload = report.to_dict()
    assert json.loads(json.dumps(payload)) == payload

    def leaf_types(value):
        if isinstance(value, dict):
            return set().union(*map(leaf_types, value.values()))
        if isinstance(value, list):
            return set().union(set(), *map(leaf_types, value))
        return {type(value)}

    assert leaf_types(payload) <= {int, float, str}


def test_report_iteration_dicts_match_asdict():
    # asdict is the oracle only: to_dict copies the flat records directly
    report = build_one_resilient(11)
    payload = report.to_dict()
    assert payload["iterations"] == [dataclasses.asdict(rec) for rec in report.iterations]
    assert [list(entry) for entry in payload["iterations"]] == [
        [field.name for field in dataclasses.fields(IterationRecord)]
    ] * len(report.iterations)


def test_budget_ratio_definition():
    report = build_one_resilient(9)
    expected = report.distance / math.sqrt(math.log2(9) / 9)
    assert report.budget_ratio == pytest.approx(expected)


def test_audit_detects_drifted_incremental_sums(monkeypatch):
    # corrupt the incremental update once, at iteration 0; the full recheck
    # there goes through low_degree_sums, a different arithmetic route
    report = build_one_resilient(7)
    real = builder.coordinate_signs
    calls = []

    def corrupt_first(points, n):
        calls.append(len(points))
        signs = real(points, n)
        return -signs if len(calls) == 1 else signs

    monkeypatch.setattr(builder, "coordinate_signs", corrupt_first)
    result = audit_invariants(report)
    assert result.ok is False
    assert result.failed_iteration == 0
    assert result.detail == "incremental sums drifted"


@pytest.mark.parametrize("mask_index,detail", [(0, "not balanced"), (3, "not exactly 1-resilient")])
def test_output_check_reads_balance_and_level_one_off_one_call(monkeypatch, mask_index, detail):
    real = builder.low_degree_sums

    def shifted(table, d, dtype):
        masks, sums = real(table, d, dtype)
        sums[mask_index] += 2
        return masks, sums

    monkeypatch.setattr(builder, "low_degree_sums", shifted)
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
