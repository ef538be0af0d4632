"""The benchmark's own tests: independent oracles and repeatability.

    python -m pytest perfbench -q

They run workload jobs at full size and take about a minute.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import gate
import jobs
import run
import spans

sys.path.insert(0, str(run.SRC))

import boolres.cli as cli  # noqa: E402
from boolres.zoo import cyclerun  # noqa: E402

ORACLE_TOL = 1e-6


def _run_job(job: jobs.Job, out: Path) -> dict:
    assert cli.main([*job.argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _chi_rows(n: int, d: int) -> np.ndarray:
    """chi_S(x) = (-1)^|S & x| for every mask S with |S| <= d, one row each."""
    x = np.arange(1 << n)
    masks = [s for s in range(1 << n) if bin(s).count("1") <= d]
    parity = np.array([[bin(s & int(v)).count("1") & 1 for v in x] for s in masks])
    return 1.0 - 2.0 * parity


def _highs_alpha(f: np.ndarray, n: int, d: int) -> float:
    """1 - max E[f g] over g in [-1, 1]^(2^n) with every chi_S, |S| <= d, orthogonal to g."""
    chi = _chi_rows(n, d)
    res = linprog(-f, A_eq=chi, b_eq=np.zeros(len(chi)), bounds=(-1, 1), method="highs")
    assert res.status == 0, res.message
    return 1.0 + res.fun / (1 << n)


def _highs_delta(f: np.ndarray, n: int, d: int) -> float:
    """min E|f - p| over degree-<=d p, as an LP in (coefficients, t >= |f - p|)."""
    phi = _chi_rows(n, d).T
    size, k = phi.shape
    eye = np.eye(size)
    a_ub = np.block([[-phi, -eye], [phi, -eye]])
    b_ub = np.concatenate([-f, f])
    cost = np.concatenate([np.zeros(k), np.ones(size)])
    bounds = [(None, None)] * k + [(0, None)] * size
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun / size


def test_certify_matches_highs(tmp_path):
    """alpha and delta of every certify job with n <= 10 agree with HiGHS."""
    checked = 0
    for job in jobs.workload_jobs("certify", 1, tmp_path):
        if job.cmd not in ("resilience", "duality", "l1approx") or job.n > 10:
            continue
        spec = job.argv[job.argv.index("--fn") + 1]
        d = int(job.argv[job.argv.index("--d") + 1])
        f = cli.parse_function_spec(spec).table.astype(np.float64)
        out = _run_job(job, tmp_path / "out.json")
        if "alpha" in out:
            assert abs(out["alpha"] - _highs_alpha(f, job.n, d)) <= ORACLE_TOL, job.argv
        if "delta" in out:
            assert abs(out["delta"] - _highs_delta(f, job.n, d)) <= ORACLE_TOL, job.argv
        checked += 1
    assert checked >= 8


def _orbit(x: int, n: int) -> set[int]:
    """x under cyclic coordinate shifts and global negation."""
    full = (1 << n) - 1
    members = set()
    for shift in range(n):
        v = ((x >> shift) | (x << (n - shift))) & full
        members.update((v, v ^ full))
    return members


def test_cyclerun_build_output_is_exactly_1_resilient(tmp_path):
    """Replay the logged flips on CycleRun and brute-force the degree-<=1 sums."""
    (job,) = [j for j in jobs.workload_jobs("construct", 1, tmp_path) if j.cmd == "cyclerun-build"]
    out = _run_job(job, tmp_path / "out.json")
    n = out["n"]
    table = cyclerun(n).table.astype(np.int64)
    flipped = set()
    for rec in out["iterations"]:
        orbit = _orbit(rec["point"], n)
        assert not orbit & flipped, "an orbit was flipped twice"
        flipped |= orbit
    table[np.fromiter(flipped, dtype=np.int64)] *= -1
    assert len(flipped) == out["sbar_size"]

    x = np.arange(1 << n)
    assert int(table.sum()) == 0
    for j in range(n):
        coordinate = 1 - 2 * ((x >> j) & 1)
        assert int(np.dot(table, coordinate)) == 0, f"coordinate {j + 1}"


def _traced_round(workload: str, seed: int, workdir: Path) -> dict[str, float]:
    workdir.mkdir()
    job_list = jobs.workload_jobs(workload, seed, workdir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run.run_round(run.Runner(cli, workdir), job_list, tracer)
    finally:
        tracer.uninstall()
    totals: dict[str, float] = {}
    for per_job in result["layers"]:
        for key, value in per_job.items():
            totals[key] = totals.get(key, 0.0) + value
    values = spans.layer_metrics(totals)
    values["cli.out_bytes"] = sum(result["out_bytes"])
    return values


@pytest.mark.parametrize("workload,counts", [
    ("certify", ("lp.pivots", "lp.solves", "cli.out_bytes")),
    ("construct", ("builder.iterations", "hypercube.fwht_ops", "cli.out_bytes")),
])
def test_counts_repeat_with_the_same_seed(tmp_path, workload, counts):
    first = _traced_round(workload, 5, tmp_path / "a")
    second = _traced_round(workload, 5, tmp_path / "b")
    for name in counts:
        assert first[name] > 0
        assert first[name] == second[name], name


def test_seed_picks_the_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    same = jobs.workload_jobs("certify", 1, tmp_path / "a")
    assert same == jobs.workload_jobs("certify", 1, tmp_path / "b")
    assert same != jobs.workload_jobs("certify", 2, tmp_path / "a")


@pytest.mark.parametrize("cmd,artifact", [
    ("duality", {"alpha": 0.5, "delta": 0.5, "gap": 1e-3, "witness_table": [1.0, -1.0],
                 "config": {"tol": 1e-6}}),
    ("duality", {"alpha": 0.5, "delta": 0.6, "gap": 0.0, "witness_table": [1.0, -1.0],
                 "config": {"tol": 1e-6}}),
    ("resilience", {"alpha": 0.5, "witness_table": [1.5, -1.0]}),
    ("cyclerun-build", {"audit_ok": False, "sigma_final": 0}),
    ("cyclerun-build", {"audit_ok": True, "sigma_final": 76}),
    ("witness", {"sweep": [{"tau": 0.1, "p_table": [0.5, -0.5], "exact_zero_certified": False}]}),
    ("amplify", {"dist_measured": 0.3, "cor2_bound": 0.2, "ci_width": 0.05}),
    ("learn.exact", {"error": 0.1, "hypothesis_table": [1, 0]}),
])
def test_gate_rejects_bad_artifacts(cmd, artifact):
    job = jobs.Job(cmd, (), 1)
    assert gate.problems(job, 0, artifact)
    assert gate.problems(job, 1, None) == ["exit code 1"]


def test_noisy_targets_read_back_bounded(tmp_path):
    path = tmp_path / "noisy.tt"
    jobs._write_noisy_target(path, 6, random.Random(0))
    fn = cli.parse_function_spec(f"file:path={path}")
    assert type(fn).__name__ == "BoundedFunction"
    assert np.all(np.abs(fn.table) < 1.0)
