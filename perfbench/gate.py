"""Output checks: a job passes only if it exited 0 and its artifact holds up.

`problems` returns the reasons an artifact fails, an empty list when it
passes.  The checks read only the JSON a job wrote; they share no code with
the program.
"""

from __future__ import annotations

import math

TOL = 1e-6
EXACT_WITNESS_MAX_DIM = 12


def _in_unit_box(values) -> bool:
    return all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in values)


def _resilience(job, out):
    errs = []
    if not _in_unit_box(out["witness_table"]):
        errs.append("witness_table leaves [-1, 1]")
    if len(out["witness_table"]) != 1 << job.n:
        errs.append("witness_table has the wrong length")
    if not -TOL <= out["alpha"] <= 1.0 + TOL:
        errs.append(f"alpha {out['alpha']} outside [0, 1]")
    return errs


def _duality(job, out):
    errs = _resilience(job, out)
    tol = float(out["config"].get("tol", TOL))
    if not out["gap"] <= tol:
        errs.append(f"gap {out['gap']} exceeds {tol}")
    if not abs(out["alpha"] + out["delta"] - 1.0) <= tol:
        errs.append(f"alpha + delta = {out['alpha'] + out['delta']}, not 1")
    return errs


def _l1approx(job, out):
    if not -TOL <= out["delta"] <= 2.0 + TOL:
        return [f"delta {out['delta']} outside [0, 2]"]
    return []


def _cyclerun_build(job, out):
    errs = []
    if out.get("audit_ok") is not True:
        errs.append("audit_ok is not true")
    if out.get("sigma_final") != 0:
        errs.append(f"sigma_final is {out.get('sigma_final')}")
    return errs


def _stats(job, out):
    if not -TOL <= out["low_weight"] <= 1.0 + TOL:
        return [f"low_weight {out['low_weight']} outside [0, 1]"]
    return []


def _witness(job, out):
    errs = []
    for entry in out.get("sweep", [out]):
        if not _in_unit_box(entry["p_table"]):
            errs.append(f"p_table at tau={entry['tau']} leaves [-1, 1]")
        if job.n <= EXACT_WITNESS_MAX_DIM and entry["exact_zero_certified"] is not True:
            errs.append(f"tau={entry['tau']} is not exact_zero_certified")
    return errs


def _amplify(job, out):
    if not out["dist_measured"] <= out["cor2_bound"] + out["ci_width"] + 1e-9:
        return [f"dist_measured {out['dist_measured']} exceeds "
                f"cor2_bound + ci_width = {out['cor2_bound'] + out['ci_width']}"]
    return []


def _design(job, out):
    if out["size"] != len(out["sets"]) or out["size"] < 1:
        return ["design size does not match its sets"]
    return []


def _ortho_family(job, out):
    if out["max_offdiagonal"] != 0.0:
        return [f"max_offdiagonal {out['max_offdiagonal']} is not 0"]
    return []


def _learn(job, out):
    errs = []
    if not 0.0 <= out["error"] <= 1.0:
        errs.append(f"error {out['error']} outside [0, 1]")
    table = out["hypothesis_table"]
    if len(table) != 1 << job.n or any(v not in (-1, 1) for v in table):
        errs.append("hypothesis_table is not a +-1 table of length 2^n")
    return errs


CHECKS = {
    "resilience": _resilience,
    "duality": _duality,
    "l1approx": _l1approx,
    "cyclerun-build": _cyclerun_build,
    "stats": _stats,
    "witness": _witness,
    "amplify": _amplify,
    "design": _design,
    "ortho-family": _ortho_family,
    "learn.exact": _learn,
    "learn.sampled": _learn,
}


def problems(job, exit_code: int, out: dict | None) -> list[str]:
    """Why the job failed; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if out is None:
        return ["no JSON artifact"]
    try:
        return CHECKS[job.cmd](job, out)
    except (KeyError, TypeError) as exc:
        return [f"artifact is missing or mistypes a field: {exc!r}"]
