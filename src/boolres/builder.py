"""Greedy repair of CycleRun into an exactly 1-resilient Boolean function.

Flips whole shift orbits (closure under cyclic shifts and global negation)
from the top of the hypercube downward, driving the scaled sum of first-level
Fourier coefficients sigma = sum_x f(x) |x| to exactly zero.  All sigma and
coefficient arithmetic is in exact integers (2^n-scaled); the conclusion
demands exact zeros, not small floats.

Branch rules for one iteration, with x the highest-|x| unflipped point where
CycleRun(x) = 1 and D = 2 |Shift_x| |x|:

* sigma - D > 0: flip Shift_x, sigma -= D.
* sigma - D < 0: flip the shift orbit of an unflipped weight-one point
  instead (sigma -= 4n), recording it in the side set; exit when sigma = 0.
* sigma - D = 0: flip Shift_x and terminate with sigma = 0 (the unique
  choice reaching the required terminal state; neither strict branch covers
  the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypercube import BooleanFunction, coordinate_signs, low_degree_sums, popcounts
from .zoo import cyclerun


class BuilderError(RuntimeError):
    pass


class NoWeightOnePoint(BuilderError):
    """Step 3b found no unflipped weight-one point with CycleRun = 1."""


class BudgetExhausted(BuilderError):
    """The |Sbar| budget was hit while sigma was still positive."""


@dataclass(frozen=True)
class Orbit:
    representative: int
    members: frozenset[int]
    weight: int  # coordinate sum of the representative

    @property
    def size(self) -> int:
        return len(self.members)


def shift_orbit(x: int, n: int) -> Orbit:
    """Closure of a point under cyclic coordinate shifts and negation."""
    if n % 2 == 0:
        raise ValueError("shift orbits are used for odd n only")
    mask = (1 << n) - 1
    members = set()
    v = x
    for _ in range(n):
        members.add(v)
        members.add(v ^ mask)  # global negation = complement index
        v = ((v >> 1) | ((v & 1) << (n - 1))) & mask
    weight = n - 2 * int(x).bit_count()
    return Orbit(x, frozenset(members), weight)


@dataclass(frozen=True)
class IterationRecord:
    index: int
    branch: str  # "heavy" | "light" | "boundary"
    point: int
    weight: int
    orbit_size: int
    sigma_before: int
    sigma_after: int


@dataclass(frozen=True)
class BuilderReport:
    n: int
    c1: float
    output: BooleanFunction
    sigma_initial: int
    sigma_final: int
    sbar_size: int
    sbar_prime_size: int
    iterations: tuple[IterationRecord, ...]
    distance: float
    budget_ratio: float  # distance / sqrt(log2(n)/n)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "c1": self.c1,
            "sigma_initial": self.sigma_initial,
            "sigma_final": self.sigma_final,
            "sbar_size": self.sbar_size,
            "sbar_prime_size": self.sbar_prime_size,
            "distance": self.distance,
            "budget_ratio": self.budget_ratio,
            "iterations": [dict(vars(rec)) for rec in self.iterations],
        }


def build_one_resilient(n: int, c1: float = 8.0) -> BuilderReport:
    """Run the greedy orbit-flipping repair on CycleRun.

    Output is Boolean, balanced and exactly 1-resilient (integer-certified);
    raises NoWeightOnePoint or BudgetExhausted on the documented failure
    modes.
    """
    if n % 2 == 0 or not 5 <= n <= 21:
        raise ValueError("builder needs odd n in [5, 21]")
    if not (math.isfinite(c1) and c1 > 0):
        raise ValueError(f"budget constant c1 must be positive and finite, got {c1}")
    base = cyclerun(n)
    size = 1 << n
    wt = n - 2 * popcounts(n)  # coordinate sum of every point
    table = base.table.astype(np.int64).copy()

    sigma = int(np.dot(table, wt))
    sigma_initial = sigma
    if sigma < 0 or sigma % (4 * n) != 0:
        raise BuilderError(f"initial sigma {sigma} is not a nonnegative multiple of 4n")

    budget = c1 * math.sqrt(math.log2(n) / n) * size

    # candidates with CycleRun = 1, highest coordinate sum first, index ascending
    ones = np.nonzero(table == 1)[0]
    order = ones[np.lexsort((ones, -wt[ones]))]
    light_pool = order[wt[order] == 1]

    flipped = np.zeros(size, dtype=bool)
    records: list[IterationRecord] = []
    sbar_size = 0
    sbar_prime_size = 0
    cursor = 0
    light_cursor = 0

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
        decrement = 2 * orbit.size * orbit.weight

        if sigma - decrement < 0:
            while light_cursor < len(light_pool) and flipped[light_pool[light_cursor]]:
                light_cursor += 1
            if light_cursor >= len(light_pool):
                raise NoWeightOnePoint(f"no weight-one CycleRun=1 point left at n={n}")
            star = int(light_pool[light_cursor])
            orbit = shift_orbit(star, n)
            if 2 * orbit.size * orbit.weight != 4 * n:
                raise BuilderError("weight-one orbit does not have size 2n")
            branch, chosen, delta = "light", star, 4 * n
            sbar_prime_size += orbit.size
        elif sigma - decrement > 0:
            branch, chosen, delta = "heavy", x, decrement
        else:
            branch, chosen, delta = "boundary", x, decrement

        members = np.fromiter(orbit.members, dtype=np.int64)
        if flipped[members].any():
            raise BuilderError("orbit overlaps already-flipped points")
        flipped[members] = True
        table[members] *= -1
        sbar_size += orbit.size
        records.append(
            IterationRecord(
                index=len(records),
                branch=branch,
                point=chosen,
                weight=int(wt[chosen]),
                orbit_size=orbit.size,
                sigma_before=sigma,
                sigma_after=sigma - delta,
            )
        )
        sigma -= delta
        if sigma < 0 or sigma % (4 * n) != 0:
            raise BuilderError(f"sigma invariant broken at iteration {len(records) - 1}")

    output = BooleanFunction(n, table.astype(np.int8))
    _, sums = low_degree_sums(table, 1, np.int64)  # masks 0, then {1}, ..., {n}
    if sums[0] != 0:
        raise BuilderError("output is not balanced")
    if np.any(sums[1:] != 0):
        raise BuilderError("output is not exactly 1-resilient")

    distance = sbar_size / size
    return BuilderReport(
        n=n,
        c1=c1,
        output=output,
        sigma_initial=sigma_initial,
        sigma_final=sigma,
        sbar_size=sbar_size,
        sbar_prime_size=sbar_prime_size,
        iterations=tuple(records),
        distance=distance,
        budget_ratio=distance / math.sqrt(math.log2(n) / n),
    )


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    failed_iteration: int  # -1 when ok
    detail: str


FULL_RECHECK_EVERY = 50


def audit_invariants(report: BuilderReport) -> AuditResult:
    """Replay a build with independent exact arithmetic.

    Checks, after every iteration: all first-level coefficients equal, the
    logged sigma equals the recomputed sum of scaled first-level
    coefficients, and sigma is a nonnegative multiple of 4n.  Orbit
    increments are recomputed from actual member sums, with periodic and
    final full-table recomputations.
    """
    n = report.n
    table = cyclerun(n).table.astype(np.int64).copy()
    # the level-one sums sum_x f(x) x_j follow mask 0 in the kernel's order
    sums = low_degree_sums(table, 1, np.int64)[1][1:]

    for rec in report.iterations:
        orbit = shift_orbit(rec.point, n)
        members = np.fromiter(orbit.members, dtype=np.int64)
        sums -= 2 * (table[members] @ coordinate_signs(members, n))
        table[members] *= -1

        if rec.index % FULL_RECHECK_EVERY == 0:
            full = low_degree_sums(table, 1, np.int64)[1][1:]
            if np.any(full != sums):
                return AuditResult(False, rec.index, "incremental sums drifted")
        if np.any(sums != sums[0]):
            return AuditResult(False, rec.index, "first-level coefficients differ")
        if int(sums.sum()) != rec.sigma_after:
            return AuditResult(
                False,
                rec.index,
                f"logged sigma {rec.sigma_after} != recomputed {int(sums.sum())}",
            )
        if rec.sigma_after < 0 or rec.sigma_after % (4 * n) != 0:
            return AuditResult(False, rec.index, "sigma not a nonnegative multiple of 4n")
        if rec.sigma_before - rec.sigma_after not in (2 * orbit.size * orbit.weight, 4 * n):
            return AuditResult(False, rec.index, "sigma decrement does not match the orbit")

    full = low_degree_sums(table, 1, np.int64)[1][1:]
    if np.any(full != sums):
        return AuditResult(False, len(report.iterations) - 1, "final sums drifted")
    if not np.array_equal(table.astype(np.int8), report.output.table):
        return AuditResult(False, len(report.iterations) - 1, "replayed table differs")
    return AuditResult(True, -1, "")
