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

Orbits are handled in batches: each weight level's orbits are found in whole
arrays, the branch rules run on Python ints, and the table is flipped once at
the end.  The audit replays all recorded orbits at once.  The report holds
what the build computed; the CLI writes the `cyclerun-build` artifact from
it and from its own arguments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hypercube import (
    BooleanFunction,
    characters,
    level_one_sums,
    orbit_members,
    periods,
    popcounts,
    rotate,
    rotations,
)
from .zoo import cyclerun


class BuilderError(RuntimeError):
    pass


class NoWeightOnePoint(BuilderError):
    """Step 3b found no unflipped weight-one point with CycleRun = 1."""


class BudgetExhausted(BuilderError):
    """The |Sbar| budget was hit while sigma was still positive."""


def _orbits_by_level(ones: np.ndarray, ones_pc: np.ndarray, n: int) -> list:
    """One lazy walk per popcount level pc = 0..n, yielding (point, period,
    weight) of each orbit met walking that level's candidates ascending.

    `ones` lists the CycleRun = 1 points ascending, `ones_pc` their
    popcounts.  All shifts of a point share its weight and its CycleRun
    value, and for odd n a complement has CycleRun = -1, so within a level
    the first point of an orbit is its least shift.
    """

    def level(pc: int):
        least = ones[ones_pc == pc]
        shifted = least
        for _ in range(n - 1):
            shifted = rotate(shifted, 1, n)
            keep = least <= shifted
            least, shifted = least[keep], shifted[keep]
        for point, period in zip(least.tolist(), periods(rotations(least, n)).tolist()):
            yield point, period, n - 2 * pc

    return [level(pc) for pc in range(n + 1)]


@dataclass(frozen=True)
class IterationRecord:
    """One flipped orbit; its iteration number is its position in the report."""

    branch: str  # "heavy" | "light" | "boundary"
    point: int
    weight: int
    orbit_size: int
    sigma_before: int
    sigma_after: int


@dataclass(frozen=True)
class BuilderReport:
    output: BooleanFunction
    sigma_initial: int
    sigma_final: int
    first_level_sums: tuple[int, ...]  # 2^n-scaled coefficients of {1}..{n}, checked zero
    sbar_size: int
    sbar_prime_size: int
    iterations: tuple[IterationRecord, ...]
    distance: float
    budget_ratio: float  # distance / sqrt(log2(n)/n)


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
    ones = np.flatnonzero(base.table == 1)
    ones_pc = popcounts(n)[ones]
    # sigma = sum_x f(x) (n - 2|x|); the sum over every x is 0, so sigma is
    # twice the sum over the ones
    sigma = 2 * (n * len(ones) - 2 * int(ones_pc.sum()))
    sigma_initial = sigma
    if sigma < 0 or sigma % (4 * n) != 0:
        raise BuilderError(f"initial sigma {sigma} is not a nonnegative multiple of 4n")

    budget = c1 * math.sqrt(math.log2(n) / n) * size

    # candidates with CycleRun = 1, highest coordinate sum first, index ascending
    levels = _orbits_by_level(ones, ones_pc, n)
    candidates = itertools.chain.from_iterable(levels)
    # the light branch draws the orbits of coordinate sum 1 from the same
    # walk; such an orbit has period n (gcd(n, (n-1)/2) = 1), so its
    # decrement 4n <= sigma and the branch never fires while x is one
    light = levels[(n - 1) // 2]

    records: list[IterationRecord] = []
    sbar_size = 0
    sbar_prime_size = 0
    x = None

    while sigma != 0:
        if sbar_size > budget:
            raise BudgetExhausted(
                f"|Sbar| = {sbar_size} exceeded budget {budget:.1f} with sigma {sigma}"
            )
        if x is None:
            x, period, weight = next(candidates, (None, 0, 0))
            if x is None:
                raise BuilderError("no unflipped CycleRun=1 candidates remain")
        if weight <= 0:
            raise BuilderError("best remaining candidate has nonpositive weight")
        decrement = 4 * period * weight

        if sigma - decrement < 0:
            point, light_period, _ = next(light, (None, 0, 0))
            if point is None:
                raise NoWeightOnePoint(f"no weight-one CycleRun=1 point left at n={n}")
            if light_period != n:
                raise BuilderError("weight-one orbit does not have size 2n")
            branch, point_weight, orbit_size, delta = "light", 1, 2 * n, 4 * n
            sbar_prime_size += orbit_size
        else:
            branch = "heavy" if sigma - decrement > 0 else "boundary"
            point, point_weight, orbit_size, delta = x, weight, 2 * period, decrement
            x = None  # the cursor moves on

        sbar_size += orbit_size
        records.append(
            IterationRecord(
                branch=branch,
                point=point,
                weight=point_weight,
                orbit_size=orbit_size,
                sigma_before=sigma,
                sigma_after=sigma - delta,
            )
        )
        sigma -= delta
        if sigma < 0 or sigma % (4 * n) != 0:
            raise BuilderError(f"sigma invariant broken at iteration {len(records) - 1}")

    table = base.table.copy()
    table[orbit_members(np.array([rec.point for rec in records], dtype=np.int64), n)[0]] *= -1
    # a member shared by two orbits would be flipped once and counted twice
    if np.count_nonzero(table != base.table) != sbar_size:
        raise BuilderError("orbits overlap: flipped entries differ from |Sbar|")
    output = BooleanFunction(n, table)
    sums = level_one_sums(table)  # masks 0, then {1}, ..., {n}
    if sums[0] != 0:
        raise BuilderError("output is not balanced")
    if np.any(sums[1:] != 0):
        raise BuilderError("output is not exactly 1-resilient")

    distance = sbar_size / size
    return BuilderReport(
        output=output,
        sigma_initial=sigma_initial,
        sigma_final=sigma,
        first_level_sums=tuple(sums[1:].tolist()),
        sbar_size=sbar_size,
        sbar_prime_size=sbar_prime_size,
        iterations=tuple(records),
        distance=distance,
        budget_ratio=distance / math.sqrt(math.log2(n) / n),
    )


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    failed_iteration: int  # position in report.iterations; -1 when ok
    detail: str


FULL_RECHECK_EVERY = 50


def _level_one_deltas(
    table: np.ndarray, members: np.ndarray, offsets: np.ndarray, n: int
) -> np.ndarray:
    """Each orbit's change to the level-one sums, -2 sum_{y in orbit} f(y) y_j.

    Orbit i is members[offsets[i]:offsets[i + 1]].  Column j sums the
    character row of {j + 1} over the members, times f, one row at a time,
    so no (members, n) matrix is ever held.
    """
    deltas = np.zeros((len(offsets) - 1, n), dtype=np.int64)
    values = table[members]
    points = members.view(np.uint64)  # the indices themselves, so characters copies none
    for j in range(n):
        row = characters([1 << j], points)[0]
        row *= values
        deltas[:, j] = np.add.reduceat(row, offsets[:-1], dtype=np.int64)
    return -2 * deltas


def audit_invariants(report: BuilderReport) -> AuditResult:
    """Replay a build with independent exact arithmetic.

    Recomputes every iteration's orbit from its point and checks that no two
    orbits share a point.  Checks, after every iteration: all first-level
    coefficients equal, the logged sigma equals the recomputed sum of scaled
    first-level coefficients, sigma is a nonnegative multiple of 4n, and the
    decrement matches the orbit.  The level-one sums follow from the orbit
    member sums, through `characters` rows; every FULL_RECHECK_EVERY
    iterations and at the end they are recomputed from the whole replayed
    table by another route, the popcounts of its packed sign bits
    (`level_one_sums`).  The first failing iteration is reported, its
    checks in that order.
    """
    n = report.output.n
    recs = report.iterations
    table = cyclerun(n).table.copy()
    # the level-one sums sum_x f(x) x_j follow mask 0
    initial = level_one_sums(table)[1:]

    points = np.array([rec.point for rec in recs], dtype=np.int64)
    members, sizes = orbit_members(points, n)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    sums = initial + np.cumsum(_level_one_deltas(table, members, offsets, n), axis=0)

    # sorted by member, then by iteration: a repeat belongs to a later orbit
    span = max(len(recs), 1)
    keys = np.sort(members * span + np.repeat(np.arange(len(recs)), sizes))
    repeated = keys[1:] // span == keys[:-1] // span
    overlaps = np.zeros(len(recs), dtype=bool)
    overlaps[keys[1:][repeated] % span] = True

    after = np.array([rec.sigma_after for rec in recs], dtype=np.int64)
    decrement = np.array([rec.sigma_before for rec in recs], dtype=np.int64) - after
    weights = n - 2 * np.bitwise_count(points).astype(np.int64)
    failed = np.column_stack([
        overlaps,
        (sums != sums[:, :1]).any(axis=1),
        sums.sum(axis=1) != after,
        (after < 0) | (after % (4 * n) != 0),
        (decrement != 2 * sizes * weights) & (decrement != 4 * n),
    ])
    failing = np.flatnonzero(failed.any(axis=1))
    first = int(failing[0]) if len(failing) else len(recs)

    # replay the flips checkpoint by checkpoint up to the first failure; an
    # overlapping orbit fails before its checkpoint would be read
    checkpoints = range(0, min(first + 1, len(recs)), FULL_RECHECK_EVERY)
    done = 0
    for pos in checkpoints:
        if pos == first and overlaps[pos]:
            break
        table[members[offsets[done]:offsets[pos + 1]]] *= -1
        done = pos + 1
        full = level_one_sums(table)[1:]
        if np.any(full != sums[pos]):
            return AuditResult(False, pos, "incremental sums drifted")
    if first < len(recs):
        rec = recs[first]
        details = [
            f"orbit of point {rec.point} overlaps an earlier orbit",
            "first-level coefficients differ",
            f"logged sigma {rec.sigma_after} != recomputed {int(sums[first].sum())}",
            "sigma not a nonnegative multiple of 4n",
            "sigma decrement does not match the orbit",
        ]
        return AuditResult(False, first, details[int(failed[first].argmax())])

    table[members[offsets[done]:]] *= -1
    full = level_one_sums(table)[1:]
    if np.any(full != (sums[-1] if len(recs) else initial)):
        return AuditResult(False, len(recs) - 1, "final sums drifted")
    if not np.array_equal(table, report.output.table):
        return AuditResult(False, len(recs) - 1, "replayed table differs")
    return AuditResult(True, -1, "")
