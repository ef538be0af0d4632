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

The greedy choice runs as int64 array passes.  The build takes the orbits of
every weight level it reads at once, weight descending and least point
ascending, and the heavy run is the prefix of their cumulative decrements at
most sigma (`np.searchsorted`), one equal to sigma being the boundary
branch.  Once the light branch fires it runs until sigma = 0, so it takes
exactly sigma / 4n weight-one orbits.  |Sbar|, sigma, the budget test and
the sigma invariant are array checks that raise at the iteration a loop over
one orbit at a time would.  The table is flipped once at the end; the audit
replays the records in packed sign bits.  The CLI writes the
`cyclerun-build` artifact from the report and from its own arguments.

The int64 sums cannot wrap.  The orbits are disjoint, and an orbit O's
decrement is 2 |O| weight <= 2n |O|, so sigma and every cumulative sum of
decrements are at most 2n 2^n, under 2^31 at n = 25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypercube import (
    BooleanFunction,
    characters,
    flip_sign_bits,
    level_one_sums,
    orbit_members,
    periods,
    rotate,
    rotations,
    sign_sums,
    sign_words,
)
from .zoo import CYCLERUN_MAX_DIM, cyclerun


class BuilderError(RuntimeError):
    pass


class NoWeightOnePoint(BuilderError):
    """Step 3b found no unflipped weight-one point with CycleRun = 1."""


class BudgetExhausted(BuilderError):
    """The |Sbar| budget was hit while sigma was still positive."""


def _least_shifts(points: np.ndarray, n: int) -> np.ndarray:
    """The points, kept in order, that are no larger than any of their shifts.

    All shifts of a point share its weight and its CycleRun value, and for
    odd n a complement has CycleRun = -1, so among CycleRun = 1 points,
    ascending, these are the first points of their orbits.
    """
    least = shifted = points
    for _ in range(n - 1):
        shifted = rotate(shifted, 1, n)
        keep = least <= shifted
        least, shifted = least[keep], shifted[keep]
    return least


def _first_least_shifts(points: np.ndarray, count: int, n: int) -> np.ndarray:
    """The first `count` of `_least_shifts(points, n)`, fewer if it has fewer,
    read off the shortest prefix of the points that holds them: 16 n points
    an orbit to begin with, then four times as many each time."""
    stop = 16 * n * max(count, 1)
    while True:
        least = _least_shifts(points[:stop], n)
        if len(least) >= count or stop >= len(points):
            return least[:count]
        stop *= 4


@dataclass(frozen=True)
class BuilderReport:
    output: BooleanFunction
    sigma_initial: int
    sigma_final: int
    first_level_sums: tuple[int, ...]  # 2^n-scaled coefficients of {1}..{n}, checked zero
    sbar_size: int
    sbar_prime_size: int
    # one read-only row per flipped orbit, its iteration number its position:
    # branch ("heavy" | "light" | "boundary"), point, weight, orbit_size,
    # sigma_before and sigma_after
    iterations: np.ndarray
    distance: float
    budget_ratio: float  # distance / sqrt(log2(n)/n)


def build_one_resilient(n: int, c1: float = 8.0) -> BuilderReport:
    """Run the greedy orbit-flipping repair on CycleRun.

    Output is Boolean, balanced and exactly 1-resilient (integer-certified);
    raises NoWeightOnePoint or BudgetExhausted on the documented failure
    modes.
    """
    if n % 2 == 0 or not 5 <= n <= CYCLERUN_MAX_DIM:
        raise ValueError(f"builder needs odd n in [5, {CYCLERUN_MAX_DIM}]")
    if not (math.isfinite(c1) and c1 > 0):
        raise ValueError(f"budget constant c1 must be positive and finite, got {c1}")
    base = cyclerun(n)
    size = 1 << n
    ones = np.flatnonzero(base.table == 1)
    ones_pc = np.bitwise_count(ones)
    count = np.bincount(ones_pc, minlength=n + 1)  # the ones of each popcount
    level_weight = n - 2 * np.arange(n + 1)
    # sigma = sum_x f(x) (n - 2|x|); the sum over every x is 0, so sigma is
    # twice the sum over the ones
    sigma = 2 * int(np.dot(count, level_weight))
    sigma_initial = sigma
    if sigma < 0 or sigma % (4 * n) != 0:
        raise BuilderError(f"initial sigma {sigma} is not a nonnegative multiple of 4n")

    budget = c1 * math.sqrt(math.log2(n) / n) * size

    # The heavy walk takes the orbits weight level by weight level, highest
    # first, and each level's by least point ascending.  A level's orbits
    # hold its count[pc] ones, period of them each, so their decrements add
    # up to 4 weight count[pc], and no level past `last` is read.
    light_pc = (n - 1) // 2  # weight one
    reach = np.cumsum(4 * level_weight[:light_pc + 1] * count[:light_pc + 1])
    last = min(int(np.searchsorted(reach, sigma)), light_pc)
    least = _least_shifts(ones[ones_pc <= last], n)
    least_pc = np.bitwise_count(least)
    least = np.concatenate([least[least_pc == pc] for pc in range(last + 1)])
    period = periods(rotations(least, n))
    spent = np.cumsum(4 * period * (n - 2 * np.bitwise_count(least).astype(np.int64)))
    take = int(np.searchsorted(spent, sigma, side="right"))
    points, period = least[:take], period[:take]
    rest = sigma - (int(spent[take - 1]) if take else 0)
    # a failure belongs to the iteration after the last orbit taken
    failure, light = None, 0
    if rest and take < len(least):
        # the light branch runs until sigma = 0.  An orbit of weight one has
        # period n (gcd(n, (n-1)/2) = 1), so its decrement 4n <= sigma and
        # the branch never fires at the weight-one level itself
        need = rest // (4 * n)
        star = _first_least_shifts(ones[ones_pc == light_pc], need, n)
        star_period = periods(rotations(star, n))
        if (bad := np.flatnonzero(star_period != n)).size:
            star = star[:bad[0]]
            failure = BuilderError("weight-one orbit does not have size 2n")
        elif len(star) < need:
            failure = NoWeightOnePoint(f"no weight-one CycleRun=1 point left at n={n}")
        light = len(star)
        points = np.concatenate([points, star])
        period = np.concatenate([period, star_period[:light]])
    elif rest and count[light_pc + 1:].any():
        failure = BuilderError("best remaining candidate has nonpositive weight")
    elif rest:
        failure = BuilderError("no unflipped CycleRun=1 candidates remain")

    orbit_size = 2 * period
    point_weight = n - 2 * np.bitwise_count(points).astype(np.int64)
    sigma_after = sigma_initial - np.cumsum(2 * orbit_size * point_weight)
    # |Sbar| and sigma at the top of each iteration and at the end
    sbar = np.concatenate([[0], np.cumsum(orbit_size)])
    sigma_before = np.concatenate([[sigma_initial], sigma_after])
    # the budget is tested at the top of every iteration, a failing one included
    over = np.flatnonzero(sbar[:len(points) + (failure is not None)] > budget)
    broken = np.flatnonzero((sigma_after < 0) | (sigma_after % (4 * n) != 0))
    if over.size and not (broken.size and broken[0] < over[0]):
        raise BudgetExhausted(
            f"|Sbar| = {int(sbar[over[0]])} exceeded budget {budget:.1f}"
            f" with sigma {int(sigma_before[over[0]])}"
        )
    if broken.size:
        raise BuilderError(f"sigma invariant broken at iteration {broken[0]}")
    if failure is not None:
        raise failure

    branch = np.full(len(points), "heavy", dtype="U8")
    branch[sigma_after == 0] = "boundary"
    branch[len(points) - light:] = "light"
    columns = {"branch": branch, "point": points, "weight": point_weight, "orbit_size": orbit_size,
               "sigma_before": sigma_before[:-1], "sigma_after": sigma_after}
    records = np.empty(len(points), [(name, column.dtype) for name, column in columns.items()])
    for name, column in columns.items():
        records[name] = column
    records.setflags(write=False)
    sbar_size = int(sbar[-1])

    table = base.table.copy()
    table[orbit_members(points, n)[0]] *= -1
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
        sigma_final=int(sigma_before[-1]),
        first_level_sums=tuple(sums[1:].tolist()),
        sbar_size=sbar_size,
        sbar_prime_size=2 * n * light,
        iterations=records,
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
    member sums, through `characters` rows.  The replayed table is held as
    packed sign bits, each checkpoint's members flipped in them; every
    FULL_RECHECK_EVERY iterations and at the end the sums are recomputed
    from the whole packed table by another route, its popcounts
    (`sign_sums`), and at the end the bits are compared with the output's.
    The first failing iteration is reported, its checks in that order.
    """
    n = report.output.n
    recs = report.iterations
    base = cyclerun(n).table
    words = sign_words(base)
    # the level-one sums sum_x f(x) x_j follow mask 0
    initial = sign_sums(words, n)[1:]

    points = recs["point"]
    members, sizes = orbit_members(points, n)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    sums = initial + np.cumsum(_level_one_deltas(base, members, offsets, n), axis=0)

    # sorted by member, then by iteration: a repeat belongs to a later orbit
    span = max(len(recs), 1)
    keys = np.sort(members * span + np.repeat(np.arange(len(recs)), sizes))
    repeated = keys[1:] // span == keys[:-1] // span
    overlaps = np.zeros(len(recs), dtype=bool)
    overlaps[keys[1:][repeated] % span] = True

    after = recs["sigma_after"]
    decrement = recs["sigma_before"] - after
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
        flip_sign_bits(words, members[offsets[done]:offsets[pos + 1]])
        done = pos + 1
        if np.any(sign_sums(words, n)[1:] != sums[pos]):
            return AuditResult(False, pos, "incremental sums drifted")
    if first < len(recs):
        rec = recs[first]
        details = [
            f"orbit of point {rec['point']} overlaps an earlier orbit",
            "first-level coefficients differ",
            f"logged sigma {rec['sigma_after']} != recomputed {int(sums[first].sum())}",
            "sigma not a nonnegative multiple of 4n",
            "sigma decrement does not match the orbit",
        ]
        return AuditResult(False, first, details[int(failed[first].argmax())])

    flip_sign_bits(words, members[offsets[done]:])
    if np.any(sign_sums(words, n)[1:] != (sums[-1] if len(recs) else initial)):
        return AuditResult(False, len(recs) - 1, "final sums drifted")
    if not np.array_equal(words, sign_words(report.output.table)):
        return AuditResult(False, len(recs) - 1, "replayed table differs")
    return AuditResult(True, -1, "")
