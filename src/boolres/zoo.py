"""Explicit function constructions: Tribes, CycleRun, majorities, parities and
dictators, and binomial-exact statistics of the symmetric threshold
functions f_t with their influence/support sandwich.

Sign conventions are per-function and deliberately explicit:

* Tribes maps logical TRUE to -1 (inputs and output), the convention under
  which its closed-form Fourier coefficients hold.
* CycleRun outputs +1 exactly when the 1-player wins the three-stage run
  comparison; "clockwise" is increasing coordinate index with wraparound.

Generic operations elsewhere never assume either convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypercube import (
    BooleanFunction,
    check_dim,
    chi_values,
    popcounts,
    rotate,
)

# ---------------------------------------------------------------------------
# basic zoo members
# ---------------------------------------------------------------------------


def majority(n: int) -> BooleanFunction:
    check_dim(n)
    if n % 2 == 0:
        raise ValueError("majority needs odd n")
    return BooleanFunction(n, np.where(popcounts(n) < n / 2, 1, -1))


def parity(mask: int, n: int) -> BooleanFunction:
    check_dim(n)
    if not 0 <= mask < (1 << n):
        raise ValueError("parity mask outside [n]")
    return BooleanFunction(n, chi_values(n, mask))


def dictator(i: int, n: int) -> BooleanFunction:
    check_dim(n)
    if not 1 <= i <= n:
        raise ValueError("dictator coordinate outside [1, n]")
    return BooleanFunction(n, chi_values(n, 1 << (i - 1)))


def constant(n: int, sign: int) -> BooleanFunction:
    check_dim(n)
    if sign not in (-1, 1):
        raise ValueError("constant sign must be +-1")
    return BooleanFunction(n, np.full(1 << n, sign, dtype=np.int8))


def random_boolean(n: int, seed: int, balanced: bool = False) -> BooleanFunction:
    check_dim(n)
    if balanced and n < 1:
        raise ValueError("a balanced table needs n >= 1: one point cannot be balanced")
    if seed < 0:
        raise ValueError(f"random function seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    if balanced:
        table = np.ones(1 << n, dtype=np.int8)
        table[rng.permutation(1 << n)[: 1 << (n - 1)]] = -1
        return BooleanFunction(n, table)
    return BooleanFunction(n, rng.choice(np.array([-1, 1], dtype=np.int8), size=1 << n))


# ---------------------------------------------------------------------------
# Tribes
# ---------------------------------------------------------------------------


def _tribes_check(w: int, s: int) -> None:
    if w < 1 or s < 1:
        raise ValueError("tribes needs w >= 1 and s >= 1")
    check_dim(w * s)


def tribes(w: int, s: int) -> BooleanFunction:
    """Disjunction of s disjoint width-w conjunctions; TRUE maps to -1.

    Block b is bits b w .. (b + 1) w - 1 of a point, so the table is the
    outer OR over the blocks of one block's int8 table, -1 at the all-ones
    word; with TRUE = -1, OR is the minimum.
    """
    _tribes_check(w, s)
    block = np.ones(1 << w, dtype=np.int8)
    block[-1] = -1
    table = block
    for _ in range(s - 1):
        table = np.minimum.outer(block, table).ravel()
    return BooleanFunction(w * s, table)


# ---------------------------------------------------------------------------
# CycleRun
# ---------------------------------------------------------------------------

CYCLERUN_MAX_DIM = 25


def _word_runs(w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every w-bit word: its longest run of set bits, the run ending at
    bit w-1 and the run starting at bit 0, as three int8 arrays of 2^w.

    After step k, y holds the bits j with bits j..j+k-1 of x all set.
    """
    x = np.arange(1 << w, dtype=np.int32)
    inner = np.zeros(1 << w, dtype=np.int8)
    top = np.zeros(1 << w, dtype=np.int8)
    bottom = np.zeros(1 << w, dtype=np.int8)
    y = x
    for k in range(1, w + 1):
        ones = (1 << k) - 1
        inner += y != 0
        y = y & (x >> k)
        top += (x >> (w - k)) == ones
        bottom += (x & ones) == ones
    return inner, top, bottom


def _longest_runs(n: int) -> np.ndarray:
    """Longest cyclic run of set bits of every n-bit point, as a 2^n int8 table.

    A point is its high h = ceil(n/2) bits over its low b = floor(n/2) bits,
    so the (2^h, 2^b) table of the halves is the 2^n table in index order.
    A run lies inside one half, crosses the split (the low half's top run
    plus the high half's bottom run), or wraps past bit n-1 (the high
    half's top run plus the low half's bottom run).  The wrapped run goes
    on across a half that is all ones; only the last row (high half all
    ones) and the last column (low half all ones) do that, and there the
    run is capped at n.
    """
    b = n // 2
    h = n - b
    inner_hi, top_hi, bottom_hi = _word_runs(h)
    inner_lo, top_lo, bottom_lo = _word_runs(b)
    runs = np.maximum(inner_hi[:, None], inner_lo)
    np.maximum(runs, bottom_hi[:, None] + top_lo, out=runs)
    np.maximum(runs, top_hi[:, None] + bottom_lo, out=runs)
    np.maximum(runs[-1], np.minimum(h + top_lo + bottom_lo, n), out=runs[-1])
    np.maximum(runs[:, -1], np.minimum(top_hi + b + bottom_hi, n), out=runs[:, -1])
    return runs.reshape(-1)


def _run_starts(v: np.ndarray, run_len: int, n: int) -> np.ndarray:
    """Bit j set iff a maximal run of exactly `run_len` set bits starts at j.

    Assumes no strictly longer run exists in v.
    """
    y = v.copy()
    for t in range(1, run_len):
        y = y & rotate(v, t, n)
    return y & ~rotate(v, n - 1, n)


def cyclerun_table(n: int) -> np.ndarray:
    """CycleRun truth table.

    The set bits of point i are the -1 player's coordinates and those of
    mask - i the +1 player's, so the +1 player's run lengths are the -1
    player's read backwards.

    Stage 1 reads both off `_longest_runs`, one int8 table of 2^n built by
    broadcasting from half-word tables of 2^h + 2^b entries (h = ceil(n/2)
    high bits, b = floor(n/2) low bits).  For every h-bit and every b-bit
    word they hold its longest run of set bits, its run ending at the top
    bit and its run starting at bit 0.  A point's longest run is the max of
    the two inner runs, the run crossing the split and the run wrapping
    past bit n-1.  Every run is at most n <= CYCLERUN_MAX_DIM = 25, so a
    sum of two stays within 50 and int8 cannot overflow.

    The tied points, one group per run length present in ascending order,
    go to stages 2 and 3 as uint32 bit arrays, which `hypercube.rotate`
    shifts exactly for n <= CYCLERUN_MAX_DIM < 32.

    The stages decide only the low half, i < 2^(n-1).  Complementing a
    point swaps the players in every stage, so CycleRun is odd,
    f(mask - i) = -f(i), and the high half is the low half negated and
    read backwards.

    A point still tied after stage 3 raises RuntimeError, counting the ties
    of the whole cube, twice the low half's; none is left at any odd
    n <= CYCLERUN_MAX_DIM.
    """
    if n % 2 == 0:
        raise ValueError("cyclerun needs odd n")
    if not 3 <= n <= CYCLERUN_MAX_DIM:
        raise ValueError(f"cyclerun supported for odd n in [3, {CYCLERUN_MAX_DIM}]")
    mask = (1 << n) - 1
    half = 1 << (n - 1)

    len_neg = _longest_runs(n)
    table = np.empty(1 << n, dtype=np.int8)
    low = table[:half]
    np.subtract(len_neg[:half - 1:-1], len_neg[:half], out=low)
    np.sign(low, out=low)

    tied = np.flatnonzero(low == 0).astype(np.uint32)
    tied_len = len_neg[tied]
    # Python ints: under NEP 50 an int64 run length would widen the uint32 bit arrays
    for run_len in np.flatnonzero(np.bincount(tied_len)).tolist():
        vn = tied[tied_len == run_len]
        vp = np.uint32(mask) - vn
        starts_p = _run_starts(vp, run_len, n)
        starts_n = _run_starts(vn, run_len, n)
        count_p = np.bitwise_count(starts_p).astype(np.int64)
        count_n = np.bitwise_count(starts_n).astype(np.int64)
        verdict = np.sign(count_p - count_n).astype(np.int8)

        still = np.nonzero(verdict == 0)[0]
        if len(still):
            sp = starts_p[still]
            sn = starts_n[still]
            both = sp | sn
            cover = both.copy()
            for t in range(1, run_len):
                cover |= rotate(both, n - t, n)
            open_pos = ~cover & mask
            seed_p = rotate(sp, n - run_len, n) & open_pos
            seed_n = rotate(sn, n - run_len, n) & open_pos
            # grow each seed up its run of open bits by doubling strides:
            # after stride k a seed has grown 2k - 1 bits and reach marks
            # the bits whose last 2k bits are all open
            reach, k = open_pos, 1
            while k < n:
                seed_p |= rotate(seed_p, n - k, n) & reach
                seed_n |= rotate(seed_n, n - k, n) & reach
                reach &= rotate(reach, n - k, n)
                k *= 2
            total_p = np.bitwise_count(seed_p).astype(np.int64)
            total_n = np.bitwise_count(seed_n).astype(np.int64)
            stage3 = np.sign(total_p - total_n).astype(np.int8)
            if ties := int(np.count_nonzero(stage3 == 0)):
                raise RuntimeError(f"cyclerun left {2 * ties} points tied after stage 3 at n={n}")
            verdict[still] = stage3
        low[vn] = verdict
    np.negative(low[::-1], out=table[half:])
    return table


def cyclerun(n: int) -> BooleanFunction:
    """CycleRun; its three stages decide every point."""
    return BooleanFunction(n, cyclerun_table(n))


# ---------------------------------------------------------------------------
# symmetric threshold functions f_t: exact level sums and their sandwich
# ---------------------------------------------------------------------------

FT_EXACT_MAX = 64  # integer binomials up to this n, log-space above
FT_MAX_N = 10**6


def _check_ft_args(t: float, n: int) -> None:
    if not t >= 0:
        raise ValueError(f"threshold parameter t must be nonnegative, got {t}")
    if not 0 <= n <= FT_MAX_N:
        raise ValueError(f"n={n} outside [0, {FT_MAX_N}]")


@dataclass(frozen=True)
class FtStats:
    n: int
    t: float
    influence_sum: float  # E[f_t(x) * sum(x)] = sum of level-1 coefficients
    support_prob: float   # Pr[f_t(x) != 0]


def ft_stats(t: float, n: int) -> FtStats:
    """Exact binomial statistics of f_t, no hypercube enumeration.

    f_t is nonzero on the levels whose sum s = 2k - n has |s| > tau =
    t sqrt(n).  An integer s exceeds tau iff it exceeds floor(tau), so the
    first counted level k0 = (n + floor(tau)) // 2 + 1 is an exact integer,
    and both paths sum the levels k0..n and double them for the negative
    side: integer binomials and exact Fractions for n <= 64, log-space above.
    """
    _check_ft_args(t, n)
    tau = t * math.sqrt(n)
    if tau >= n:  # no level exceeds tau; an infinite tau has no floor
        return FtStats(n, t, 0.0, 0.0)
    k0 = (n + math.floor(tau)) // 2 + 1  # floor(tau) <= n - 1, so k0 <= n
    if n <= FT_EXACT_MAX:
        levels = range(k0, n + 1)
        infl = Fraction(2 * sum(math.comb(n, k) * (2 * k - n) for k in levels), 1 << n)
        supp = Fraction(2 * sum(math.comb(n, k) for k in levels), 1 << n)
        return FtStats(n, t, float(infl), float(supp))
    ks = np.arange(k0, n + 1, dtype=np.float64)
    # log Pr[level k] accumulated from the previous level, seeded at k0
    logp0 = (
        math.lgamma(n + 1) - math.lgamma(k0 + 1) - math.lgamma(n - k0 + 1)
        - n * math.log(2.0)
    )
    steps = np.log(n - ks[:-1]) - np.log(ks[:-1] + 1.0)
    logp = logp0 + np.concatenate([[0.0], np.cumsum(steps)])
    shift = logp.max()
    probs = np.exp(logp - shift)
    supp = 2.0 * math.exp(shift) * float(probs.sum())
    infl = 2.0 * math.exp(shift) * float((probs * (2.0 * ks - n)).sum())
    return FtStats(n, t, infl, supp)


def gaussian_density(u: float, printed: bool = False) -> float:
    """Standard normal density; `printed` selects the 1/(2 pi) variant."""
    norm = 1.0 / (2.0 * math.pi) if printed else 1.0 / math.sqrt(2.0 * math.pi)
    return norm * math.exp(-(u * u) / 2.0)


@dataclass(frozen=True)
class FtSandwichRow:
    phi: float
    influence_low: float
    influence_high: float
    influence_pass: bool
    support_low: float
    support_high: float
    support_pass: bool


def ft_sandwich(stats: FtStats, factor: float, printed: bool = False) -> FtSandwichRow:
    """The influence/support sandwich of `stats`, at the n and t they were
    computed at.

    influence in [phi(t) sqrt(n)/factor, factor phi(t) sqrt(n)] and
    support in [phi(t)/(factor t), factor phi(t)/t]; t must be positive.
    A sandwich passes only on a positive lower bound and a finite upper
    bound: once phi(t) underflows to 0 the bounds are the vacuous [0, 0],
    and a huge factor can overflow the upper bound to inf.
    """
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"sandwich factor must be positive and finite, got {factor}")
    n, t = stats.n, stats.t
    if t <= 0:
        raise ValueError("sandwich bounds need t > 0")
    phi = gaussian_density(t, printed=printed)
    inf_lo, inf_hi = phi * math.sqrt(n) / factor, factor * phi * math.sqrt(n)
    sup_lo, sup_hi = phi / (factor * t), factor * phi / t
    return FtSandwichRow(
        phi=phi,
        influence_low=inf_lo,
        influence_high=inf_hi,
        influence_pass=0 < inf_lo <= stats.influence_sum <= inf_hi < math.inf,
        support_low=sup_lo,
        support_high=sup_hi,
        support_pass=0 < sup_lo <= stats.support_prob <= sup_hi < math.inf,
    )
