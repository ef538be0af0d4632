"""Dense representations and exact spectral analysis of functions on {-1,1}^n.

Conventions shared by the whole package:

* A point of the n-dimensional hypercube is an integer index in [0, 2^n).
  Coordinate j (1-based) is +1 when bit (j-1) of the index is 0 and -1 when
  the bit is 1.
  `_halves` splits a table by one coordinate; `_low_degree_pass` splits by
  the top coordinate again and again to read off only the coefficients of
  degree <= d, which `low_degree_sums` sorts by mask and `low_degree_part`'s
  transpose reads in pass order.  `sign_words` packs a +-1 table one bit a
  point, `_word_halves` splits the packed bits, `flip_sign_bits` negates
  points in them and `sign_sums` reads the sums of degree <= 1 off them.
  `rotate` shifts the coordinates cyclically; `rotations`, `periods` and
  `orbit_members` build the Z_n shift orbits on it.
* A subset S of [n] is an n-bit mask; |S| = popcount(mask).
* chi_S(x) = prod_{j in S} x_j = (-1)^popcount(mask & index).
  `characters` builds every character row, coordinate x_j of a point set
  being the row of the mask {j}; `chi_values` is one row, on the cube.
* Fourier coefficients carry the expectation normalization,
  coef[S] = 2^{-n} * sum_x f(x) chi_S(x), so Parseval reads
  sum_S coef[S]^2 = mean(f^2).

For Boolean (+-1) tables the scaled coefficients 2^n * coef[S] are integers;
`wht_int` exposes that exact path for certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DIM = 28  # 2^28 table entries; hard memory guard for dense transforms

BOUNDED_TOL = 1e-12


class DimensionTooLarge(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


def check_dim(n: int) -> None:
    if not 0 <= n <= MAX_DIM:
        raise DimensionTooLarge(f"dimension n={n} outside supported range [0, {MAX_DIM}]")


@dataclass(frozen=True)
class BooleanFunction:
    """Dense truth table over {-1,1}^n with values in {-1,+1}."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        check_dim(self.n)
        table = np.asarray(self.table)
        if table.shape != (1 << self.n,):
            raise ValueError(f"table must have length 2^{self.n}")
        if not np.all(np.abs(table) == 1):
            raise ValueError("Boolean table entries must be exactly +-1")
        table = table.astype(np.int8, copy=True)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def __call__(self, index: int) -> int:
        return int(self.table[index])


@dataclass(frozen=True)
class BoundedFunction:
    """Dense table of reals in [-1, 1] (witnesses, label expectations)."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        check_dim(self.n)
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (1 << self.n,):
            raise ValueError(f"table must have length 2^{self.n}")
        if not np.all(np.isfinite(table)):
            raise ValueError("bounded table entries must be finite")
        if np.max(np.abs(table), initial=0.0) > 1.0 + BOUNDED_TOL:
            raise ValueError("bounded table entries must lie in [-1, 1]")
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def __call__(self, index: int) -> float:
        return float(self.table[index])


CubeFunction = BooleanFunction | BoundedFunction


def characters(masks: list[int], points: np.ndarray) -> np.ndarray:
    """The (len(masks), len(points)) int8 matrix of chi_S(x) in C order, built row by row."""
    points = np.asarray(points, dtype=np.uint64)
    rows = np.empty((len(masks), len(points)), dtype=np.int8)
    for row, mask in zip(rows, masks):
        row[:] = np.bitwise_count(points & np.uint64(mask)) & 1
    rows *= -2
    rows += 1
    return rows


def chi_values(n: int, mask: int) -> np.ndarray:
    """chi_S over all point indices for the subset mask S."""
    return characters([mask], np.arange(1 << n, dtype=np.uint64))[0]


def popcounts(n: int) -> np.ndarray:
    """popcount of every mask in [0, 2^n), as a small-int array."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)


def rotate(points: np.ndarray, k: int | np.ndarray, n: int) -> np.ndarray:
    """Bit j of each result is bit (j + k) mod n of its point, 0 <= k <= n.

    k broadcasts against the points, and the points' dtype is kept: a left
    shift only loses bits at or above n, which `& mask` drops anyway, so
    uint32 is exact for n < 32 (CycleRun's n <= 25) and int64 for n < 63.
    """
    return ((points >> k) | (points << (n - k))) & ((1 << n) - 1)


def rotations(points: np.ndarray, n: int) -> np.ndarray:
    """The (len(points), n) int64 array whose column j is each point rotated j places."""
    return rotate(np.asarray(points, dtype=np.int64)[:, None], np.arange(n), n)


def periods(rots: np.ndarray) -> np.ndarray:
    """The least shift j > 0 that fixes each row's point, n when none does.

    For odd n a complement has another popcount, so it is never a shift, and
    the shift orbit (closure under shifts and negation) of a point holds
    2 * period members.
    """
    fixed = rots[:, 1:] == rots[:, :1]
    return np.where(fixed.any(axis=1), fixed.argmax(axis=1) + 1, rots.shape[1])


def orbit_members(points: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift orbit of each point, concatenated, and the orbit sizes.

    Each orbit lists its point's distinct shifts, then their complements.
    """
    if n % 2 == 0:
        raise ValueError("shift orbits are used for odd n only")
    rots = rotations(points, n)
    period = periods(rots)
    both = np.stack([rots, rots ^ ((1 << n) - 1)], axis=1)  # (points, 2, n)
    distinct = np.arange(n) < period[:, None, None]
    return both[np.broadcast_to(distinct, both.shape)], 2 * period


def _halves(values: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the entries with x_j = +1 and with x_j = -1, paired by x_{-j}.

    Bit j-1 of a point index is the middle axis of the strided
    (2^{n-j}, 2, 2^{j-1}) view of a 2^n table; nothing is copied.
    """
    split = values.reshape(-1, 2, 1 << (j - 1))
    return split[:, 0, :], split[:, 1, :]


# bit p of _BIT_CLEAR[b] is bit b of p clear: the in-word positions x % 64 with x_{b+1} = +1
_BIT_CLEAR = [np.uint64(sum(1 << p for p in range(64) if not p >> b & 1)) for b in range(6)]


def sign_words(table: np.ndarray) -> np.ndarray:
    """A +-1 table packed into little-endian uint64 words, zero-padded to one
    word for n < 6: bit x % 64 of word x // 64 is set iff f(x) = -1."""
    packed = np.packbits(np.asarray(table) < 0, bitorder="little")
    return np.pad(packed, (0, -len(packed) % 8)).view("<u8")


def _count_bits(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def _word_halves(words: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """`_halves` of packed sign bits, pairs {x, x^j} at equal bit positions: word
    halves for j > 6, else the words and the words >> 2^{j-1}, under bit j-1 clear."""
    if j > 6:
        return _halves(words, j - 6)
    return words & _BIT_CLEAR[j - 1], (words >> np.uint64(1 << (j - 1))) & _BIT_CLEAR[j - 1]


def flip_sign_bits(words: np.ndarray, points: np.ndarray) -> None:
    """Negate f at each of the points in the packed sign bits, in place; a
    point listed twice is flipped twice."""
    points = np.asarray(points)
    np.bitwise_xor.at(words, points >> 6, np.uint64(1) << (points & 63).astype(np.uint64))


def level_one_sums(table: np.ndarray) -> np.ndarray:
    """low_degree_sums(table, 1)[1] of a +-1 table, from its sign bits (`sign_sums`)."""
    return sign_sums(sign_words(table), len(table).bit_length() - 1)


def sign_sums(words: np.ndarray, n: int) -> np.ndarray:
    """low_degree_sums(t, 1)[1] of the +-1 table t whose `sign_words` these are.

    With neg the number of -1 entries and ones_j the number of them with
    x_j = -1, the sums are 2^n - 2 neg for the empty mask and 4 ones_j - 2 neg
    for each {j}.  The words are popcounted once.  A coordinate j <= 6 picks
    bit positions inside a word, so ones_j is a masked popcount; a coordinate
    j > 6 picks whole words, and its sum is -2 times the level-one sum of the
    per-word counts (`low_degree_sums(counts, 1)`).
    """
    counts = np.bitwise_count(words)
    neg = int(counts.sum(dtype=np.int64))
    inner = [4 * _count_bits(words & ~_BIT_CLEAR[b]) - 2 * neg for b in range(min(n, 6))]
    sums = np.empty(n + 1, dtype=np.int64)
    sums[0] = (1 << n) - 2 * neg
    sums[1:len(inner) + 1] = inner
    if n > 6:
        sums[7:] = -2 * low_degree_sums(counts, 1)[1][1:]
    return sums


def low_degree_sums(table: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks S with |S| <= d, ascending, and 2^n coef[S] = sum_x f(x) chi_S(x):
    `_low_degree_pass`, sorted by mask once."""
    masks, sums = _low_degree_pass(table, d)
    order = np.argsort(masks)
    return masks[order], sums[order]


def _low_degree_pass(table: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks S with |S| <= d and 2^n coef[S] = sum_x f(x) chi_S(x), in pass order.

    Splits on the top coordinate and keeps one row of partial sums per mask
    read off so far, the rows of one degree stacked in one 2-D array.  Every
    row folds (plus + minus); only a row of degree < d also opens
    (plus - minus).  A row that reaches degree d needs only its total, and
    since a fold keeps a row's total, sum(plus - minus) = 2 sum(plus) - total
    reads one half.  So each step is a few slice operations, reading about
    3.5 * 2^n entries in all at d = 1 and 8 * 2^n at d = 2 against n 2^n
    for `fwht`; d = n is the full transform.  The split on bit m appends
    the masks whose lowest set bit is m, in the order their rows were read
    off, so each degree's masks ascend in bit-reversed value.  An integer
    table is summed in int64 and any other in float64, straight from the
    table, so an int8 table gets no widened copy.  Integer sums are exact
    while the table's l1 norm fits in int64; float sums add in another order
    than `fwht` and agree with it to rounding.
    """
    src = np.asarray(table)
    dtype = np.int64 if src.dtype.kind in "iu" else np.float64
    n = src.shape[0].bit_length() - 1
    if not 0 <= d <= n:
        raise ValueError(f"degree d={d} outside [0, {n}]")
    if d == 0:
        return np.zeros(1, dtype=np.int64), np.array([src.sum(dtype=dtype)])
    rows = [src[None, :]] + [np.empty((0, src.shape[0]), dtype)] * (d - 1)
    masks = [[0]] + [[] for _ in range(d - 1)]
    totals = None  # of the rows of degree d - 1
    top_masks, top_sums = [], []
    for half in (1 << j for j in range(n - 1, -1, -1)):
        plus = rows[-1][:, :half].sum(axis=1, dtype=dtype)
        if totals is None:
            totals = plus + rows[-1][:, half:].sum(axis=1, dtype=dtype)
        top_sums.append(2 * plus - totals)
        top_masks += [mask | half for mask in masks[-1]]
        for k in range(d - 1, 0, -1):
            fold, opened = rows[k], rows[k - 1]
            out = np.empty((len(fold) + len(opened), half), dtype)
            np.add(fold[:, :half], fold[:, half:], out=out[: len(fold)], dtype=dtype)
            np.subtract(opened[:, :half], opened[:, half:], out=out[len(fold):], dtype=dtype)
            if k == d - 1:
                totals = np.concatenate([totals, out[len(fold):].sum(axis=1)])
            rows[k] = out
            masks[k] += [mask | half for mask in masks[k - 1]]
        rows[0] = np.add(rows[0][:, :half], rows[0][:, half:], dtype=dtype)
    sums = np.concatenate([row[:, 0] for row in rows] + top_sums)
    return np.array(sum(masks, []) + top_masks, dtype=np.int64), sums


def _low_degree_transpose(sums: np.ndarray, n: int, d: int) -> np.ndarray:
    """sum_{|S| <= d} sums[S] chi_S(x) at every point x, for sums in `_low_degree_pass` order.

    Absorbs the coordinates bottom up.  Before bit m, each mask T among bits
    >= m holds a row over the points of bits < m; the row of a T without bit
    m becomes [c_T + c_{T|m}, c_T - c_{T|m}], and a row of degree d stays
    one constant.  In that order the masks of a degree that hold bit m are
    the tail block and pair in order with the masks without it one degree
    lower.  Every partial value is a signed sum of a subset of `sums`.
    """
    if d == 0:
        return np.full(1 << n, sums[0])
    rows = np.split(sums[:, None], np.cumsum([math.comb(n, k) for k in range(d)]))
    for m in range(n):
        # the masks of degree k among bits >= m that hold bit m
        has = [math.comb(n - m - 1, k - 1) if k else 0 for k in range(d + 1)]
        for k in range(d):
            keep = rows[k][: len(rows[k]) - has[k]]
            up = rows[k + 1][len(rows[k + 1]) - has[k + 1]:]
            width = keep.shape[1]
            out = np.empty((len(keep), 2 * width), sums.dtype)
            np.add(keep, up, out=out[:, :width])
            np.subtract(keep, up, out=out[:, width:])
            rows[k] = out
        rows[d] = rows[d][: len(rows[d]) - has[d]]
    return rows[0][0]


def low_degree_part(values: np.ndarray, d: int) -> np.ndarray:
    """2^n times the degree-<=d part of an integer table, at every point, as int64.

    `_low_degree_pass` followed by its transpose: O(2^n) work at fixed d
    against the 2 n 2^n of two `fwht` passes.  Exact while the l1 norms of
    the table and of its low sums fit in int64.
    """
    src = np.asarray(values)
    _, sums = _low_degree_pass(src, d)
    return _low_degree_transpose(sums, src.shape[0].bit_length() - 1, d)


def fwht(values: np.ndarray, dtype=None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, out[s] = sum_x v[x](-1)^pc(s&x).

    O(n 2^n) adds, exact on integer dtypes; self-inverse up to the factor
    2^n.  Each butterfly stage reads one buffer and writes the sums and
    differences straight into the other, so nothing is copied between
    stages.  The input is only read; the result is always a fresh array of
    `dtype` (default: the input's).  The first stage computes in `dtype`
    straight from the input, so an int8 table needs no widened copy.
    """
    src = np.asarray(values)
    dtype = src.dtype if dtype is None else np.dtype(dtype)
    size = src.shape[0]
    if size < 2:
        return src.astype(dtype)
    buffers = (np.empty(size, dtype=dtype), np.empty(size, dtype=dtype))
    for stage in range(size.bit_length() - 1):
        dst = buffers[stage % 2]
        pairs = src.reshape(-1, 2, 1 << stage)
        out = dst.reshape(-1, 2, 1 << stage)
        np.add(pairs[:, 0], pairs[:, 1], out=out[:, 0], dtype=dtype)
        np.subtract(pairs[:, 0], pairs[:, 1], out=out[:, 1], dtype=dtype)
        src = dst
    return src


def wht(fn: CubeFunction) -> np.ndarray:
    """All 2^n Fourier coefficients coef[S], indexed by mask, as float64."""
    coeffs = fwht(fn.table, np.float64)
    coeffs /= float(1 << fn.n)
    return coeffs


def wht_int(fn: BooleanFunction) -> np.ndarray:
    """Exact integer coefficients 2^n * coef[S] of a Boolean function.

    Each butterfly stage at most doubles the largest |entry|, so from
    |f| = 1 every value stays within 2^n <= 2^MAX_DIM.
    """
    return fwht(fn.table, np.int64)


@dataclass(frozen=True)
class SpectralStats:
    low_weight: float
    total_influence: float
    per_coordinate_influence: tuple[float, ...]


def per_coordinate_influence(fn: CubeFunction) -> np.ndarray:
    """Influence Inf_j = E[((f(x) - f(x^j)) / 2)^2] of each coordinate.

    For Boolean f this is the edge definition Pr[f(x) != f(x^j)], counted
    as the set bits of the XOR of the packed sign bits' `_word_halves`.  For
    any real f it equals the spectral form sum_{S ni j} coef[S]^2.  Each
    pair {x, x^j} is visited once.
    """
    js = range(1, fn.n + 1)
    if isinstance(fn, BooleanFunction):
        return _sign_influence(sign_words(fn.table), fn.n)
    return np.array([np.mean(np.square(np.subtract(*_halves(fn.table, j)) / 2)) for j in js])


def _sign_influence(words: np.ndarray, n: int) -> np.ndarray:
    flips = [_count_bits(np.bitwise_xor(*_word_halves(words, j))) for j in range(1, n + 1)]
    return np.array(flips) / 2.0 ** (n - 1)


def spectral_stats(fn: CubeFunction, d: int) -> SpectralStats:
    """Low-degree Fourier weight (degree <= d) plus influence data.

    A Boolean table's sign bits are packed once, for its influences and, at
    d = 1, the int64 sums of `level_one_sums`; every other case, and every
    degree check, goes through `low_degree_sums`.
    """
    words = sign_words(fn.table) if isinstance(fn, BooleanFunction) else None
    if words is not None and d == 1 <= fn.n:
        sums = sign_sums(words, fn.n)
    else:
        _, sums = low_degree_sums(fn.table, d)
    coeffs = sums / float(1 << fn.n)
    infl = per_coordinate_influence(fn) if words is None else _sign_influence(words, fn.n)
    return SpectralStats(
        low_weight=float((coeffs**2).sum()),
        total_influence=float(infl.sum()),
        per_coordinate_influence=tuple(float(v) for v in infl),
    )


def noise_sensitivity(fn: BooleanFunction, delta: float) -> float:
    """Probability that f differs on a point and its delta-noisy copy,
    (1 - sum_S (1-2 delta)^{|S|} coef[S]^2) / 2."""
    if not isinstance(fn, BooleanFunction):
        raise TypeError("noise sensitivity is defined for Boolean functions")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"noise rate delta={delta} outside [0, 1]")
    rho = (1.0 - 2.0 * delta) ** popcounts(fn.n)
    return float((1.0 - np.dot(rho, wht(fn) ** 2)) / 2.0)


def _check_same_dim(f: CubeFunction, g: CubeFunction) -> None:
    if f.n != g.n:
        raise DimensionMismatch(f"dimension mismatch: {f.n} vs {g.n}")


def l1_distance(f: CubeFunction, g: CubeFunction) -> float:
    """E|f - g| under the uniform distribution."""
    _check_same_dim(f, g)
    return float(np.mean(np.abs(np.subtract(f.table, g.table, dtype=np.float64))))


def correlation(f: CubeFunction, g: CubeFunction) -> float:
    """E[f g] under the uniform distribution."""
    _check_same_dim(f, g)
    return float(np.mean(np.multiply(f.table, g.table, dtype=np.float64)))


@dataclass(frozen=True)
class ResilienceCheck:
    resilient: bool
    worst_mask: int
    worst_coefficient: float


def is_d_resilient(fn: CubeFunction, d: int, tol: float = 1e-9) -> ResilienceCheck:
    """Check max_{|S| <= d} |coef[S]| <= tol, reporting the worst offender.

    Boolean inputs go through exact integer arithmetic (their nonzero
    coefficients are at least 2^-n, so the default tolerance makes the
    verdict an exact-zero certificate); bounded inputs use floats.
    """
    masks, sums = low_degree_sums(fn.table, d)
    scale = float(1 << fn.n)
    vals = np.abs(sums)
    worst = int(np.argmax(vals))
    return ResilienceCheck(
        resilient=bool(vals[worst] / scale <= tol),
        worst_mask=int(masks[worst]),
        worst_coefficient=float(vals[worst]) / scale,
    )


# ---------------------------------------------------------------------------
# the truth-table file format
# ---------------------------------------------------------------------------

def read_truth_table(path: str) -> CubeFunction:
    """Parse the repo-wide truth-table text format; +-1 integer tables come
    back Boolean.

    Line 1 is `n=<k>`, line 2 holds exactly 2^k space-separated entries in
    point-index order, and anything after line 2 must be blank.
    """
    with open(path) as handle:
        header = handle.readline().strip()
        try:
            n = int(header[2:] if header.startswith("n=") else "")
        except ValueError:
            raise ValueError(f"bad truth-table header {header!r}") from None
        check_dim(n)
        body = handle.readline().split()
        trailing = handle.read().strip()
    if len(body) != (1 << n):
        raise ValueError(f"expected {1 << n} entries, found {len(body)}")
    if trailing:
        raise ValueError("unexpected content after the truth table's line 2")
    values = np.array([float(tok) for tok in body])
    if np.all(np.abs(values) == 1.0):
        return BooleanFunction(n, values.astype(np.int8))
    return BoundedFunction(n, values)
