"""Dense representations and exact spectral analysis of functions on {-1,1}^n.

Conventions shared by the whole package:

* A point of the n-dimensional hypercube is an integer index in [0, 2^n).
  Coordinate j (1-based) is +1 when bit (j-1) of the index is 0 and -1 when
  the bit is 1.
* A subset S of [n] is an n-bit mask; |S| = popcount(mask).
* chi_S(x) = prod_{j in S} x_j = (-1)^popcount(mask & index).
* Fourier coefficients carry the expectation normalization,
  coef[S] = 2^{-n} * sum_x f(x) chi_S(x), so Parseval reads
  sum_S coef[S]^2 = mean(f^2).

For Boolean (+-1) tables the scaled coefficients 2^n * coef[S] are integers;
`wht_int` exposes that exact path for certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MAX_DIM = 28  # 2^28 table entries; hard memory guard for dense transforms
INT64_BITS = 62  # integer paths keep |value| <= 2^62, inside int64

BOUNDED_TOL = 1e-12


class DimensionTooLarge(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


def _check_dim(n: int) -> None:
    if not 0 <= n <= MAX_DIM:
        raise DimensionTooLarge(f"dimension n={n} outside supported range [0, {MAX_DIM}]")


@dataclass(frozen=True)
class BooleanFunction:
    """Dense truth table over {-1,1}^n with values in {-1,+1}."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        _check_dim(self.n)
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
        _check_dim(self.n)
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (1 << self.n,):
            raise ValueError(f"table must have length 2^{self.n}")
        if np.max(np.abs(table), initial=0.0) > 1.0 + BOUNDED_TOL:
            raise ValueError("bounded table entries must lie in [-1, 1]")
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def __call__(self, index: int) -> float:
        return float(self.table[index])


CubeFunction = BooleanFunction | BoundedFunction


@dataclass(frozen=True)
class Spectrum:
    """All 2^n Fourier coefficients, indexed by subset mask."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_dim(self.n)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != (1 << self.n,):
            raise ValueError(f"coeffs must have length 2^{self.n}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def __getitem__(self, mask: int) -> float:
        return float(self.coeffs[mask])


def coordinate_values(n: int, j: int) -> np.ndarray:
    """Values of coordinate j (1-based) at every point index, as +-1 int8."""
    idx = np.arange(1 << n)
    return np.where((idx >> (j - 1)) & 1, -1, 1).astype(np.int8)


def chi_values(n: int, mask: int) -> np.ndarray:
    """chi_S over all point indices for the subset mask S."""
    idx = np.arange(1 << n, dtype=np.uint64)
    par = np.bitwise_count(idx & np.uint64(mask)) & 1
    return np.where(par, -1, 1).astype(np.int8)


def popcounts(n: int) -> np.ndarray:
    """popcount of every mask in [0, 2^n), as a small-int array."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, out[s] = sum_x v[x](-1)^pc(s&x).

    In-place butterfly on a copy, O(n 2^n) adds; exact on integer dtypes.
    Self-inverse up to the factor 2^n.
    """
    a = np.array(values, copy=True)
    size = a.shape[0]
    h = 1
    while h < size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:]
        a[:, :h] = left + right
        a[:, h:] = left - right
        a = a.reshape(-1)
        h *= 2
    return a


def wht(fn: CubeFunction) -> Spectrum:
    """Fourier spectrum with expectation normalization 2^{-n}."""
    _check_dim(fn.n)
    scale = float(1 << fn.n)
    return Spectrum(fn.n, fwht(fn.table.astype(np.float64)) / scale)


def wht_int(fn: BooleanFunction) -> np.ndarray:
    """Exact integer coefficients 2^n * coef[S] of a Boolean function.

    Each butterfly stage at most doubles the largest |entry|, so from
    |f| = 1 every value stays within 2^n <= 2^MAX_DIM.
    """
    if fn.n > INT64_BITS:
        raise OverflowError(f"wht_int: values up to 2^{fn.n} would wrap in int64")
    return fwht(fn.table.astype(np.int64))


def inverse_wht(spectrum: Spectrum) -> np.ndarray:
    """Reconstruct the value table from a spectrum (float64)."""
    return fwht(spectrum.coeffs)


@dataclass(frozen=True)
class SpectralStats:
    low_weight: float
    total_influence: float
    per_coordinate_influence: tuple[float, ...]


def per_coordinate_influence(fn: CubeFunction) -> np.ndarray:
    """Influence of each coordinate.

    Boolean tables use the edge definition Pr[f(x) != f(x^i)]; bounded tables
    fall back to the spectral form sum_{S ni j} coef[S]^2 (the two agree for
    Boolean f).
    """
    n = fn.n
    idx = np.arange(1 << n)
    if isinstance(fn, BooleanFunction):
        table = fn.table
        return np.array(
            [np.mean(table != table[idx ^ (1 << (j - 1))]) for j in range(1, n + 1)]
        )
    sq = wht(fn).coeffs ** 2
    masks = np.arange(1 << n)
    return np.array(
        [sq[(masks >> (j - 1)) & 1 == 1].sum() for j in range(1, n + 1)]
    )


def spectral_stats(fn: CubeFunction, d: int) -> SpectralStats:
    """Low-degree Fourier weight (degree <= d) plus influence data."""
    if not 0 <= d <= fn.n:
        raise ValueError(f"degree d={d} outside [0, {fn.n}]")
    sq = wht(fn).coeffs ** 2
    pc = popcounts(fn.n)
    low_weight = float(sq[pc <= d].sum())
    infl = per_coordinate_influence(fn)
    return SpectralStats(
        low_weight=low_weight,
        total_influence=float(infl.sum()),
        per_coordinate_influence=tuple(float(v) for v in infl),
    )


NS_DIRECT_MAX_DIM = 14


def noise_sensitivity(fn: BooleanFunction, delta: float, method: str = "spectral") -> float:
    """Probability that f differs on a point and its delta-noisy copy.

    method="spectral" uses (1 - sum_S (1-2 delta)^{|S|} coef[S]^2) / 2;
    method="direct" enumerates noise patterns exhaustively (n <= 14) and is
    the independent oracle the spectral form is validated against.
    """
    if not isinstance(fn, BooleanFunction):
        raise TypeError("noise sensitivity is defined for Boolean functions")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"noise rate delta={delta} outside [0, 1]")
    n = fn.n
    if method == "spectral":
        sq = wht(fn).coeffs ** 2
        rho = (1.0 - 2.0 * delta) ** popcounts(n)
        return float((1.0 - np.dot(rho, sq)) / 2.0)
    if method == "direct":
        if n > NS_DIRECT_MAX_DIM:
            raise DimensionTooLarge(f"direct path limited to n <= {NS_DIRECT_MAX_DIM}")
        idx = np.arange(1 << n)
        table = fn.table.astype(np.float64)
        pc = popcounts(n)
        # log-free weights: delta^k (1-delta)^(n-k) per flip pattern
        weights = delta ** pc * (1.0 - delta) ** (n - pc)
        total = 0.0
        for e in range(1 << n):
            if weights[e] == 0.0:
                continue
            mismatch = np.mean(table != table[idx ^ e])
            total += weights[e] * mismatch
        return float(total)
    raise ValueError(f"unknown method {method!r}")


def _check_same_dim(f: CubeFunction, g: CubeFunction) -> None:
    if f.n != g.n:
        raise DimensionMismatch(f"dimension mismatch: {f.n} vs {g.n}")


def l1_distance(f: CubeFunction, g: CubeFunction) -> float:
    """E|f - g| under the uniform distribution."""
    _check_same_dim(f, g)
    return float(np.mean(np.abs(f.table.astype(np.float64) - g.table)))


def correlation(f: CubeFunction, g: CubeFunction) -> float:
    """E[f g] under the uniform distribution."""
    _check_same_dim(f, g)
    return float(np.mean(f.table.astype(np.float64) * g.table))


@dataclass(frozen=True)
class ResilienceCheck:
    resilient: bool
    worst_mask: int
    worst_coefficient: float
    exact: bool


def is_d_resilient(fn: CubeFunction, d: int, tol: float = 1e-9) -> ResilienceCheck:
    """Check max_{|S| <= d} |coef[S]| <= tol, reporting the worst offender.

    Boolean inputs go through exact integer arithmetic (their nonzero
    coefficients are at least 2^-n, so the default tolerance makes the
    verdict an exact-zero certificate); bounded inputs use floats.
    """
    if not 0 <= d <= fn.n:
        raise ValueError(f"degree d={d} outside [0, {fn.n}]")
    pc = popcounts(fn.n)
    low = pc <= d
    masks = np.nonzero(low)[0]
    if isinstance(fn, BooleanFunction):
        coeffs = wht_int(fn)
        vals = np.abs(coeffs[low])
        worst = int(np.argmax(vals))
        scale = float(1 << fn.n)
        return ResilienceCheck(
            resilient=bool(vals[worst] / scale <= tol),
            worst_mask=int(masks[worst]),
            worst_coefficient=float(vals[worst]) / scale,
            exact=True,
        )
    coeffs = wht(fn).coeffs
    vals = np.abs(coeffs[low])
    worst = int(np.argmax(vals))
    return ResilienceCheck(
        resilient=bool(vals[worst] <= tol),
        worst_mask=int(masks[worst]),
        worst_coefficient=float(vals[worst]),
        exact=False,
    )


# ---------------------------------------------------------------------------
# shared serialization formats
# ---------------------------------------------------------------------------

def write_truth_table(fn: CubeFunction, path: str) -> None:
    """Write the repo-wide truth-table text format.

    Line 1 is `n=<k>`, line 2 holds exactly 2^k space-separated entries in
    point-index order.
    """
    if isinstance(fn, BooleanFunction):
        entries = " ".join(str(int(v)) for v in fn.table)
    else:
        entries = " ".join(repr(float(v)) for v in fn.table)
    with open(path, "w") as handle:
        handle.write(f"n={fn.n}\n{entries}\n")


def read_truth_table(path: str) -> CubeFunction:
    """Parse the truth-table text format; +-1 integer tables come back Boolean."""
    with open(path) as handle:
        header = handle.readline().strip()
        body = handle.readline().split()
    if not header.startswith("n="):
        raise ValueError(f"bad truth-table header {header!r}")
    n = int(header[2:])
    if len(body) != (1 << n):
        raise ValueError(f"expected {1 << n} entries, found {len(body)}")
    values = np.array([float(tok) for tok in body])
    if np.all(np.abs(values) == 1.0) and np.all(values == np.round(values)):
        return BooleanFunction(n, values.astype(np.int8))
    return BoundedFunction(n, values)


def spectrum_to_json(spectrum: Spectrum) -> str:
    """Spectrum as a JSON map from hex mask to coefficient."""
    return json.dumps({hex(mask): float(c) for mask, c in enumerate(spectrum.coeffs)})


def spectrum_from_json(payload: str) -> Spectrum:
    data = json.loads(payload)
    size = len(data)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("spectrum JSON must have 2^n entries")
    coeffs = np.zeros(size)
    for key, value in data.items():
        coeffs[int(key, 16)] = value
    return Spectrum(n, coeffs)
