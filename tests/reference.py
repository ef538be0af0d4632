"""Brute-force reference implementations that tests check the package
against, and the oracles of the paper's lemmas that only tests evaluate:
the resilience order read off the full spectrum, disjoint composition and
its resilience certificate, Tribes by one block mask at a time and its
closed-form spectrum, the symmetric
threshold functions f_t and their exact statistics, the low-degree
concentration probe, truth-table writing, junta embedding and the learner's
excess-error contract."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from boolres.duality import SparsePolynomial, l1_poly_distance
from boolres.hypercube import (
    BooleanFunction,
    BoundedFunction,
    CubeFunction,
    DimensionTooLarge,
    characters,
    is_d_resilient,
    low_degree_part,
    popcounts,
    wht,
    wht_int,
)
from boolres.learner import LearnReport, learn_exact
from boolres.zoo import FtStats, _check_ft_args, _tribes_check

INT64_BITS = 62  # integer paths keep |value| <= 2^62, inside int64
NS_DIRECT_MAX_DIM = 14


def noise_sensitivity_direct(fn: BooleanFunction, delta: float) -> float:
    """`noise_sensitivity` by exhaustive enumeration of the noise patterns
    (n <= 14), the independent oracle the spectral form is validated against."""
    if not isinstance(fn, BooleanFunction):
        raise TypeError("noise sensitivity is defined for Boolean functions")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"noise rate delta={delta} outside [0, 1]")
    n = fn.n
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


def shift_orbit(x: int, n: int) -> frozenset[int]:
    """Closure of a point under cyclic shifts and negation, one member at a time."""
    mask = (1 << n) - 1
    members = set()
    v = x
    for _ in range(n):
        members.add(v)
        members.add(v ^ mask)  # global negation = complement index
        v = ((v >> 1) | ((v & 1) << (n - 1))) & mask
    return frozenset(members)


# ---------------------------------------------------------------------------
# resilience order from the full spectrum
# ---------------------------------------------------------------------------

FLOAT_ZERO_TOL = 1e-10  # a float Fourier coefficient at most this large counts as 0


def _spectral_order(n: int, coeffs: np.ndarray, tol: float) -> int:
    """Largest d with |coeffs[S]| <= tol for every |S| <= d (n if none exceeds tol)."""
    nonzero = np.nonzero(np.abs(coeffs) > tol)[0]
    if len(nonzero) == 0:
        return n
    return int(popcounts(n)[nonzero].min()) - 1


def resilience_order(fn: CubeFunction) -> int:
    """Largest d such that fn is d-resilient (n for the zero function)."""
    if isinstance(fn, BooleanFunction):
        return _spectral_order(fn.n, wht_int(fn), 0)
    return _spectral_order(fn.n, wht(fn), FLOAT_ZERO_TOL)


# ---------------------------------------------------------------------------
# disjoint composition
#
# Composition is the multilinear extension of the outer function at the inner
# values: for independent random signs b_i with mean t_i,
#
#     E[G(b_1, ..., b_m)] = sum_y G(y) prod_i (1 + y_i t_i) / 2,
#
# so (G o g)(x^1, ..., x^m) is this sum at t_i = g(x^i).  `compose` computes
# it for every composed point at once, contracting each axis of the outer
# table, reshaped to (2,)*m, with the (2, 2^a) weights [(1 + g)/2, (1 - g)/2]
# (a = inner arity).  Composed tables are capped at 22 total bits.
#
# Block convention: outer coordinate i (1-based) reads bits
# [(i-1)*a, i*a) of the composed point index.
# ---------------------------------------------------------------------------

COMPOSE_MAX_BITS = 22


class ArityOverflow(ValueError):
    pass


def compose(outer: CubeFunction, inner: CubeFunction) -> CubeFunction:
    """Disjoint composition outer o inner, as a table of outer.n * inner.n bits.

    A Boolean inner gives weights of exactly 0 and 1, so the contraction
    only copies outer values: a Boolean pair composes exactly and comes
    back Boolean.
    """
    m, a = outer.n, inner.n
    if m * a > COMPOSE_MAX_BITS:
        raise ArityOverflow(f"{m * a} bits exceeds the {COMPOSE_MAX_BITS}-bit cap")
    t = inner.table.astype(np.float64)
    weights = np.stack([(1.0 + t) / 2.0, (1.0 - t) / 2.0])
    table = outer.table.astype(np.float64).reshape((2,) * m)
    # axis 0 is the top outer coordinate; each contraction appends its
    # block last, so the blocks end in the order of the block convention
    for _ in range(m):
        table = np.tensordot(table, weights, axes=(0, 0))
    table = table.reshape(-1)
    if isinstance(outer, BooleanFunction) and isinstance(inner, BooleanFunction):
        return BooleanFunction(m * a, table.astype(np.int8))
    return BoundedFunction(m * a, table)


def self_composition(base: CubeFunction, k: int) -> CubeFunction:
    """f_k with f_0 = base and f_j = base o f_{j-1} (outer factor fixed)."""
    if k < 0:
        raise ValueError("composition depth must be nonnegative")
    current = base
    for _ in range(k):
        current = compose(base, current)
    return current


@dataclass(frozen=True)
class ComposedResilienceCertificate:
    d1: int
    d2: int
    guaranteed_order: int  # d1 * d2
    sharp_order: int       # (d1+1)(d2+1) - 1
    measured_order: int
    max_low_coefficient: float  # over |S| <= sharp_order
    arity: int


def check_composed_resilience(
    G: CubeFunction, g: CubeFunction
) -> ComposedResilienceCertificate:
    """Exact spectrum check of the composed function's resilience.

    Certifies the product guarantee d1*d2 and the sharper
    (d1+1)(d2+1) - 1 level that holds because every surviving outer
    set has size > d1; orders d1, d2 are measured from the inputs.
    """
    d1 = resilience_order(G)
    d2 = resilience_order(g)
    table = compose(G, g)
    sharp = (d1 + 1) * (d2 + 1) - 1
    max_low = 0.0
    if sharp >= 0:
        max_low = is_d_resilient(table, min(sharp, table.n)).worst_coefficient
    measured = resilience_order(table)
    if max_low > FLOAT_ZERO_TOL:
        raise AssertionError(
            f"composition broke the resilience guarantee: coefficient {max_low:.3e} "
            f"at order <= {sharp}"
        )
    return ComposedResilienceCertificate(
        d1=d1,
        d2=d2,
        guaranteed_order=d1 * d2,
        sharp_order=sharp,
        measured_order=measured,
        max_low_coefficient=max_low,
        arity=table.n,
    )


# ---------------------------------------------------------------------------
# Tribes closed forms
# ---------------------------------------------------------------------------


def tribes_loop(w: int, s: int) -> BooleanFunction:
    """Tribes one block mask at a time over an int64 index array: the oracle
    for `zoo.tribes`'s outer products."""
    _tribes_check(w, s)
    n = w * s
    idx = np.arange(1 << n, dtype=np.int64)
    fired = np.zeros(1 << n, dtype=bool)
    for block in range(s):
        bmask = ((1 << w) - 1) << (block * w)
        fired |= (idx & bmask) == bmask
    return BooleanFunction(n, np.where(fired, -1, 1))


def tribes_spectrum_closed_form(w: int, s: int) -> np.ndarray:
    """All 2^(ws) closed-form Fourier coefficients of Tribes, indexed by mask."""
    _tribes_check(w, s)
    masks = np.arange(1 << (w * s), dtype=np.uint64)
    size = popcounts(w * s)
    hit = np.zeros(len(masks), dtype=np.int64)
    for block in range(s):
        bmask = np.uint64(((1 << w) - 1) << (block * w))
        hit += (masks & bmask) != 0
    q = 1.0 - 2.0 ** (-w)
    coeffs = 2.0 * (-1.0) ** (hit + size) * 2.0 ** (-hit * w) * q ** (s - hit)
    coeffs[0] = 2.0 * q**s - 1.0
    return coeffs


def tribes_weight_bound(w: int, s: int, d: int) -> float:
    """Upper bound 2 (2 ln n)^(2d+4) / n for the Fourier weight at degree <= d."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = w * s
    return 2.0 * (2.0 * math.log(n)) ** (2 * d + 4) / n


# ---------------------------------------------------------------------------
# symmetric threshold functions f_t
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricFunction:
    """Function of the coordinate sum; level k holds the value at k plus-ones."""

    n: int
    level_values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.level_values, dtype=np.float64)
        if vals.shape != (self.n + 1,):
            raise ValueError("level_values must have n+1 entries")
        if not np.all(np.isfinite(vals)):
            raise ValueError("level values must be finite")
        if np.max(np.abs(vals), initial=0.0) > 1.0:
            raise ValueError("level values must lie in [-1, 1]")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "level_values", vals)

    def to_bounded(self) -> BoundedFunction:
        k = self.n - popcounts(self.n)  # number of +1 coordinates
        return BoundedFunction(self.n, self.level_values[k])


def threshold_ft(t: float, n: int) -> SymmetricFunction:
    """Sign of the coordinate sum, zeroed on the band |sum| <= t sqrt(n)."""
    _check_ft_args(t, n)
    tau = t * math.sqrt(n)
    levels = np.arange(n + 1) * 2 - n  # sum at k plus-ones
    vals = np.where(levels > tau, 1.0, np.where(levels < -tau, -1.0, 0.0))
    return SymmetricFunction(n, vals)


def ft_stats_exact(t: float, n: int) -> FtStats:
    """`zoo.ft_stats` from running integer binomials over every level, each
    tested exactly with s = 2k - n > tau as an int-float comparison, and one
    Fraction per statistic at the end."""
    _check_ft_args(t, n)
    tau = t * math.sqrt(n)
    comb = 1  # C(n, k)
    infl = supp = 0
    for k in range(n + 1):
        s = 2 * k - n
        if s > tau:
            infl += comb * s
            supp += comb
        comb = comb * (n - k) // (k + 1)
    return FtStats(n, t, float(Fraction(2 * infl, 1 << n)), float(Fraction(2 * supp, 1 << n)))


# ---------------------------------------------------------------------------
# low-degree concentration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationProbe:
    p2norm_lowpart: float
    tail_prob: float


def concentration_probe(f: BooleanFunction, d: int, t: float) -> ConcentrationProbe:
    """Exact tail mass Pr[|l(x)| >= t ||l||_2] of the low-degree part.

    Returns the raw pair so callers can fit empirical concentration
    constants; no universal constant is asserted.  A degree d >= n gives
    l = f.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"probe threshold t must be finite and positive, got {t}")
    if not isinstance(f, BooleanFunction):
        raise ValueError("the probe needs a Boolean (+-1) function")
    size = 1 << f.n
    l_num = low_degree_part(f.table, min(d, f.n))
    # ||l||_2^2 = E[l f], since l is the projection of f
    norm = math.sqrt(int(l_num @ f.table.astype(np.int64)) / (size * size))
    tail = float(np.mean(np.abs(l_num / size) >= t * norm))
    return ConcentrationProbe(p2norm_lowpart=norm, tail_prob=tail)


def poly_table(poly: SparsePolynomial, n: int) -> np.ndarray:
    """p's values at every point of the n-cube, in point-index order."""
    return poly.evaluate(characters(list(poly.coeffs), np.arange(1 << n)))


# ---------------------------------------------------------------------------
# truth-table files and junta embeddings
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


MAX_AMBIENT_DIM = 22


def embed_on_mask(base: CubeFunction, mask: int, ambient: int) -> CubeFunction:
    """The function on `ambient` variables that reads base's variable i off
    the i-th lowest set bit of mask, of base's type."""
    if int(mask).bit_count() != base.n:
        raise ValueError("the mask's popcount must match the base arity")
    if not 0 <= mask < 1 << ambient:
        raise ValueError("mask outside the ambient range")
    if ambient > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension limited to {MAX_AMBIENT_DIM}")
    # axis a of the (2,) * ambient view of a table is bit ambient - 1 - a
    shape = [2 if mask >> (ambient - 1 - a) & 1 else 1 for a in range(ambient)]
    table = np.broadcast_to(base.table.reshape(shape), (2,) * ambient).reshape(-1)
    return type(base)(ambient, table)


# ---------------------------------------------------------------------------
# the learner's excess-error contract
# ---------------------------------------------------------------------------


def opt_of_class(functions: list[BooleanFunction], g: CubeFunction) -> float:
    """Exact min over the class of Pr[c(x) != y] = E[(1 - c g)/2]."""
    if not functions:
        raise ValueError("empty comparison class")
    best = np.inf
    for c in functions:
        if c.n != g.n:
            raise ValueError("class member dimension mismatch")
        best = min(best, float(np.mean((1.0 - c.table * g.table) / 2.0)))
    return best


def learn_against_class(
    g: CubeFunction, d: int, comparison_class: list[BooleanFunction]
) -> tuple[LearnReport, float, float]:
    """`learn_exact(g, d)` with its report, the class optimum opt and the
    excess error over it.

    The excess-error contract excess <= Delta_d(C)/2 is asserted with Delta
    computed by the independent L1-approximation LP over the class.
    """
    report = learn_exact(g, d)
    opt = opt_of_class(comparison_class, g)
    excess = report.error - opt
    delta_class = max(l1_poly_distance(c, d).delta for c in comparison_class)
    if excess > delta_class / 2.0 + 1e-9:
        raise AssertionError(f"excess error {excess} exceeded Delta/2 = {delta_class / 2.0}")
    return report, opt, excess
