"""Disjoint composition and resilience/distance amplification.

Composition is evaluated through the multilinear-extension identity: for
independent random signs b(t) with mean t,

    E[G(b(t_1), ..., b(t_m))] = sum_T Ghat(T) prod_{i in T} t_i,

so (G o g)(x^1, ..., x^m) is the multilinear extension of G applied to the
vector of inner values.  Compositions are lazy (any size); materialization
and exact resilience certificates are capped at 22 total bits.  The
amplification distance needs no composed table: it follows from a
recursion on the correlation E[f_k g_k] (`amplification_report`), exact at
every depth.

One evaluator, `_multilinear`, serves every lazy evaluation.  It runs
Horner's scheme over the two halves of the coefficient table, p(t) =
p_lo(t') + t_j p_hi(t') with j the top coordinate: 2^m - 1 multiply-adds at
most, and a half whose coefficients are all zero is skipped, so sparse outer
spectra stay cheap.

Block convention: outer coordinate i (1-based) reads bits
[(i-1)*inner_arity, i*inner_arity) of the composed point index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .hypercube import (
    BooleanFunction,
    BoundedFunction,
    CubeFunction,
    Spectrum,
    noise_sensitivity,
    popcounts,
    spectral_stats,
    wht,
    wht_int,
)

COMPOSE_MAX_BITS = 22
FLOAT_ZERO_TOL = 1e-10  # a float Fourier coefficient at most this large counts as 0


class ArityOverflow(ValueError):
    pass


@dataclass(frozen=True)
class ComposedFunction:
    outer_spectrum: Spectrum
    inner: "ComposedFunction | BooleanFunction | BoundedFunction"
    depth: int

    @property
    def arity(self) -> int:
        return self.outer_spectrum.n * _arity(self.inner)

    def evaluate(self, indices: np.ndarray) -> np.ndarray:
        return _evaluate(self, np.asarray(indices, dtype=np.int64))


def _arity(fn) -> int:
    return fn.arity if isinstance(fn, ComposedFunction) else fn.n


def _horner(coeffs: np.ndarray, vals: np.ndarray, j: int):
    """sum_T coeffs[T] prod_{i in T} vals[i] over the 2^j masks of coeffs.

    Splits on coordinate j-1: p = p_lo + vals[j-1] * p_hi over the halves of
    coeffs.  Returns a float when only the constant term is left.  A
    module-level function on purpose: a closure that calls itself is a
    reference cycle and would keep `vals` alive until the cyclic GC runs.
    """
    if j == 0:
        return float(coeffs[0])
    half = len(coeffs) >> 1
    lo, hi = coeffs[:half], coeffs[half:]
    if not hi.any():
        return _horner(lo, vals, j - 1)
    out = vals[j - 1] * _horner(hi, vals, j - 1)
    if lo.any():
        out += _horner(lo, vals, j - 1)
    return out


def _multilinear(spectrum: Spectrum, vals: np.ndarray) -> np.ndarray:
    """Multilinear extension of the outer function; vals[j] holds the values
    of coordinate j+1 (any trailing shape, which the result keeps)."""
    out = _horner(spectrum.coeffs, vals, spectrum.n)
    if np.ndim(out) == 0:
        return np.full(vals.shape[1:], out)
    return out


def _evaluate(fn, indices: np.ndarray) -> np.ndarray:
    if isinstance(fn, ComposedFunction):
        m = fn.outer_spectrum.n
        inner_ar = _arity(fn.inner)
        block_mask = (1 << inner_ar) - 1
        tvals = np.empty((m, len(indices)))
        for i in range(m):
            tvals[i] = _evaluate(fn.inner, (indices >> (i * inner_ar)) & block_mask)
        return _multilinear(fn.outer_spectrum, tvals)
    return fn.table[indices].astype(np.float64)


def compose(outer: CubeFunction, inner) -> ComposedFunction:
    """Lazy disjoint composition outer o inner."""
    depth = inner.depth + 1 if isinstance(inner, ComposedFunction) else 1
    return ComposedFunction(wht(outer), inner, depth)


def materialize(c: ComposedFunction) -> BoundedFunction:
    if c.arity > COMPOSE_MAX_BITS:
        raise ArityOverflow(f"{c.arity} bits exceeds the {COMPOSE_MAX_BITS}-bit cap")
    return BoundedFunction(c.arity, c.evaluate(np.arange(1 << c.arity)))


def self_composition(base: CubeFunction, k: int):
    """f_k with f_0 = base and f_j = base o f_{j-1} (outer factor fixed)."""
    if k < 0:
        raise ValueError("composition depth must be nonnegative")
    current = base
    for _ in range(k):
        current = compose(base, current)
    return current


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
    return _spectral_order(fn.n, wht(fn).coeffs, FLOAT_ZERO_TOL)


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
    c = compose(G, g)
    if c.arity > COMPOSE_MAX_BITS:
        raise ArityOverflow(f"exact certification needs <= {COMPOSE_MAX_BITS} bits")
    table = materialize(c)
    sharp = (d1 + 1) * (d2 + 1) - 1
    coeffs = wht(table).coeffs
    pc = popcounts(table.n)
    low = np.abs(coeffs[pc <= min(sharp, table.n)])
    max_low = float(low.max()) if len(low) else 0.0
    measured = _spectral_order(table.n, coeffs, FLOAT_ZERO_TOL)
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


@dataclass(frozen=True)
class AmplificationReport:
    n: int
    k: int
    arity: int
    dist_base: float
    influence: float
    cor2_bound: float
    dist_measured: float
    ns_delta_exact: float
    ns_union_bound: float
    # Constant now that every depth is exact; kept so that readers of the
    # sampled report's fields keep working.
    exact: bool = True
    ci_width: float = 0.0
    samples: int = 0


def _check_balanced(fn: CubeFunction) -> None:
    mean = float(np.mean(fn.table.astype(np.float64)))
    if abs(mean) > 1e-12:
        raise ValueError("amplification needs balanced (mean-zero) inputs")


def level_correlations(f: CubeFunction, g: CubeFunction) -> np.ndarray:
    """W_i = sum_{|S|=i} fhat(S) ghat(S) for i = 0..n."""
    products = wht(f).coeffs * wht(g).coeffs
    return np.bincount(popcounts(f.n), weights=products, minlength=f.n + 1)


def amplification_report(
    f: BooleanFunction, g: BoundedFunction, k: int
) -> AmplificationReport:
    """Measure dist(f_k, g_k) against the geometric-series amplification bound.

    Distance is (1/2) E|f_k - g_k|.  Since f_k is +-1 and g_k lies in
    [-1, 1], |f_k - g_k| = 1 - f_k g_k, so the distance is (1 - rho_k)/2
    with rho_k = E[f_k g_k].  The blocks of a composition are independent
    and balanced, so E[chi_S(a) prod_{i in T} b_i] = 0 unless S = T and

        rho_{t+1} = P(rho_t) = sum_i W_i rho_t^i,  rho_0 = E[f g],

    with W from `level_correlations`: exact at every depth k, with no
    composed table.  P(1) = E[f g] (Parseval) is checked against the table
    mean.  Also reports the exact noise sensitivity of f at rate dist(f, g)
    next to its union bound dist * Inf[f].
    """
    if f.n != g.n:
        raise ValueError("inner and outer bases must share a dimension")
    if k < 1:
        raise ValueError("amplification depth k must be >= 1")
    _check_balanced(f)
    _check_balanced(g)

    n = f.n
    dist_base = float(np.mean(np.abs(f.table - g.table))) / 2.0
    influence = spectral_stats(f, 0).total_influence
    try:
        series = sum(influence**t for t in range(k + 1))
    except OverflowError:
        series = math.inf
    if not math.isfinite(series):
        raise ValueError(
            f"the bound's sum of Inf[f]^t over t <= {k} is not finite "
            f"(Inf[f] = {influence})"
        )
    cor2_bound = dist_base * series

    delta = min(max(dist_base, 0.0), 1.0)
    ns_exact = noise_sensitivity(f, delta)
    ns_union = delta * influence
    if ns_exact > ns_union + 1e-12:
        raise AssertionError("noise sensitivity exceeded its union bound")

    weights = level_correlations(f, g)
    rhos = [float(np.mean(f.table * g.table))]
    total = float(polyval(1.0, weights))
    if abs(total - rhos[0]) > 1e-12:
        raise AssertionError(
            f"Parseval check failed: sum_i W_i = {total} but E[f g] = {rhos[0]}"
        )
    for _ in range(k):
        rhos.append(float(polyval(rhos[-1], weights)))  # Horner's scheme
    outside = [t for t, rho in enumerate(rhos) if abs(rho) > 1.0 + 1e-12]
    if outside:
        t = outside[0]
        raise AssertionError(f"correlation rho_{t} = {rhos[t]} left [-1, 1]")
    dist_measured = (1.0 - rhos[-1]) / 2.0

    if dist_measured > cor2_bound + 1e-9:
        raise AssertionError(
            f"measured distance {dist_measured} exceeds the amplification bound "
            f"{cor2_bound}"
        )
    return AmplificationReport(
        n=n,
        k=k,
        arity=n ** (k + 1),
        dist_base=dist_base,
        influence=influence,
        cor2_bound=cor2_bound,
        dist_measured=dist_measured,
        ns_delta_exact=ns_exact,
        ns_union_bound=ns_union,
    )
