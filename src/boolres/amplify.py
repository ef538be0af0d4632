"""Disjoint composition and resilience/distance amplification.

Composition is the multilinear extension of the outer function at the inner
values: for independent random signs b_i with mean t_i,

    E[G(b_1, ..., b_m)] = sum_y G(y) prod_i (1 + y_i t_i) / 2,

so (G o g)(x^1, ..., x^m) is this sum at t_i = g(x^i).  `compose` computes
it for every composed point at once, contracting each axis of the outer
table, reshaped to (2,)*m, with the (2, 2^a) weights [(1 + g)/2, (1 - g)/2]
(a = inner arity).  Composed tables are capped at 22 total bits.  The
amplification distance needs no composed table: it follows from a
recursion on the correlation E[f_k g_k] (`amplification_report`), exact at
every depth.

Block convention: outer coordinate i (1-based) reads bits
[(i-1)*a, i*a) of the composed point index.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .hypercube import (
    FLOAT_ZERO_TOL,
    BooleanFunction,
    BoundedFunction,
    CubeFunction,
    is_d_resilient,
    noise_sensitivity,
    popcounts,
    resilience_order,
    spectral_stats,
    wht,
)

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
    products = wht(f) * wht(g)
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
    # the report's arity n^(k+1) must be writable as a decimal string; it
    # has more than `limit` digits iff it is >= 10^limit, and the float test
    # first spares computing a huge power (no limit before Python 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and ((k + 1) * math.log10(n) > limit + 1 or n ** (k + 1) >= 10**limit):
        raise ValueError(
            f"the arity {n}^{k + 1} has more than {limit} decimal digits, "
            "too many to write as an integer"
        )
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
