"""Resilience/distance amplification by disjoint self-composition.

f_0 = f and f_{j+1} = f o f_j, where outer coordinate i reads the i-th block
of f_j's bits; g_k is built from g the same way.  The amplification
distance needs no composed table: it follows from a recursion on the
correlation E[f_k g_k] (`amplification_report`), exact at every depth.
Composition on tables (`compose`, up to 22 bits) and the composed
resilience certificate are test oracles in `tests/reference.py`, which the
recursion is checked against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .hypercube import (
    BooleanFunction,
    BoundedFunction,
    CubeFunction,
    correlation,
    is_d_resilient,
    l1_distance,
    noise_sensitivity,
    per_coordinate_influence,
    popcounts,
    wht,
)

# Deepest composition a report computes: the largest k whose arity 2^(k+1)
# has at most 4300 decimal digits, Python's default limit.  At n >= 2 the
# arity check rejects a deeper k first; at n = 1, or with no digit limit,
# this bound keeps the recursion's time and memory, linear in k, in check.
MAX_DEPTH = 14283


@dataclass(frozen=True)
class AmplificationReport:
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
    if not all(is_d_resilient(fn, 0, tol=1e-12).resilient for fn in (f, g)):
        raise ValueError("amplification needs balanced (mean-zero) inputs")

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
    if k > MAX_DEPTH:
        raise ValueError(f"amplification depth k={k} exceeds MAX_DEPTH = {MAX_DEPTH}")
    dist_base = l1_distance(f, g) / 2.0
    influence = float(per_coordinate_influence(f).sum())
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
    rhos = [correlation(f, g)]
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
        arity=n ** (k + 1),
        dist_base=dist_base,
        influence=influence,
        cor2_bound=cor2_bound,
        dist_measured=dist_measured,
        ns_delta_exact=ns_exact,
        ns_union_bound=ns_union,
    )
