"""Degree-d L1 polynomial regression agnostic learner.

Exact mode minimizes the labeled objective E|p(x) - y| over degree-<=d
polynomials, where y = +-1 has conditional mean g(x); grouping the two
label values per point turns this into the finite weighted sum
sum_x up_x |p(x) - 1| + down_x |p(x) + 1|.  Sampled mode minimizes the same
sum with the empirical label frequencies as weights.

Both modes solve it through its dual, the k-row box LP of `duality`
(k = #{|S| <= d}): one column per labeled point (x, l) of nonzero weight w,

    max sum_c l_c g_c  s.t. sum_c g_c chi_S(x_c) = 0 for |S| <= d, |g_c| <= w_c,

its rows the cube's character rows once per label.  `_fit` serves both
modes: `duality._cube_fit` builds the rows, solves the LP, checks p's L1
error against the LP value and returns p = sum_S y_S chi_S as the row
duals y by mask, and `_fit` evaluates p on the cube's rows.  The simplex
starts at the box-optimal vertex g_c = w_c l_c.  When the target is
d-resilient (the sums sum_c w_c l_c chi_S(x_c) all vanish) that vertex is
feasible, so the all-slack starting basis is optimal at pivot 0 and its
duals give p = 0.
Such a target can have other optimal p (the optimal face is degenerate)
whose thresholds happen to correlate with it through higher degrees; the
start picks p = 0, so the hypothesis is a constant and a d-resilient
target stays as hard as the degree-d regression says it is.

The regressor is rounded to a Boolean hypothesis by the deterministic
error-minimizing threshold over all breakpoint values of p (exhausting
every distinct behavior of sign(p - t)), which dominates the randomized
threshold in expectation.

Exact-expectation mode plays the role of tolerance-zero statistical
queries; query tolerance itself is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .duality import MAX_DUALITY_DIM, _combine, _cube_fit
from .hypercube import BooleanFunction, CubeFunction


@dataclass(frozen=True)
class LearnReport:
    hypothesis: BooleanFunction
    error: float              # Pr[h(x) != y] under the true distribution
    regression_delta: float   # optimal E|p - y| (empirical in sampled mode)
    threshold: float
    coefficients: dict[int, float]
    empirical_error: float | None = None


def _label_weights(g: CubeFunction) -> tuple[np.ndarray, np.ndarray]:
    """Point-mass weights of (x, y=+1) and (x, y=-1) when E[y | x] = g(x)."""
    size = 1 << g.n
    return (1.0 + g.table) / 2.0 / size, (1.0 - g.table) / 2.0 / size


def _error(h: np.ndarray, up: np.ndarray, down: np.ndarray) -> float:
    """Pr[h(x) != y] under the point-mass weights (up, down)."""
    return float(up[h < 0].sum() + down[h > 0].sum())


def _best_threshold(
    p_table: np.ndarray, up: np.ndarray, down: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Deterministic sweep over all breakpoints of p.

    Error of h_t = sign(p - t) (value +1 iff p(x) > t) equals
    sum_x [up_x (1 - h)/2 + down_x (1 + h)/2]; minimized exactly over the
    2^n + 1 distinct behaviors.  Ties (errors within 1e-15 of the minimum)
    resolve to the smallest threshold.
    """
    order = np.argsort(p_table, kind="stable")
    sorted_p = p_table[order]
    # candidate thresholds: below everything, then each distinct value;
    # h = +1 exactly on the points of sorted index >= cut
    boundaries = np.nonzero(np.diff(sorted_p) > 0)[0]
    cuts = np.concatenate([[0], boundaries + 1, [len(sorted_p)]])
    up_prefix = np.concatenate([[0.0], np.cumsum(up[order])])
    down_prefix = np.concatenate([[0.0], np.cumsum(down[order])])
    errs = down_prefix[-1] - down_prefix[cuts] + up_prefix[cuts]
    best_cut = int(cuts[np.argmax(errs <= errs.min() + 1e-15)])
    threshold = float(sorted_p[best_cut - 1] if best_cut else sorted_p[0] - 1.0)
    h = np.where(p_table > threshold, 1, -1).astype(np.int8)
    return threshold, _error(h, up, down), h


def _fit(n: int, d: int, up: np.ndarray, down: np.ndarray) -> LearnReport:
    """Minimize sum_x up_x |p(x) - 1| + down_x |p(x) + 1| over degree-<=d p,
    as the box LP over the labeled points of nonzero weight, then round p by
    the best threshold.  The report's error is the hypothesis' error under
    (up, down); its regression_delta is p's L1 error recomputed over those
    points, which `_l1_box_lp` has checked against the LP value.
    """
    labels = np.repeat([1.0, -1.0], 1 << n)
    weights = np.concatenate([up, down])
    keep = weights > 0
    sol, delta, coefficients, chi = _cube_fit(
        n, d, np.flatnonzero(keep) % (1 << n), labels[keep], weights[keep])
    threshold, error, h_table = _best_threshold(_combine(sol.duals, chi), up, down)
    return LearnReport(BooleanFunction(n, h_table), error, delta, threshold, coefficients)


def learn_exact(g: CubeFunction, d: int) -> LearnReport:
    """Exact-expectation regression + optimal thresholding on the labels
    with conditional mean g."""
    if g.n > MAX_DUALITY_DIM:
        raise ValueError(f"exact mode limited to n <= {MAX_DUALITY_DIM}")
    return _fit(g.n, d, *_label_weights(g))


def learn_sampled(g: CubeFunction, d: int, m: int, seed: int) -> LearnReport:
    """Empirical-L1 regression over m samples labeled with conditional mean g,
    seed-mandatory.

    The hypothesis threshold minimizes the empirical error; the report
    carries both the empirical error and the exact true error.
    """
    if m < 1:
        raise ValueError("sample count m must be positive")
    if seed < 0:
        raise ValueError(f"sample seed must be non-negative, got {seed}")
    n = g.n
    if n > MAX_DUALITY_DIM:
        raise ValueError(f"sampled mode limited to n <= {MAX_DUALITY_DIM}")
    rng = np.random.default_rng(seed)
    size = 1 << n
    xs = rng.integers(0, size, size=m)
    gvals = g.table[xs]
    ys = np.where(rng.random(m) < (1.0 + gvals) / 2.0, 1, -1)

    up_counts = np.bincount(xs[ys > 0], minlength=size).astype(np.float64) / m
    down_counts = np.bincount(xs[ys < 0], minlength=size).astype(np.float64) / m
    fit = _fit(n, d, up_counts, down_counts)

    true_error = _error(fit.hypothesis.table, *_label_weights(g))
    return replace(fit, error=true_error, empirical_error=fit.error)
