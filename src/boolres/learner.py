"""Degree-d L1 polynomial regression agnostic learner.

Exact mode minimizes the labeled objective E|p(x) - y| over degree-<=d
polynomials, where y = +-1 has conditional mean g(x); grouping the two
label values per point turns this into the finite weighted sum
sum_x up_x |p(x) - 1| + down_x |p(x) + 1|.  Sampled mode minimizes the same
sum with the empirical label frequencies as weights.

Both modes solve it through its dual, the k-row box LP of `duality`
(k = #{|S| <= d}): one column per labeled point (x, l) of nonzero weight w,

    max sum_c l_c g_c  s.t. sum_c g_c chi_S(x_c) = 0 for |S| <= d, |g_c| <= w_c,

and p = sum_S y_S chi_S is read off its row duals.  The simplex starts at
the box-optimal vertex g_c = w_c l_c.  When the target is d-resilient (the
sums sum_c w_c l_c chi_S(x_c) all vanish) that vertex is feasible, so the
all-slack starting basis is optimal at pivot 0 and its duals give p = 0.
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

from dataclasses import dataclass

import numpy as np

from .duality import SparsePolynomial, _l1_box_lp, l1_poly_distance
from .hypercube import BooleanFunction, BoundedFunction
from .lp import SolverFailure

EXACT_MAX_DIM_BOOLEAN = 12
EXACT_MAX_DIM_BOUNDED = 10
REGRESSION_TOL = 1e-7


@dataclass(frozen=True)
class LabeledDistribution:
    """Uniform marginal over the cube with conditional label mean g."""

    g: BoundedFunction

    @property
    def n(self) -> int:
        return self.g.n

    def label_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Point-mass weights of (x, y=+1) and (x, y=-1) pairs."""
        size = 1 << self.n
        up = (1.0 + self.g.table) / 2.0 / size
        down = (1.0 - self.g.table) / 2.0 / size
        return up, down


@dataclass(frozen=True)
class LearnReport:
    hypothesis: BooleanFunction
    error: float              # Pr[h(x) != y] under the true distribution
    regression_delta: float   # optimal E|p - y| (empirical in sampled mode)
    threshold: float
    poly: SparsePolynomial
    opt: float | None = None
    excess: float | None = None
    empirical_error: float | None = None
    m: int | None = None
    seed: int | None = None


def opt_of_class(functions: list[BooleanFunction], dist: LabeledDistribution) -> float:
    """Exact min over the class of Pr[c(x) != y] = E[(1 - c g)/2]."""
    if not functions:
        raise ValueError("empty comparison class")
    best = np.inf
    for c in functions:
        if c.n != dist.n:
            raise ValueError("class member dimension mismatch")
        best = min(best, float(np.mean((1.0 - c.table * dist.g.table) / 2.0)))
    return best


def _l1_regression(
    n: int, d: int, up: np.ndarray, down: np.ndarray
) -> tuple[SparsePolynomial, float]:
    """Minimize sum_x up_x |p(x) - 1| + down_x |p(x) + 1| over degree-<=d p.

    Solved as the k-row box LP with one column per labeled point of nonzero
    weight, started at its box-optimal vertex g_c = w_c l_c.
    """
    points = np.tile(np.arange(1 << n), 2)
    labels = np.repeat([1.0, -1.0], 1 << n)
    weights = np.concatenate([up, down])
    keep = weights > 0
    sol, masks = _l1_box_lp(n, d, points[keep], labels[keep], weights[keep])
    coeffs = {mask: float(y) for mask, y in zip(masks, sol.duals)}
    return SparsePolynomial(n, d, coeffs), sol.value


def _best_threshold(
    p_table: np.ndarray, up: np.ndarray, down: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Deterministic sweep over all breakpoints of p.

    Error of h_t = sign(p - t) (value +1 iff p(x) > t) equals
    sum_x [up_x (1 - h)/2 + down_x (1 + h)/2]; minimized exactly over the
    2^n + 1 distinct behaviors.  Ties resolve to the smallest threshold.
    """
    total_up = float(up.sum())
    total_down = float(down.sum())
    order = np.argsort(p_table, kind="stable")
    sorted_p = p_table[order]
    up_sorted = up[order]
    down_sorted = down[order]

    # candidate thresholds: below everything, then each distinct value
    # h = +1 exactly on the strict suffix above the threshold
    boundaries = np.nonzero(np.diff(sorted_p) > 0)[0]
    cut_positions = np.concatenate([[0], boundaries + 1, [len(sorted_p)]])
    up_prefix = np.concatenate([[0.0], np.cumsum(up_sorted)])
    down_prefix = np.concatenate([[0.0], np.cumsum(down_sorted)])
    best_err, best_cut = np.inf, 0
    for cut in cut_positions:
        # points with index >= cut get h = +1
        err = down_prefix[-1] - down_prefix[cut] + up_prefix[cut]
        if err < best_err - 1e-15:
            best_err, best_cut = float(err), int(cut)
    if best_cut == 0:
        threshold = float(sorted_p[0] - 1.0)
    else:
        threshold = float(sorted_p[best_cut - 1])
    h = np.where(p_table > threshold, 1, -1).astype(np.int8)
    err_direct = float(up[h < 0].sum() + down[h > 0].sum())
    return threshold, err_direct, h


def learn_exact(
    dist: LabeledDistribution,
    d: int,
    epsilon: float,
    comparison_class: list[BooleanFunction] | None = None,
) -> LearnReport:
    """Exact-expectation regression + optimal thresholding.

    When a comparison class is supplied, the excess-error contract
    excess <= Delta_d(C)/2 + epsilon is asserted with Delta computed by the
    independent L1-approximation LP over the class.
    """
    n = dist.n
    g = dist.g
    boolean_target = bool(np.all(np.abs(g.table) == 1.0))
    limit = EXACT_MAX_DIM_BOOLEAN if boolean_target else EXACT_MAX_DIM_BOUNDED
    if n > limit:
        raise ValueError(f"exact mode limited to n <= {limit} for this target type")
    up, down = dist.label_weights()
    poly, delta = _l1_regression(n, d, up, down)

    p_table = poly.table()
    recomputed = float(np.sum(up * np.abs(p_table - 1.0) + down * np.abs(p_table + 1.0)))
    if abs(recomputed - delta) > REGRESSION_TOL:
        raise SolverFailure(
            f"regression objective {delta} disagrees with recomputation {recomputed}"
        )

    threshold, error, h_table = _best_threshold(p_table, up, down)
    opt = excess = None
    if comparison_class is not None:
        opt = opt_of_class(comparison_class, dist)
        excess = error - opt
        delta_class = max(
            l1_poly_distance(c, d).delta for c in comparison_class
        )
        if excess > delta_class / 2.0 + epsilon + 1e-9:
            raise AssertionError(
                f"excess error {excess} exceeded Delta/2 + eps = "
                f"{delta_class / 2.0 + epsilon}"
            )
    return LearnReport(
        hypothesis=BooleanFunction(n, h_table),
        error=error,
        regression_delta=delta,
        threshold=threshold,
        poly=poly,
        opt=opt,
        excess=excess,
    )


def learn_sampled(
    dist: LabeledDistribution,
    d: int,
    m: int,
    seed: int,
    comparison_class: list[BooleanFunction] | None = None,
) -> LearnReport:
    """Empirical-L1 regression over m labeled samples, seed-mandatory.

    The hypothesis threshold minimizes the empirical error; the report
    carries both the empirical error and the exact true error.
    """
    if m < 1:
        raise ValueError("sample count m must be positive")
    n = dist.n
    if n > EXACT_MAX_DIM_BOOLEAN:
        raise ValueError(f"sampled mode limited to n <= {EXACT_MAX_DIM_BOOLEAN}")
    rng = np.random.default_rng(seed)
    size = 1 << n
    xs = rng.integers(0, size, size=m)
    gvals = dist.g.table[xs]
    ys = np.where(rng.random(m) < (1.0 + gvals) / 2.0, 1, -1)

    up_counts = np.bincount(xs[ys > 0], minlength=size).astype(np.float64) / m
    down_counts = np.bincount(xs[ys < 0], minlength=size).astype(np.float64) / m
    poly, delta_emp = _l1_regression(n, d, up_counts, down_counts)

    p_table = poly.table()
    emp_threshold, emp_error, h_table = _best_threshold(p_table, up_counts, down_counts)
    hypothesis = BooleanFunction(n, h_table)
    up, down = dist.label_weights()
    true_error = float(up[h_table < 0].sum() + down[h_table > 0].sum())

    opt = excess = None
    if comparison_class is not None:
        opt = opt_of_class(comparison_class, dist)
        excess = true_error - opt
    return LearnReport(
        hypothesis=hypothesis,
        error=true_error,
        regression_delta=delta_emp,
        threshold=emp_threshold,
        poly=poly,
        opt=opt,
        excess=excess,
        empirical_error=emp_error,
        m=m,
        seed=seed,
    )
