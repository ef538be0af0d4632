"""Bounded dual simplex with a bound-flipping ratio test.

Problems are stated as maximization over box-bounded variables with dense
equality constraints:

    max  objective . x    s.t.  eq_matrix @ x = eq_rhs,  lower <= x <= upper

with finite bounds only.  Internally each variable is shifted, x = lower + y,
so it lives in [0, upper - lower], and one slack column per row, fixed at
[0, 0], completes the matrix to [A | I].

Every variable is boxed, so the box-optimal vertex (y_j at its upper bound
iff objective_j > 0) with the all-slack basis is dual feasible: the row
duals are 0 and each reduced cost is the objective itself.  No phase 1 is
needed.  A revised dual simplex then drives the slacks to zero.  It keeps
only a k x k inverse basis B^-1 (k rows), updated by rank-1 pivots and
rebuilt from the data every `REFACTOR_PERIOD` pivots; each pivot computes
one row alpha_r = e_r^T B^-1 [A | I] and one column B^-1 A_q, and writes no
k x (#columns) array.

Pricing picks the row of largest primal infeasibility, smallest index on
ties.  The ratio test is the bound-flipping ("long-step") one: every
breakpoint passed while the dual slope stays positive flips its variable to
the other bound; at the chosen breakpoint, ties go to the largest |alpha_rj|,
then the smallest index.  A slope still positive after every breakpoint
proves the primal infeasible.

Anti-cycling guard: after `_stall_limit(k)` consecutive dual-degenerate
pivots, the nonbasic costs are shifted once by a deterministic perturbation
of about `PERTURBATION_SCALE`, each in its dual-feasible direction.  When
the basis turns primal feasible the shift is removed: B^-1 is rebuilt, any
nonbasic variable whose true reduced cost has the wrong sign is flipped to
its other bound, and dual iterations resume until no flip is needed.

Pivoting is deterministic, with no randomization.  Certificates are never
trusted to the pivot arithmetic alone; callers re-verify solutions against
the original data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9   # smallest |alpha_rj| the ratio test accepts
FEAS_TOL = 1e-8    # primal feasibility, and the final residual and box checks
DUAL_TOL = 1e-9    # reduced-cost sign tolerance when the cost shift is removed
DEGENERATE_STEP = 1e-12
TIE_TOL = 1e-12    # breakpoints this close count as one
PERTURBATION_SCALE = 1e-6
REFACTOR_PERIOD = 100  # pivots between rebuilds of B^-1
MAX_ITERATIONS = 200_000  # pivot budget of one solve

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration-limit"


class SolverFailure(RuntimeError):
    """An LP-backed operation could not obtain a verified optimum."""


@dataclass(frozen=True)
class LinearProgram:
    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        a = np.asarray(self.eq_matrix, dtype=np.float64)
        b = np.asarray(self.eq_rhs, dtype=np.float64)
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("eq_matrix must be two-dimensional")
        m, n = a.shape
        if c.shape != (n,) or lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("objective/bounds length must match eq_matrix columns")
        if b.shape != (m,):
            raise ValueError("eq_rhs length must match eq_matrix rows")
        if not np.all(np.isfinite(b)):
            raise ValueError("eq_rhs must be finite")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective must be finite")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("empty box: lower > upper")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


@dataclass
class LPSolution:
    status: str
    value: float
    point: np.ndarray | None
    iterations: int            # pivots
    duals: np.ndarray | None   # y = c_B B^-1 of the final basis
    flips: int                 # bound flips
    degenerate: int            # dual-degenerate pivots
    perturbations: int         # entries into the anti-cycling guard
    refactors: int             # rebuilds of B^-1
    residual: float            # max |A x - b| of the final basic solution


def _stall_limit(m: int) -> int:
    """Dual-degenerate pivots in a row, on m rows, before the costs are shifted."""
    return max(20, m)


def _perturbation(size: int) -> np.ndarray:
    """Deterministic, pairwise distinct shift magnitudes in [1, 2) * scale."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    return PERTURBATION_SCALE * (1.0 + np.mod(np.arange(1, size + 1) * golden, 1.0))


def _breakpoints(t: np.ndarray, weight: np.ndarray, slope0: float):
    """Breakpoints in (t, index) order, with the dual slope after each.

    Only the shortest prefix that takes the slope to <= 0 is sorted (all
    breakpoints if none does); it is the same prefix a full sort gives.
    """
    k = 64
    while True:
        if k < len(t):
            bound = np.partition(t, k - 1)[k - 1]
            order = np.nonzero(t <= bound + TIE_TOL)[0]
            order = order[np.argsort(t[order], kind="stable")]
        else:
            order = np.argsort(t, kind="stable")
        slope = slope0 - np.cumsum(weight[order])
        if slope[-1] <= 0.0 or len(order) == len(t):
            return order, slope
        k *= 8


class _DualSimplex:
    """Revised bounded dual simplex state on [A | I]; the slacks are fixed at 0.

    `side[j]` is +1 for a nonbasic column at its upper bound, -1 at its lower
    bound, and 0 for a basic column or a fixed one (zero width), which can
    never enter.  Dual feasibility reads side * d >= 0.
    """

    def __init__(self, A, b, width, cost):
        self.m, self.n = A.shape
        m, n = self.m, self.n
        self.A, self.b = A, b
        self.width = np.concatenate([width, np.zeros(m)])
        self.cost = np.concatenate([cost, np.zeros(m)])
        self.shift = np.zeros(n + m)
        self.basis = np.arange(n, n + m)
        # box-optimal start: the row duals are 0, so the reduced costs are c
        side = np.where(width > 0, np.where(cost > 0, 1.0, -1.0), 0.0)
        self.side = np.concatenate([side, np.zeros(m)])
        self.binv = np.eye(m)
        self.xb = b - A @ self.nonbasic_values()[:n]
        self.y = np.zeros(m)
        self.d = self.cost.copy()
        self.iterations = self.flips = self.degenerate = 0
        self.perturbations = self.refactors = 0

    def nonbasic_values(self) -> np.ndarray:
        return np.where(self.side > 0, self.width, 0.0)

    def point(self) -> np.ndarray:
        vals = self.nonbasic_values()
        vals[self.basis] = self.xb
        return vals[: self.n]

    def row(self, rho: np.ndarray) -> np.ndarray:
        """rho^T [A | I] over every column."""
        out = np.empty(self.n + self.m)
        np.matmul(rho, self.A, out=out[: self.n])
        out[self.n:] = rho
        return out

    def refactor(self) -> None:
        """Rebuild B^-1, the basic values and the reduced costs from the data."""
        m, n = self.m, self.n
        B = np.zeros((m, m))
        real = self.basis < n
        B[:, real] = self.A[:, self.basis[real]]
        B[self.basis[~real] - n, np.nonzero(~real)[0]] = 1.0
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("basis matrix became numerically singular") from exc
        self.xb = self.binv @ (self.b - self.A @ self.nonbasic_values()[:n])
        cost = self.cost + self.shift
        self.y = cost[self.basis] @ self.binv
        self.d = cost - self.row(self.y)
        self.d[self.basis] = 0.0
        self.refactors += 1

    def flip(self, cols: np.ndarray) -> None:
        """Move nonbasic columns to their other bound and update x_B."""
        step = -self.side[cols] * self.width[cols]
        self.side[cols] = -self.side[cols]
        self.xb -= self.binv @ (self.A[:, cols] @ step)
        self.flips += len(cols)

    def settle(self) -> bool:
        """Drop the cost shift, rebuild, and flip every nonbasic whose reduced
        cost has the wrong sign; True when none had to flip."""
        self.shift[:] = 0.0
        self.refactor()
        wrong = np.nonzero(self.side * self.d < -DUAL_TOL)[0]
        if len(wrong) == 0:
            return True
        self.flip(wrong)
        return False

    def perturb(self) -> None:
        """Shift each movable nonbasic cost away from zero in its feasible direction."""
        self.shift = self.side * _perturbation(len(self.cost))
        self.d += self.shift
        self.perturbations += 1

    def run(self) -> str:
        width, basis, side = self.width, self.basis, self.side
        stall_limit = _stall_limit(self.m)
        stalled = since_refactor = 0
        settled = False
        while True:
            infeas = np.maximum(-self.xb, self.xb - width[basis])
            r = int(np.argmax(infeas)) if self.m else 0
            if self.m == 0 or infeas[r] <= FEAS_TOL:
                if settled:
                    return OPTIMAL
                settled = self.settle()
                since_refactor = 0
                continue
            settled = False
            if self.iterations >= MAX_ITERATIONS:
                return ITERATION_LIMIT

            # s = +1: the leaving variable rises to its lower bound (0);
            # s = -1: it falls to its upper bound.  Reduced costs move as
            # d(t) = d - s t alpha_r for a dual step t >= 0, and column j
            # bounds the step when side_j * s * alpha_rj > 0.
            s = 1.0 if self.xb[r] < 0 else -1.0
            alpha = self.row(self.binv[r])
            side_alpha = side * alpha
            cand = np.nonzero(side_alpha > PIVOT_TOL if s > 0 else side_alpha < -PIVOT_TOL)[0]
            if len(cand) == 0:
                return INFEASIBLE
            abs_a = np.abs(alpha[cand])
            t = np.maximum(side[cand] * self.d[cand], 0.0) / abs_a
            order, slope = _breakpoints(t, abs_a * width[cand], infeas[r])
            if slope[-1] > FEAS_TOL:
                return INFEASIBLE  # flipping every candidate leaves row r infeasible
            stop = int(np.argmax(slope <= 0.0)) if slope[-1] <= 0.0 else len(order) - 1
            t_sorted = t[order]
            end = int(np.searchsorted(t_sorted, t_sorted[stop] + TIE_TOL, side="right"))
            tie = order[stop:end]
            pick = tie[np.lexsort((cand[tie], -abs_a[tie]))[0]]
            q = int(cand[pick])
            step = float(t[pick])

            col = self.binv @ self.A[:, q]
            pivot = col[r]
            if since_refactor and abs(pivot - alpha[q]) > 1e-7 * max(1.0, abs(alpha[q])):
                self.refactor()  # row and column disagree: rebuild and price again
                since_refactor = 0
                continue

            if stop:
                self.flip(cand[order[:stop]])
            p = int(basis[r])
            target = 0.0 if s > 0 else width[p]
            theta = (self.xb[r] - target) / pivot
            entering_value = (width[q] if side[q] > 0 else 0.0) + theta
            self.xb -= theta * col
            self.xb[r] = entering_value

            row = self.binv[r] / pivot
            self.binv -= np.outer(col, row)
            self.binv[r] = row

            if step:
                self.d -= (s * step) * alpha
                self.d[basis] = 0.0
            self.d[p] = -s * step
            self.d[q] = 0.0
            basis[r] = q
            side[q] = 0.0
            side[p] = -s if width[p] > 0 else 0.0

            self.iterations += 1
            since_refactor += 1
            if step <= DEGENERATE_STEP:
                self.degenerate += 1
                stalled += 1
                if stalled >= stall_limit and not self.shift.any():
                    self.perturb()
                    stalled = 0
            else:
                stalled = 0
            if since_refactor >= REFACTOR_PERIOD:
                self.refactor()
                since_refactor = 0


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve a box-bounded equality LP (maximization), deterministically.

    The solve starts at the box-optimal vertex, so the start is fixed by the
    signs of the objective.  `iterations` counts pivots; a solve that uses
    up `MAX_ITERATIONS` of them stops with status `ITERATION_LIMIT`.  Only
    an optimal solve returns a point, its value and the row duals
    `y = c_B B^-1` of its final basis, computed from a freshly rebuilt
    B^-1; the duals are not re-checked here.
    """
    # x = lower + y with 0 <= y <= upper - lower
    A = lp.eq_matrix
    b = lp.eq_rhs - A @ lp.lower
    sx = _DualSimplex(A, b, lp.upper - lp.lower, lp.objective)
    status = sx.run()

    point, value, duals = None, float("nan"), None
    x = lp.lower + sx.point()
    residual = float(np.max(np.abs(A @ x - lp.eq_rhs), initial=0.0))
    if status == OPTIMAL:
        if residual > FEAS_TOL:
            raise SolverFailure(f"optimal point violates constraints (residual {residual:.3e})")
        if np.any(x < lp.lower - FEAS_TOL) or np.any(x > lp.upper + FEAS_TOL):
            raise SolverFailure("optimal point violates box bounds")
        point, value, duals = x, float(lp.objective @ x), sx.y
    return LPSolution(
        status, value, point, sx.iterations, duals,
        flips=sx.flips,
        degenerate=sx.degenerate,
        perturbations=sx.perturbations,
        refactors=sx.refactors,
        residual=residual,
    )
