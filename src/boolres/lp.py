"""Bounded dual simplex with a bound-flipping ratio test.

Problems are stated as maximization over box-bounded variables with dense
equality constraints:

    max  objective . x    s.t.  eq_matrix @ x = 0,  lower <= x <= upper

with finite bounds only; the problem is feasible iff the box meets the null
space of eq_matrix.  Internally each variable is shifted, x = lower + y, so
it lives in [0, upper - lower] under A y = -A lower, and one slack column
per row, fixed at [0, 0], completes the matrix to [A | I].

Every variable is boxed, so the box-optimal vertex (y_j at its upper bound
iff objective_j > 0) with the all-slack basis is dual feasible: the row
duals are 0 and each reduced cost is the objective itself.  No phase 1 is
needed.  A revised dual simplex then drives the slacks to zero.  It keeps
only a k x k inverse basis B^-1 (k rows), updated by rank-1 pivots and
rebuilt from the data every `REFACTOR_PERIOD` pivots; each pivot computes
one row alpha_r = e_r^T B^-1 [A | I] and one column B^-1 A_q, and writes no
k x (#columns) array.  Its full-length vectors go into buffers allocated
once per solve; what else it allocates is sized by k or by the candidate
columns of its ratio test.

Pricing picks the row of largest primal infeasibility, smallest index on
ties.  The ratio test is the bound-flipping ("long-step") one: every
breakpoint passed while the dual slope stays positive flips its variable to
the other bound; among the breakpoints within `TIE_TOL` of the one where it
stops, the largest |alpha_rj| enters, then the smallest index.  A slope
still positive after every breakpoint proves the primal infeasible.

Anti-cycling guard: at the first dual-degenerate pivot while no shift is
active, the nonbasic costs are shifted by a deterministic perturbation of
about `PERTURBATION_SCALE`, each in its dual-feasible direction.  The
box-optimal start needs it early: with +-1 costs and a +-1 row, every
breakpoint of the first pivot is 1, so that step zeroes about half the
reduced costs at once, and waiting out a run of degenerate pivots before
the shift only adds pivots.  When the basis turns primal feasible the shift is
removed: B^-1 is rebuilt, any nonbasic variable whose true reduced cost has
the wrong sign is flipped to its other bound, and dual iterations resume
(shifting again at their first degenerate pivot) until no flip is needed.

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
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        a = np.asarray(self.eq_matrix, dtype=np.float64)
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("eq_matrix must be two-dimensional")
        n = a.shape[1]
        if c.shape != (n,) or lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("objective/bounds length must match eq_matrix columns")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective must be finite")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("empty box: lower > upper")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


@dataclass
class LPSolution:
    status: str
    value: float
    point: np.ndarray | None
    iterations: int            # pivots
    duals: np.ndarray | None   # y = c_B B^-1 of the final basis
    basis: np.ndarray | None   # final basic indices into [A | I], row i's slack at #columns + i
    flips: int                 # bound flips
    degenerate: int            # dual-degenerate pivots
    perturbations: int         # entries into the anti-cycling guard
    refactors: int             # rebuilds of B^-1
    residual: float            # max |A x| of the final basic solution


def _perturbation(size: int) -> np.ndarray:
    """Deterministic, pairwise distinct shift magnitudes in [1, 2) * scale."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    return PERTURBATION_SCALE * (1.0 + np.mod(np.arange(1, size + 1) * golden, 1.0))


def _ratio_test(t: np.ndarray, abs_a: np.ndarray, weight: np.ndarray, slope0: float):
    """The bound-flipping ratio test over the candidate columns of one pivot.

    Candidate i has breakpoint t[i], |alpha_ri| = abs_a[i] and slope weight
    weight[i] = abs_a[i] * width; the dual slope starts at slope0, the
    leaving row's infeasibility.  The breakpoints are taken in (t, position)
    order.  The step stops at the first one that takes the slope to <= 0, or
    at the last one; among the breakpoints within TIE_TOL of that one, the
    largest |alpha_ri| enters, the smallest position on ties.

    Returns (passed, pick): the positions of the breakpoints passed before
    the stop, whose variables flip, and the position of the entering one;
    None when the slope stays above FEAS_TOL past every breakpoint, which
    proves the primal infeasible.  Only the shortest prefix that holds the
    stop and every breakpoint within TIE_TOL of it is sorted; it is the
    same prefix a full sort gives.
    """
    k = 64
    while True:
        if k < len(t):
            bound = np.partition(t, k - 1)[k - 1]
            order = (t <= bound + TIE_TOL).nonzero()[0]
            t_sorted = t[order]
            perm = t_sorted.argsort(kind="stable")
            order, t_sorted = order[perm], t_sorted[perm]
        else:
            bound = np.inf
            order = t.argsort(kind="stable")
            t_sorted = t[order]
        slope = slope0 - weight[order].cumsum()
        if slope[-1] <= 0.0:
            stop = int((slope <= 0.0).argmax())
            if t_sorted[stop] <= bound:  # the prefix holds all its ties
                break
        elif len(order) == len(t):
            if slope[-1] > FEAS_TOL:
                return None
            stop = len(order) - 1
            break
        k *= 8
    end = int(t_sorted.searchsorted(t_sorted[stop] + TIE_TOL, side="right"))
    if end - stop == 1:
        return order[:stop], int(order[stop])
    tie = order[stop:end]
    return order[:stop], int(tie[np.lexsort((tie, -abs_a[tie]))[0]])


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
        self.d = self.cost + self.shift
        self.y = self.d[self.basis] @ self.binv
        self.d[:n] -= self.y @ self.A  # reduced costs: cost - y^T [A | I]
        self.d[n:] -= self.y
        self.d[self.basis] = 0.0
        self.refactors += 1

    def flip(self, cols: np.ndarray) -> None:
        """Move nonbasic columns to their other bound and update x_B."""
        new_side = -self.side[cols]
        self.side[cols] = new_side
        self.xb -= self.binv @ (self.A[:, cols] @ (new_side * self.width[cols]))
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
        A, width, basis, side, n = self.A, self.width, self.basis, self.side, self.n
        # a pivot writes its full-length vectors into these
        basic_width = width[basis]
        infeas = np.empty(self.m)
        alpha = np.empty(n + self.m)  # the pivot row, then s t times it
        work = np.empty(n + self.m)   # s side alpha, then side d
        movable = np.empty(n + self.m, dtype=bool)
        since_refactor = 0
        settled = False
        while True:
            d = self.d  # refactor() replaces it
            np.subtract(self.xb, basic_width, out=infeas)
            np.maximum(-self.xb, infeas, out=infeas)
            r = int(infeas.argmax()) if self.m else 0
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
            # bounds the step when side_j * s * alpha_rj > 0, which then
            # equals |alpha_rj| (side_j = +-1).
            s = 1.0 if self.xb[r] < 0 else -1.0
            rho = self.binv[r]
            np.matmul(rho, A, out=alpha[:n])
            alpha[n:] = rho
            np.multiply(side, alpha, out=work)
            if s < 0:
                np.negative(work, out=work)
            np.greater(work, PIVOT_TOL, out=movable)
            cand = movable.nonzero()[0]
            if len(cand) == 0:
                return INFEASIBLE
            abs_a = work[cand]
            t = np.multiply(side, d, out=work)[cand]
            np.maximum(t, 0.0, out=t)
            t /= abs_a
            ratio = _ratio_test(t, abs_a, abs_a * width[cand], infeas[r])
            if ratio is None:
                return INFEASIBLE  # flipping every candidate leaves row r infeasible
            passed, pick = ratio
            q = int(cand[pick])
            step = float(t[pick])

            col = self.binv @ A[:, q]
            pivot = col[r]
            if since_refactor and abs(pivot - alpha[q]) > 1e-7 * max(1.0, abs(alpha[q])):
                self.refactor()  # row and column disagree: rebuild and price again
                since_refactor = 0
                continue

            if len(passed):
                self.flip(cand[passed])
            p = int(basis[r])
            target = 0.0 if s > 0 else width[p]
            theta = (self.xb[r] - target) / pivot
            entering_value = (width[q] if side[q] > 0 else 0.0) + theta
            self.xb -= theta * col
            self.xb[r] = entering_value

            row = rho / pivot
            self.binv -= col[:, None] * row
            self.binv[r] = row

            if step:
                alpha *= s * step
                d -= alpha
                d[basis] = 0.0
            d[p] = -s * step
            d[q] = 0.0
            basis[r] = q
            basic_width[r] = width[q]
            side[q] = 0.0
            side[p] = -s if width[p] > 0 else 0.0

            self.iterations += 1
            since_refactor += 1
            if step <= DEGENERATE_STEP:
                self.degenerate += 1
                if not self.shift.any():
                    self.perturb()
            if since_refactor >= REFACTOR_PERIOD:
                self.refactor()
                since_refactor = 0


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve a box-bounded equality LP (maximization), deterministically.

    The solve starts at the box-optimal vertex, so the start is fixed by the
    signs of the objective.  `iterations` counts pivots; a solve that uses
    up `MAX_ITERATIONS` of them stops with status `ITERATION_LIMIT`.  Only
    an optimal solve returns a point, its value, its final basis and that
    basis' row duals `y = c_B B^-1`, computed from a freshly rebuilt B^-1;
    the duals are not re-checked here.
    """
    # x = lower + y with 0 <= y <= upper - lower
    A = lp.eq_matrix
    b = -(A @ lp.lower)
    sx = _DualSimplex(A, b, lp.upper - lp.lower, lp.objective)
    status = sx.run()

    point, value, duals, basis = None, float("nan"), None, None
    x = lp.lower + sx.point()
    residual = float(np.max(np.abs(A @ x), initial=0.0))
    if status == OPTIMAL:
        if residual > FEAS_TOL:
            raise SolverFailure(f"optimal point violates constraints (residual {residual:.3e})")
        if np.any(x < lp.lower - FEAS_TOL) or np.any(x > lp.upper + FEAS_TOL):
            raise SolverFailure("optimal point violates box bounds")
        point, value, duals, basis = x, float(lp.objective @ x), sx.y, sx.basis
    return LPSolution(
        status, value, point, sx.iterations, duals, basis,
        flips=sx.flips,
        degenerate=sx.degenerate,
        perturbations=sx.perturbations,
        refactors=sx.refactors,
        residual=residual,
    )
