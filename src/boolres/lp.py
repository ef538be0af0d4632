"""Dense bounded-variable two-phase simplex.

Small-scale exact-ish LP machinery: dense arithmetic in float64 at tolerance
1e-9, fully deterministic pivoting, no randomization.  The entering rule is
largest reduced-cost violation with smallest-index tie-breaking; long
degenerate stalls refactorize the tableau and switch to Bland's
smallest-index rule, the anti-cycling guard, until real progress resumes.
Ratio ties pick the largest pivot element (stability) or, in Bland mode,
the smallest basic variable index (termination).  Certificates are never
trusted to the pivot arithmetic alone; callers re-verify solutions against
the original data.

Problems are stated as maximization over box-bounded variables with dense
equality constraints:

    max  objective . x    s.t.  eq_matrix @ x = eq_rhs,  lower <= x <= upper

with finite bounds only.  Internally each variable is shifted, x = lower + y,
so it lives in [0, upper - lower]; artificial columns provide the starting
basis, and a standard two-phase method runs on the full tableau B^-1 A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
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
    iterations: int
    duals: np.ndarray | None = None  # y = c_B B^-1, when optimal


REFACTOR_PERIOD = 200          # pivots between refactorizations
REFACTOR_MAX_ELEMENTS = 25_000_000  # above this the original matrix is not kept


def _stall_limit(m: int) -> int:
    """Degenerate pivots in a row, on m rows, before Bland's rule takes over."""
    return max(200, 2 * m)


class _Simplex:
    """Full-tableau bounded simplex state: T = B^-1 A over all columns."""

    def __init__(self, A, b, upper):
        self.m, self.ncols = A.shape
        self.T = A.astype(np.float64).copy()
        # degenerate pivot chains erode T; keep the original data for
        # periodic refactorization where memory allows
        self.A0 = A.astype(np.float64).copy() if A.size <= REFACTOR_MAX_ELEMENTS else None
        self.b = b.astype(np.float64).copy()
        self.upper = upper
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.status = np.full(self.ncols, _AT_LOWER, dtype=np.int8)
        self.xb = np.zeros(self.m)
        self.iterations = 0
        self.bland_entries = 0

    def nonbasic_values(self) -> np.ndarray:
        vals = np.zeros(self.ncols)
        at_up = self.status == _AT_UPPER
        vals[at_up] = self.upper[at_up]
        return vals

    def point(self) -> np.ndarray:
        vals = self.nonbasic_values()
        vals[self.basis] = self.xb
        return vals

    def refactor(self) -> None:
        """Rebuild T = B^-1 A and the basic values from the original data."""
        if self.A0 is None:
            return
        basis_matrix = self.A0[:, self.basis]
        vals = self.nonbasic_values()
        rhs = self.b - self.A0 @ vals
        try:
            solved = np.linalg.solve(
                basis_matrix, np.concatenate([self.A0, rhs[:, None]], axis=1)
            )
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("basis matrix became numerically singular") from exc
        self.T = np.ascontiguousarray(solved[:, :-1])
        self.xb = solved[:, -1]

    def run(self, cost: np.ndarray, max_iterations: int) -> str:
        m, upper = self.m, self.upper
        can_move = upper > 0.0  # zero-width columns can never change the point
        stall_limit = _stall_limit(m)
        stalled = 0
        bland = False
        pivots_since_refactor = 0
        refactor_pending = False
        while True:
            if self.iterations >= max_iterations:
                return ITERATION_LIMIT
            if refactor_pending:
                self.refactor()
                pivots_since_refactor = 0
                refactor_pending = False
            T = self.T
            z = cost - cost[self.basis] @ T
            violation = np.zeros(self.ncols)
            lo_ok = can_move & (self.status == _AT_LOWER)
            up_ok = can_move & (self.status == _AT_UPPER)
            violation[lo_ok] = z[lo_ok]
            violation[up_ok] = -z[up_ok]
            if bland:
                candidates = np.nonzero(violation > PIVOT_TOL)[0]
                if len(candidates) == 0:
                    return OPTIMAL
                j = int(candidates[0])  # Bland: smallest eligible index
            else:
                j = int(np.argmax(violation))  # Dantzig; argmax ties break low
                if violation[j] <= PIVOT_TOL:
                    return OPTIMAL
            direction = 1.0 if self.status[j] == _AT_LOWER else -1.0
            col = direction * T[:, j]

            t_self = upper[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                dec = col > PIVOT_TOL
                inc = col < -PIVOT_TOL
                ratios = np.full(m, np.inf)
                ratios[dec] = np.maximum(self.xb[dec], 0.0) / col[dec]
                ub = upper[self.basis]
                room = ub[inc] - self.xb[inc]
                finite = np.isfinite(room)
                inc_idx = np.nonzero(inc)[0][finite]
                ratios[inc_idx] = np.maximum(room[finite], 0.0) / (-col[inc_idx])
            t_rows = float(np.min(ratios)) if m else np.inf
            t_star = min(t_self, t_rows)
            if not np.isfinite(t_star):
                return UNBOUNDED

            self.iterations += 1
            # Dantzig can stall on long degenerate runs; Bland's rule is the
            # anti-cycling guard, entered on fresh (refactored) data so its
            # termination argument applies to accurate reduced costs
            if t_star <= 1e-12:
                stalled += 1
                if stalled == stall_limit and not bland:
                    bland = True
                    self.bland_entries += 1
                    refactor_pending = True
                    continue
            else:
                stalled = 0
                bland = False
            if t_self <= t_rows:
                # bound flip, basis unchanged
                self.xb -= t_self * col
                self.status[j] = _AT_UPPER if direction > 0 else _AT_LOWER
                continue
            tied = np.nonzero(ratios <= t_star + 1e-12)[0]
            if bland:
                r = int(tied[np.argmin(self.basis[tied])])  # termination choice
            else:
                r = int(tied[np.argmax(np.abs(col[tied]))])  # stability choice
            leaving = int(self.basis[r])
            leaves_at_upper = col[r] < 0

            pivot = T[r, j]
            T[r, :] /= pivot
            rest = np.arange(m) != r
            T[rest, :] -= np.outer(T[rest, j], T[r, :])
            self.xb -= t_star * col
            entering_value = (0.0 if direction > 0 else upper[j]) + direction * t_star
            self.xb[r] = entering_value
            self.basis[r] = j
            self.status[j] = _BASIC
            self.status[leaving] = _AT_UPPER if leaves_at_upper else _AT_LOWER
            pivots_since_refactor += 1
            if pivots_since_refactor >= REFACTOR_PERIOD:
                refactor_pending = True


def solve_lp(
    lp: LinearProgram,
    *,
    initial_at_upper: np.ndarray | None = None,
    max_iterations: int = 200_000,
) -> LPSolution:
    """Solve a box-bounded equality LP (maximization), deterministically.

    `initial_at_upper` rests the selected variables at their upper bound
    in the starting point; the rest start at their lower bound.

    An optimal solve also returns the row duals `y = c_B B^-1` of its final
    basis, read off the artificial columns after one last refactorization;
    they are not re-checked here.
    """
    # x = lower + y with 0 <= y <= upper - lower
    A = lp.eq_matrix
    m, nreal = A.shape
    upper = lp.upper - lp.lower
    b = lp.eq_rhs - A @ lp.lower
    at_upper = np.zeros(nreal, dtype=bool)
    if initial_at_upper is not None:
        at_upper[:] = initial_at_upper

    resid = b - A @ np.where(at_upper, upper, 0.0)
    signs = np.where(resid >= 0, 1.0, -1.0)
    full = np.hstack([A, np.diag(signs)])
    sx = _Simplex(full, b, np.concatenate([upper, np.full(m, np.inf)]))
    sx.status[:nreal][at_upper] = _AT_UPPER
    sx.basis = np.arange(nreal, nreal + m, dtype=np.int64)
    sx.status[sx.basis] = _BASIC
    sx.T *= signs[:, None]
    sx.xb = np.abs(resid)
    if np.max(sx.xb, initial=0.0) > FEAS_TOL:
        phase1_cost = np.concatenate([np.zeros(nreal), -np.ones(m)])
        status = sx.run(phase1_cost, max_iterations)
        if status == ITERATION_LIMIT:
            return LPSolution(ITERATION_LIMIT, float("nan"), None, sx.iterations)
        art_value = float(phase1_cost[sx.basis] @ sx.xb)
        if art_value < -FEAS_TOL:
            return LPSolution(INFEASIBLE, float("nan"), None, sx.iterations)
    # pin artificials to zero for phase 2
    sx.upper[nreal:] = 0.0
    phase2_cost = np.concatenate([lp.objective, np.zeros(m)])

    status = sx.run(phase2_cost, max_iterations)

    duals = None
    if status == OPTIMAL:
        # fresh B^-1 from the original data, then y = c_B B^-1 off the
        # artificial columns, which hold B^-1 diag(signs)
        sx.refactor()
        duals = phase2_cost[sx.basis] @ (sx.T[:, nreal:] * signs)

    point = lp.lower + sx.point()[:nreal]
    value = float(lp.objective @ point)

    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, float("inf"), None, sx.iterations)
    if status == ITERATION_LIMIT:
        return LPSolution(ITERATION_LIMIT, value, point, sx.iterations)

    residual = float(np.max(np.abs(lp.eq_matrix @ point - lp.eq_rhs), initial=0.0))
    if residual > FEAS_TOL:
        raise SolverFailure(f"optimal point violates constraints (residual {residual:.3e})")
    if np.any(point < lp.lower - FEAS_TOL) or np.any(point > lp.upper + FEAS_TOL):
        raise SolverFailure("optimal point violates box bounds")
    return LPSolution(OPTIMAL, value, point, sx.iterations, duals)
