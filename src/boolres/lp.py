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

with +-inf allowed in the bounds.  Internally variables are shifted,
mirrored or split so every variable lives in [0, u], artificial columns
provide the starting basis, and a standard two-phase method runs on the
full tableau B^-1 A.
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
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("bounds must not be NaN")
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
    duals: np.ndarray | None = None  # y = c_B B^-1, when optimal without initial_basis


@dataclass
class _Column:
    orig: int        # original variable index
    scale: float     # x contribution = scale * y (+ offset once per variable)
    offset: float


def _standardize(lp: LinearProgram):
    """Rewrite all variables into [0, u] columns; returns transformed data."""
    a = lp.eq_matrix
    m, n = a.shape
    cols: list[_Column] = []
    col_data: list[np.ndarray] = []
    col_cost: list[float] = []
    col_upper: list[float] = []
    b = lp.eq_rhs.astype(np.float64).copy()
    primary: list[int] = []  # transformed index of each original variable's main column
    for j in range(n):
        lo, hi, cj = lp.lower[j], lp.upper[j], lp.objective[j]
        if np.isfinite(lo):
            # x = y + lo, 0 <= y <= hi - lo
            primary.append(len(cols))
            cols.append(_Column(j, 1.0, float(lo)))
            col_data.append(a[:, j])
            col_cost.append(float(cj))
            col_upper.append(float(hi - lo))
            b -= a[:, j] * lo
        elif np.isfinite(hi):
            # x = hi - y, y >= 0
            primary.append(len(cols))
            cols.append(_Column(j, -1.0, float(hi)))
            col_data.append(-a[:, j])
            col_cost.append(float(-cj))
            col_upper.append(np.inf)
            b -= a[:, j] * hi
        else:
            # free: x = y1 - y2
            primary.append(len(cols))
            cols.append(_Column(j, 1.0, 0.0))
            col_data.append(a[:, j])
            col_cost.append(float(cj))
            col_upper.append(np.inf)
            cols.append(_Column(j, -1.0, 0.0))
            col_data.append(-a[:, j])
            col_cost.append(float(-cj))
            col_upper.append(np.inf)
    A = np.column_stack(col_data) if col_data else np.zeros((m, 0))
    return A, b, np.array(col_cost), np.array(col_upper), cols, primary


REFACTOR_PERIOD = 200          # pivots between refactorizations
REFACTOR_MAX_ELEMENTS = 25_000_000  # above this the original matrix is not kept


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

    def nonbasic_values(self) -> np.ndarray:
        vals = np.zeros(self.ncols)
        at_up = self.status == _AT_UPPER
        vals[at_up] = self.upper[at_up]
        return vals

    def point(self) -> np.ndarray:
        vals = self.nonbasic_values()
        vals[self.basis] = self.xb
        return vals

    def install_basis(self, basis: np.ndarray) -> None:
        """Install a basis of signed unit columns (each covering one row once)."""
        seen = np.full(self.m, -1, dtype=np.int64)
        order = np.zeros(self.m, dtype=np.int64)
        sign = np.zeros(self.m)
        for col in basis:
            column = self.T[:, col]
            nz = np.nonzero(np.abs(column) > PIVOT_TOL)[0]
            if len(nz) != 1 or abs(abs(column[nz[0]]) - 1.0) > PIVOT_TOL:
                raise ValueError("initial basis columns must be signed unit vectors")
            row = int(nz[0])
            if seen[row] != -1:
                raise ValueError("initial basis covers a row twice")
            seen[row] = col
            order[row] = col
            sign[row] = column[row]
        if np.any(seen < 0):
            raise ValueError("initial basis must cover every row")
        self.basis = order
        self.status[order] = _BASIC
        # B = diag(sign) under this ordering, so B^-1 scales rows by sign
        self.T = self.T * sign[:, None]
        self.xb = sign * self.b - self.T_times_nonbasic()
        if np.min(self.xb, initial=0.0) < -FEAS_TOL:
            raise ValueError("initial basis is not primal feasible")
        np.clip(self.xb, 0.0, None, out=self.xb)

    def T_times_nonbasic(self) -> np.ndarray:
        vals = self.nonbasic_values()
        nz = np.nonzero(vals)[0]
        if len(nz) == 0:
            return np.zeros(self.m)
        return self.T[:, nz] @ vals[nz]

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
        stall_limit = max(200, 2 * m)
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
    initial_basis: list[int] | None = None,
    initial_at_upper: np.ndarray | None = None,
    max_iterations: int = 200_000,
) -> LPSolution:
    """Solve a box-bounded equality LP (maximization), deterministically.

    `initial_basis` warm-starts the method from a caller-supplied basis of
    signed unit columns and `initial_at_upper` rests selected non-basic
    variables at their upper bound; both refer to original column indices of
    variables that are not internally split (finite lower or finite upper).

    An optimal solve from the artificial start also returns the row duals
    `y = c_B B^-1` of its final basis, read off the artificial columns after
    one last refactorization; they are not re-checked here.
    """
    A, b, cost, upper, cols, primary = _standardize(lp)
    m, nreal = A.shape

    at_upper_cols: list[int] = []
    if initial_at_upper is not None:
        for j in np.nonzero(initial_at_upper)[0]:
            tj = primary[int(j)]
            if not np.isfinite(upper[tj]):
                raise ValueError("initial_at_upper requires a finite upper bound")
            at_upper_cols.append(tj)

    if initial_basis is not None:
        # caller-supplied signed-unit basis: no artificial columns needed
        sx = _Simplex(A, b, upper)
        sx.status[[tj for tj in at_upper_cols]] = _AT_UPPER
        sx.install_basis(
            np.array([primary[int(j)] for j in initial_basis], dtype=np.int64)
        )
        phase2_cost = cost
    else:
        rest = np.zeros(nreal)
        for tj in at_upper_cols:
            rest[tj] = upper[tj]
        resid = b - A @ rest
        signs = np.where(resid >= 0, 1.0, -1.0)
        full = np.hstack([A, np.diag(signs)])
        sx = _Simplex(full, b, np.concatenate([upper, np.full(m, np.inf)]))
        sx.status[[tj for tj in at_upper_cols]] = _AT_UPPER
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
        phase2_cost = np.concatenate([cost, np.zeros(m)])

    status = sx.run(phase2_cost, max_iterations)

    duals = None
    if status == OPTIMAL and initial_basis is None:
        # fresh B^-1 from the original data, then y = c_B B^-1 off the
        # artificial columns, which hold B^-1 diag(signs)
        sx.refactor()
        duals = phase2_cost[sx.basis] @ (sx.T[:, nreal:] * signs)

    y = sx.point()[:nreal]
    point = np.zeros(len(lp.objective))
    offset_done = set()
    for tj, colinfo in enumerate(cols):
        if colinfo.orig not in offset_done:
            point[colinfo.orig] += colinfo.offset
            offset_done.add(colinfo.orig)
        point[colinfo.orig] += colinfo.scale * y[tj]
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
