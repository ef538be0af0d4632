"""Distance-to-resilience and degree-d L1 regression as a dual LP pair.

For a Boolean f and degree d, the two programs are

    primal:  max sum_x f(x) g(x)   s.t. sum_x g(x) chi_S(x) = 0 for |S| <= d,
             -1 <= g(x) <= 1
    dual:    min sum_x |f(x) - p(x)|  over degree-<=d polynomials p

whose optima satisfy alpha = 1 - value/2^n and delta = value/2^n with
alpha + delta = 1.  Only the primal is solved, a box LP with one row per
|S| <= d; the dual's p = sum_S y_S chi_S comes from the row duals
y = c_B B^-1 of its optimal basis.  The learner's weighted regression is
the same LP over weighted labeled points.  `_cube_fit` owns its rows: it
builds the cube's character rows once per solve, takes the columns of the
caller's points, and reads p's coefficients off the row duals by mask, for
the resilience LP and both learner modes alike.  `_l1_box_lp` solves the LP
and rechecks p = y^T rows against the LP value.

`distance_to_resilience` is the one Boolean entry point: each call solves
the LP once and returns one `DualityCertificate` holding g, alpha, the gap
and, as its `l1` part, p and delta; `l1_poly_distance` returns that part
alone and also takes a bounded f.

Neither side is taken on trust.  The witness g is re-checked for the box
and for d-resilience, and alpha is its measured E|f - g|.  `_l1_box_lp`
recomputes E|f - p| over its columns and matches it to the LP value; that
recomputed value is reported as delta.
The certificate stays sound by weak duality: for every bounded d-resilient
g and every p of degree <= d,

    E[f g] = E[(f - p) g] <= E|f - p|,

so alpha + delta >= 1 holds for any pair that passed these checks, and the
residual gap |alpha + delta - 1|, measured between two separately verified
objects, bounds how far each is from optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .hypercube import (
    BooleanFunction,
    BoundedFunction,
    characters,
    is_d_resilient,
    l1_distance,
)
from .lp import OPTIMAL, LinearProgram, LPSolution, SolverFailure, solve_lp

MAX_DUALITY_DIM = 12
WITNESS_TOL = 1e-7


class CertificateError(RuntimeError):
    """A solver result failed its independent re-verification."""


def low_degree_masks(n: int, d: int) -> list[int]:
    """All subset masks with popcount <= d, sorted by (popcount, mask): the
    cube LPs' row order, on which their pivots depend.  Needs 0 <= d <= n."""
    if not 0 <= d <= n:
        raise ValueError(f"degree d={d} outside [0, {n}]")
    levels = ([sum(1 << j for j in s) for s in combinations(range(n), k)] for k in range(d + 1))
    return [mask for level in levels for mask in sorted(level)]


def _combine(coeffs, rows: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] rows[i] in row order, zero coefficients skipped: the
    one sum behind p's values, so p is the same to the bit on any columns."""
    values = np.zeros(rows.shape[1])
    for coef, row in zip(coeffs, rows):
        if coef != 0.0:
            values += coef * row
    return values


@dataclass(frozen=True)
class L1ApproxResult:
    delta: float
    coefficients: dict[int, float]
    lp_iterations: int


@dataclass(frozen=True)
class DualityCertificate:
    """Both sides of one resilience LP solve: the checked witness g with
    alpha = E|f - g|, the gap |alpha + delta - 1|, and in `l1` the checked
    p with delta and the pivot count."""

    alpha: float
    witness: BoundedFunction
    gap: float
    l1: L1ApproxResult


def _l1_box_lp(rows: np.ndarray, labels: np.ndarray,
               masses: np.ndarray) -> tuple[LPSolution, float]:
    """Solve the box LP over the k x m matrix `rows` and recheck p's error.

    Column c has label labels[c] and mass masses[c] > 0:

        max sum_c l_c g_c  s.t. rows @ g = 0,  -m_c <= g_c <= m_c

    Its dual is min sum_c m_c |l_c - p_c| over p = y^T rows, with y the row
    duals.  The solver starts at the box-optimal vertex g_c = m_c if l_c > 0
    else -m_c (= m_c l_c for +-1 labels); its pivots depend on the layout of
    `rows`, which `_cube_fit` hands over in C order.

    Returns the solution and sum_c m_c |l_c - p_c|, with p summed by
    `_combine`, which must be within 1e-7 sum_c m_c of the LP value.
    """
    sol = solve_lp(LinearProgram(objective=labels, eq_matrix=rows, lower=-masses, upper=masses))
    if sol.status != OPTIMAL:
        raise SolverFailure(f"k-row L1 box LP ended with status {sol.status}")
    error = float(np.sum(masses * np.abs(labels - _combine(sol.duals, rows))))
    if abs(error - sol.value) > WITNESS_TOL * float(np.sum(masses)):
        raise CertificateError(
            f"recomputed L1 error {error} does not match LP value {sol.value}"
        )
    return sol, error


def _cube_fit(n: int, d: int, points: np.ndarray, labels: np.ndarray,
              masses: np.ndarray) -> tuple[LPSolution, float, dict[int, float], np.ndarray]:
    """The box LP over the rows chi_S, |S| <= d, at `points`: built once on
    the cube, its columns taken as a fresh C-order array.  Returns the
    solution, its checked error, p's coefficients (the row duals by mask)
    and the cube's rows chi, on which p is `_combine(sol.duals, chi)`."""
    masks = low_degree_masks(n, d)
    chi = characters(masks, np.arange(1 << n))
    sol, error = _l1_box_lp(chi.take(points, axis=1), labels, masses)
    return sol, error, dict(zip(masks, sol.duals.tolist())), chi


def _resilience_lp(f: BooleanFunction, d: int) -> tuple[LPSolution, L1ApproxResult]:
    """The resilience LP: every point, labels f, masses 1; delta = E|f - p|
    from the checked error of the box LP."""
    n = f.n
    if n > MAX_DUALITY_DIM:
        raise ValueError(f"exact duality limited to n <= {MAX_DUALITY_DIM}")
    size = 1 << n
    sol, error, coefficients, _ = _cube_fit(n, d, np.arange(size), f.table, np.ones(size))
    delta = error / size
    if not 0.0 <= delta <= 2.0:
        raise CertificateError(f"delta {delta} outside [0, 2]")
    return sol, L1ApproxResult(delta, coefficients, sol.iterations)


def distance_to_resilience(f: BooleanFunction, d: int) -> DualityCertificate:
    """Exact L1 distance from f to the closest bounded d-resilient function,
    with both sides of its one LP solve verified and their duality gap.

    The primal point is the witness g: it must lie in the unit box, be
    d-resilient and have measured E|f - g| equal to the LP's alpha.
    """
    if not isinstance(f, BooleanFunction):
        raise ValueError("distance to resilience needs a Boolean (+-1) function")
    sol, l1 = _resilience_lp(f, d)
    point = sol.point
    if np.max(np.abs(point)) > 1.0 + WITNESS_TOL:
        raise CertificateError("witness exceeds the unit box beyond tolerance")
    witness = BoundedFunction(f.n, np.clip(point, -1.0, 1.0))
    check = is_d_resilient(witness, d, tol=WITNESS_TOL)
    if not check.resilient:
        raise CertificateError(
            f"witness is not {d}-resilient: coef[{check.worst_mask:#x}] = "
            f"{check.worst_coefficient:.3e}"
        )
    alpha_lp = 1.0 - sol.value / (1 << f.n)
    alpha = l1_distance(f, witness)
    if abs(alpha - alpha_lp) > WITNESS_TOL:
        raise CertificateError(f"witness distance {alpha} does not match LP alpha {alpha_lp}")
    return DualityCertificate(alpha, witness, abs(l1.delta + alpha - 1.0), l1)


def l1_poly_distance(f: BooleanFunction, d: int) -> L1ApproxResult:
    """Exact minimum of E|f - p| over polynomials of degree <= d.

    Also accepts a bounded f: the LP duality holds for any real labels.
    """
    return _resilience_lp(f, d)[1]
