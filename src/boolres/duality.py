"""Distance-to-resilience and degree-d L1 regression as a dual LP pair.

For a Boolean f and degree d, the two programs are

    primal:  max sum_x f(x) g(x)   s.t. sum_x g(x) chi_S(x) = 0 for |S| <= d,
             -1 <= g(x) <= 1
    dual:    min sum_x |f(x) - p(x)|  over degree-<=d polynomials p

whose optima satisfy alpha = 1 - value/2^n and delta = value/2^n with
alpha + delta = 1.  Only the primal is solved, a box LP with one row per
|S| <= d; the dual's p = sum_S y_S chi_S comes from the row duals
y = c_B B^-1 of its optimal basis.

Neither side is taken on trust.  The witness g is re-checked for the box
and for d-resilience, and alpha is its measured E|f - g|.  E|f - p| is
recomputed from p's table, matched to the LP value, and reported as delta.
The certificate stays sound by weak duality: for every bounded d-resilient
g and every p of degree <= d,

    E[f g] = E[(f - p) g] <= E|f - p|,

so alpha + delta >= 1 holds for any pair that passed these checks, and the
residual gap |alpha + delta - 1|, measured between two separately verified
objects, bounds how far each is from optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypercube import (
    BooleanFunction,
    BoundedFunction,
    ResilienceCheck,
    chi_values,
    is_d_resilient,
    l1_distance,
    popcounts,
)
from .lp import OPTIMAL, LinearProgram, LPSolution, SolverFailure, solve_lp

MAX_DUALITY_DIM = 12
WITNESS_TOL = 1e-7


class CertificateError(RuntimeError):
    """A solver result failed its independent re-verification."""


def low_degree_masks(n: int, d: int) -> list[int]:
    """All subset masks with popcount <= d, sorted by (popcount, mask)."""
    pc = popcounts(n)
    masks = [int(m) for m in np.nonzero(pc <= d)[0]]
    masks.sort(key=lambda m: (int(pc[m]), m))
    return masks


@dataclass(frozen=True)
class SparsePolynomial:
    """Real multilinear polynomial with support on subsets of size <= degree."""

    n: int
    degree: int
    coeffs: dict[int, float]

    def __post_init__(self):
        pc = popcounts(self.n)
        for mask in self.coeffs:
            if pc[mask] > self.degree:
                raise ValueError(f"mask {mask:#x} exceeds degree bound {self.degree}")

    def table(self) -> np.ndarray:
        values = np.zeros(1 << self.n)
        for mask, coef in self.coeffs.items():
            if coef != 0.0:
                values += coef * chi_values(self.n, mask)
        return values


@dataclass(frozen=True)
class ResilienceResult:
    alpha: float
    witness: BoundedFunction
    d: int
    lp_iterations: int
    witness_check: ResilienceCheck


@dataclass(frozen=True)
class L1ApproxResult:
    delta: float
    poly: SparsePolynomial
    d: int
    lp_iterations: int


@dataclass(frozen=True)
class DualityCertificate:
    alpha: float
    delta: float
    gap: float
    resilience: ResilienceResult
    l1: L1ApproxResult


def _check_inputs(f: BooleanFunction, d: int) -> None:
    if f.n > MAX_DUALITY_DIM:
        raise ValueError(f"exact duality limited to n <= {MAX_DUALITY_DIM}")
    if not 0 <= d <= f.n:
        raise ValueError(f"degree d={d} outside [0, {f.n}]")


def _constraint_matrix(n: int, masks: list[int]) -> np.ndarray:
    return np.array([chi_values(n, mask) for mask in masks], dtype=np.float64)


def _resilience_lp(f: BooleanFunction, d: int) -> tuple[LPSolution, list[int]]:
    """Solve the k-row resilience LP, k = #{|S| <= d}; raise unless optimal."""
    _check_inputs(f, d)
    n = f.n
    size = 1 << n
    masks = low_degree_masks(n, d)
    lp = LinearProgram(
        objective=f.table.astype(np.float64),
        eq_matrix=_constraint_matrix(n, masks),
        eq_rhs=np.zeros(len(masks)),
        lower=np.full(size, -1.0),
        upper=np.full(size, 1.0),
    )
    # start at a vertex that is already d-resilient: the parity on [d+1]
    at_upper = None
    if d < n:
        at_upper = chi_values(n, (1 << (d + 1)) - 1) > 0
    sol = solve_lp(lp, initial_at_upper=at_upper)
    if sol.status != OPTIMAL:
        raise SolverFailure(f"resilience LP ended with status {sol.status}")
    return sol, masks


def _verified_witness(f: BooleanFunction, d: int, sol: LPSolution) -> ResilienceResult:
    """The primal point as a bounded d-resilient g, alpha = measured E|f - g|."""
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
    return ResilienceResult(alpha, witness, d, sol.iterations, check)


def _verified_poly(
    f: BooleanFunction, d: int, masks: list[int], sol: LPSolution
) -> L1ApproxResult:
    """The dual p = sum_S y_S chi_S, delta = recomputed E|f - p|."""
    coeffs = {mask: float(y) for mask, y in zip(masks, sol.duals)}
    poly = SparsePolynomial(f.n, d, coeffs)
    delta_lp = sol.value / (1 << f.n)  # strong duality: primal optimum = 2^n E|f - p|
    delta = float(np.mean(np.abs(f.table - poly.table())))
    if abs(delta - delta_lp) > WITNESS_TOL:
        raise CertificateError(
            f"recomputed E|f-p| = {delta} does not match LP delta {delta_lp}"
        )
    if not 0.0 <= delta <= 2.0:
        raise CertificateError(f"delta {delta} outside [0, 2]")
    return L1ApproxResult(delta, poly, d, sol.iterations)


def distance_to_resilience(f: BooleanFunction, d: int) -> ResilienceResult:
    """Exact L1 distance from f to the closest bounded d-resilient function."""
    sol, _ = _resilience_lp(f, d)
    return _verified_witness(f, d, sol)


def l1_poly_distance(f: BooleanFunction, d: int) -> L1ApproxResult:
    """Exact minimum of E|f - p| over polynomials of degree <= d."""
    sol, masks = _resilience_lp(f, d)
    return _verified_poly(f, d, masks, sol)


def duality_certificate(f: BooleanFunction, d: int) -> DualityCertificate:
    """Verify both sides of one resilience LP solve and report the duality gap."""
    sol, masks = _resilience_lp(f, d)
    res = _verified_witness(f, d, sol)
    l1 = _verified_poly(f, d, masks, sol)
    gap = abs(l1.delta + res.alpha - 1.0)
    return DualityCertificate(res.alpha, l1.delta, gap, res, l1)
