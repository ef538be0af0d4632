"""Distance-to-resilience and degree-d L1 regression as a dual LP pair.

For a Boolean f and degree d, the two programs are

    primal:  max sum_x f(x) g(x)   s.t. sum_x g(x) chi_S(x) = 0 for |S| <= d,
             -1 <= g(x) <= 1
    dual:    min sum_x |f(x) - p(x)|  over degree-<=d polynomials p

whose optima satisfy alpha = 1 - value/2^n and delta = value/2^n with
alpha + delta = 1.  Only the primal is solved, a box LP with one row per
|S| <= d; the dual's p = sum_S y_S chi_S comes from the row duals
y = c_B B^-1 of its optimal basis.  The learner's weighted regression is
the same LP over weighted labeled points, and `_l1_box_lp` is the one place
that turns a solved box LP into a polynomial, for this module and both
learner modes.

Neither side is taken on trust.  The witness g is re-checked for the box
and for d-resilience, and alpha is its measured E|f - g|.  `_l1_box_lp`
recomputes E|f - p| from p's table and matches it to the LP value; that
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


def _check_boolean(f: BooleanFunction) -> None:
    """alpha = 1 - value/2^n and the witness checks hold only for +-1 tables."""
    if not isinstance(f, BooleanFunction):
        raise ValueError("distance to resilience needs a Boolean (+-1) function")


def _check_inputs(f: BooleanFunction, d: int) -> None:
    if f.n > MAX_DUALITY_DIM:
        raise ValueError(f"exact duality limited to n <= {MAX_DUALITY_DIM}")


def _l1_box_lp(
    n: int,
    d: int,
    points: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> tuple[LPSolution, SparsePolynomial, np.ndarray, float]:
    """Solve the k-row box LP, k = #{|S| <= d}, and read off its checked p.

    Column c is the labeled point (points[c], labels[c]) with weight
    weights[c] > 0:

        max sum_c l_c g_c  s.t. sum_c g_c chi_S(x_c) = 0 for |S| <= d,
                                -w_c <= g_c <= w_c

    Its dual is min sum_c w_c |l_c - p(x_c)| over p = sum_S y_S chi_S, with
    y the row duals.  The solver starts at the box-optimal vertex
    g_c = w_c if l_c > 0 else -w_c (= w_c l_c for +-1 labels).

    Returns the solution, p, p's table and sum_c w_c |l_c - p(x_c)|
    recomputed from that table, which must be within 1e-7 sum_c w_c of the
    LP value.  A degree outside [0, n] raises ValueError before any work.
    """
    if not 0 <= d <= n:
        raise ValueError(f"degree d={d} outside [0, {n}]")
    masks = low_degree_masks(n, d)
    chi = np.array([chi_values(n, mask) for mask in masks])
    lp = LinearProgram(
        objective=labels,
        eq_matrix=chi.take(points, axis=1),  # C order: the pivots depend on the layout
        eq_rhs=np.zeros(len(masks)),
        lower=-weights,
        upper=weights,
    )
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise SolverFailure(f"k-row L1 box LP ended with status {sol.status}")
    poly = SparsePolynomial(n, d, {mask: float(y) for mask, y in zip(masks, sol.duals)})
    table = np.zeros(1 << n)  # as poly.table(), from the chi rows of the LP
    for coef, row in zip(poly.coeffs.values(), chi):
        if coef != 0.0:
            table += coef * row
    error = float(np.sum(weights * np.abs(labels - table[points])))
    if abs(error - sol.value) > WITNESS_TOL * float(np.sum(weights)):
        raise CertificateError(
            f"recomputed L1 error {error} does not match LP value {sol.value}"
        )
    return sol, poly, table, error


def _resilience_lp(
    f: BooleanFunction, d: int
) -> tuple[LPSolution, SparsePolynomial, np.ndarray, float]:
    """The resilience LP: every point, labels f, weights 1."""
    _check_inputs(f, d)
    n = f.n
    size = 1 << n
    return _l1_box_lp(n, d, np.arange(size), f.table, np.ones(size))


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
    f: BooleanFunction, d: int, poly: SparsePolynomial, error: float, iterations: int
) -> L1ApproxResult:
    """delta = E|f - p| from the checked error of the box LP."""
    delta = error / (1 << f.n)
    if not 0.0 <= delta <= 2.0:
        raise CertificateError(f"delta {delta} outside [0, 2]")
    return L1ApproxResult(delta, poly, d, iterations)


def distance_to_resilience(f: BooleanFunction, d: int) -> ResilienceResult:
    """Exact L1 distance from f to the closest bounded d-resilient function."""
    _check_boolean(f)
    sol, *_ = _resilience_lp(f, d)
    return _verified_witness(f, d, sol)


def l1_poly_distance(f: BooleanFunction, d: int) -> L1ApproxResult:
    """Exact minimum of E|f - p| over polynomials of degree <= d.

    Also accepts a bounded f: the LP duality holds for any real labels.
    """
    sol, poly, _, error = _resilience_lp(f, d)
    return _verified_poly(f, d, poly, error, sol.iterations)


def duality_certificate(f: BooleanFunction, d: int) -> DualityCertificate:
    """Verify both sides of one resilience LP solve and report the duality gap."""
    _check_boolean(f)
    sol, poly, _, error = _resilience_lp(f, d)
    res = _verified_witness(f, d, sol)
    l1 = _verified_poly(f, d, poly, error, sol.iterations)
    gap = abs(l1.delta + res.alpha - 1.0)
    return DualityCertificate(res.alpha, l1.delta, gap, res, l1)
