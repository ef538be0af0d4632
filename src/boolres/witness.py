"""Constructive bounded d-resilient witnesses from low low-degree weight.

Pipeline for a Boolean f, degree d and threshold tau > 0:

    l = low-degree part of f (degree <= d)
    h = f - l                      (d-resilient, possibly unbounded)
    q = h zeroed where |l| > tau   (bounded in [-1-tau, 1+tau])
    p = (high-degree part of q) / ||q_{>d}||_inf

p is bounded and exactly d-resilient whenever the high part is nonzero,
regardless of how tau compares to the concentration recipe; the report
carries the measured quantities that drive the correlation lower bounds.
When the threshold wipes q out entirely (tau below min |l|), the zero
function stands in as the (trivial) certified witness; inputs of degree
<= d, which admit no witness direction at all, raise DegenerateHighPart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypercube import (
    INT64_BITS,
    BooleanFunction,
    BoundedFunction,
    ResilienceCheck,
    fwht,
    is_d_resilient,
    popcounts,
    wht,
    wht_int,
)

WITNESS_MAX_DIM = 22
EXACT_CHECK_MAX_DIM = 12
CHAIN_TOL = 1e-10


def _exact_check_bits(n: int) -> int:
    """log2 of a bound on every integer `_exact_low_zero_check` forms at n.

    Each fwht multiplies the largest |entry| by at most 2^n.  From |f| = 1:
    wht_int <= 2^n, l_num <= 2^{2n}, h_num <= 2^n + 2^{2n} <= 2^{2n+1}, and
    three more transforms (2^{2n}-, 2^{2n}- and 2^{3n}-scaled results)
    reach 2^{5n+1}: 2^61 at n = 12.
    """
    return 5 * n + 1


class DegenerateHighPart(RuntimeError):
    """q has no mass above degree d (e.g. f itself has degree <= d)."""


@dataclass(frozen=True)
class WitnessParams:
    d: int
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("threshold tau must be positive and finite")
        if self.d < 0:
            raise ValueError("degree must be nonnegative")


@dataclass(frozen=True)
class WitnessReport:
    p: BoundedFunction
    d: int
    tau: float
    delta_emp: float    # Pr[|l(x)| > tau]
    corr_qf: float      # E[q f]
    low_part_sup: float  # ||q_{<=d}||_inf
    high_sup: float      # ||q_{>d}||_inf
    corr_pf: float       # E[p f]
    q_min: float
    q_max: float
    resilience: ResilienceCheck
    exact_zero_certified: bool
    degenerate: bool = False  # threshold wiped q entirely; p is the zero witness


def _low_part(f: BooleanFunction, d: int) -> np.ndarray:
    coeffs = wht(f).coeffs.copy()
    coeffs[popcounts(f.n) > d] = 0.0
    return fwht(coeffs)


def build_witness(f: BooleanFunction, params: WitnessParams) -> WitnessReport:
    """Run the full pipeline and certify the output."""
    n, d, tau = f.n, params.d, params.tau
    if n > WITNESS_MAX_DIM:
        raise ValueError(f"witness pipeline limited to n <= {WITNESS_MAX_DIM}")
    if d > n:
        raise ValueError("degree exceeds dimension")

    table = f.table.astype(np.float64)
    low = _low_part(f, d)
    high = table - low
    crossed = np.abs(low) > tau
    q = np.where(crossed, 0.0, high)
    delta_emp = float(np.mean(crossed))

    if not np.any(q):
        if not np.any(high):
            raise DegenerateHighPart(f"f itself has degree <= {d}; no witness direction")
        # the threshold wiped q entirely; the zero function is itself a
        # bounded, exactly d-resilient witness (with zero correlation)
        zero = BoundedFunction(n, np.zeros(1 << n))
        exact = n <= EXACT_CHECK_MAX_DIM and _exact_low_zero_check(f, d, tau, crossed)
        return WitnessReport(
            p=zero,
            d=d,
            tau=tau,
            delta_emp=delta_emp,
            corr_qf=0.0,
            low_part_sup=0.0,
            high_sup=0.0,
            corr_pf=0.0,
            q_min=0.0,
            q_max=0.0,
            resilience=is_d_resilient(zero, d),
            exact_zero_certified=exact,
            degenerate=True,
        )

    pc = popcounts(n)
    q_coeffs = fwht(q) / (1 << n)
    q_high_coeffs = np.where(pc > d, q_coeffs, 0.0)
    q_high = fwht(q_high_coeffs)
    q_low = q - q_high

    high_sup = float(np.max(np.abs(q_high)))
    if high_sup == 0.0:
        raise DegenerateHighPart(f"q has degree <= {d}; no witness direction")

    p = BoundedFunction(n, q_high / high_sup)
    corr_qf = float(np.mean(q * table))
    corr_pf = float(np.mean(p.table * table))
    low_sup = float(np.max(np.abs(q_low)))

    q_min, q_max = float(q.min()), float(q.max())
    if q_min < -1.0 - tau - 1e-12 or q_max > 1.0 + tau + 1e-12:
        raise RuntimeError("q escaped its stated range [-1-tau, 1+tau]")
    if corr_qf < (1.0 - tau) * (1.0 - delta_emp) - CHAIN_TOL:
        raise RuntimeError("E[q f] fell below (1-tau)(1-delta)")
    # correlation chain: E[p f] >= (E[q f] - kappa) / (||q||_inf + kappa)
    kappa = low_sup
    q_sup = max(abs(q_min), abs(q_max))
    if corr_qf - kappa >= 0.0:
        chain = (corr_qf - kappa) / (q_sup + kappa)
        if corr_pf < chain - CHAIN_TOL:
            raise RuntimeError("correlation chain inequality failed")

    check = is_d_resilient(p, d, tol=1e-10)
    if not check.resilient:
        raise RuntimeError(
            f"witness not {d}-resilient at float tolerance: coef "
            f"{check.worst_coefficient:.3e} on mask {check.worst_mask:#x}"
        )
    exact = False
    if n <= EXACT_CHECK_MAX_DIM:
        exact = _exact_low_zero_check(f, d, tau, crossed)
        if not exact:
            raise RuntimeError("exact rational check found a nonzero low coefficient")

    return WitnessReport(
        p=p,
        d=d,
        tau=tau,
        delta_emp=delta_emp,
        corr_qf=corr_qf,
        low_part_sup=low_sup,
        high_sup=high_sup,
        corr_pf=corr_pf,
        q_min=q_min,
        q_max=q_max,
        resilience=check,
        exact_zero_certified=exact,
    )


def _exact_low_zero_check(
    f: BooleanFunction, d: int, tau: float, crossed_float: np.ndarray
) -> bool:
    """Replay the pipeline in integer/rational arithmetic.

    Works with 2^n-scaled integer tables throughout; the threshold
    comparison uses the exact binary value of tau, and the replay insists
    it zeroes exactly the points the float path zeroed.
    """
    n = f.n
    if _exact_check_bits(n) > INT64_BITS:
        raise OverflowError(f"exact replay at n={n} could wrap int64")
    size = 1 << n
    pc = popcounts(n)

    coeffs_scaled = wht_int(f)  # 2^n * coef, exact
    low_mask = pc <= d
    low_scaled = np.where(low_mask, coeffs_scaled, 0)
    l_num = fwht(low_scaled)  # 2^n * l(x), exact

    crossed = _exact_crossed(l_num, tau, size)
    if not np.array_equal(crossed, crossed_float):
        return False

    h_num = f.table.astype(np.int64) * size - l_num
    q_num = np.where(crossed, 0, h_num)  # 2^n * q(x)

    q_coeff_num = fwht(q_num)  # 2^{2n} * q coefficients
    q_high_num = np.where(pc > d, q_coeff_num, 0)
    q_high_table_num = fwht(q_high_num)  # 2^{2n} * q_{>d}(x)

    # 2^{3n}-scaled low coefficients of q_{>d} (and hence of p), exact
    low_of_high = fwht(q_high_table_num)[low_mask]
    return bool(np.all(low_of_high == 0))


def _exact_crossed(l_num: np.ndarray, tau: float, size: int) -> np.ndarray:
    """|l_num| > tau * size in exact arithmetic, for integer l_num.

    tau is the exact binary value of the float; an integer exceeds the
    rational tau * size iff it exceeds its floor.
    """
    return np.abs(l_num) > math.floor(Fraction(tau) * size)


@dataclass(frozen=True)
class ConcentrationProbe:
    p2norm_lowpart: float
    tail_prob: float


def concentration_probe(f: BooleanFunction, d: int, t: float) -> ConcentrationProbe:
    """Exact tail mass Pr[|l(x)| >= t ||l||_2] of the low-degree part.

    Returns the raw pair so callers can fit empirical concentration
    constants; no universal constant is asserted.
    """
    if t <= 0:
        raise ValueError("probe threshold t must be positive")
    coeffs = wht(f).coeffs
    low_sq = float(np.sum(coeffs[popcounts(f.n) <= d] ** 2))
    norm = float(np.sqrt(low_sq))
    low = _low_part(f, d)
    tail = float(np.mean(np.abs(low) >= t * norm))
    return ConcentrationProbe(p2norm_lowpart=norm, tail_prob=tail)
