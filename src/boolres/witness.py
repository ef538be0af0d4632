"""Constructive bounded d-resilient witnesses from low low-degree weight.

Pipeline for a Boolean f, degree d and threshold tau > 0:

    l = low-degree part of f (degree <= d)
    h = f - l                      (d-resilient, possibly unbounded)
    q = h zeroed where |l| > tau   (bounded in [-1-tau, 1+tau])
    p = (high-degree part of q) / ||q_{>d}||_inf

The pipeline runs once, on exact int64 tables at the points: 2^n l, 2^n h,
2^n q, 2^{2n} q_{<=d} and 2^{2n} q_{>d} = 2^{2n} q - 2^{2n} q_{<=d} (see
`_table_bits` for why none of them can wrap).  Both low parts come from
`low_degree_part`, which reads only the coefficients of degree <= d: no
full transform is taken, and the work is O(2^n) at fixed d.  The rational
witness p* = q_{>d} / ||q_{>d}||_inf is bounded and exactly d-resilient by
construction, since its low coefficients are set to integer zeros; the
report returns p*, rounded to float64, and carries the measured quantities
that drive the correlation lower bounds.  When the threshold wipes q out
entirely (tau below min |l|), the zero function stands in as the (trivial)
certified witness; inputs of degree <= d, which admit no witness direction
at all, raise DegenerateHighPart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypercube import (
    BooleanFunction,
    BoundedFunction,
    correlation,
    is_d_resilient,
    low_degree_part,
)

WITNESS_MAX_DIM = 22
CHAIN_TOL = 1e-10


def _table_bits(n: int) -> int:
    """log2 of a bound on every integer `build_witness` forms at n.

    Every partial value of `low_degree_sums` and of its transpose (the two
    halves of `low_degree_part`) is a signed sum of a subset of that
    kernel's input, so it is at most the input's l1 norm.  From |f| = 1:
    the sums of f give 2^n f^_S with sum_x |f| = 2^n, and their transpose
    gives 2^n l with |2^n l| <= sum_S |2^n f^_S| <= 2^{3n/2} (Cauchy-Schwarz
    and Parseval), so |2^n q| <= |2^n h| <= 2^n + 2^{3n/2}.  Since |q| <= |h|
    and ||h||_2 = ||f_{>d}||_2 <= 1, sum_x |2^n q(x)| <= 2^{2n} bounds the
    sums of q, and sum_S |2^{2n} q^_S| <= 2^{5n/2} bounds their transpose
    2^{2n} q_{<=d} and 2^{2n} q_{>d}.  The largest value formed,
    2^n (2^n q) <= 2^{2n} + 2^{5n/2}, stays below 2^{5n/2+1}: 2^56 at
    n = 22.
    """
    return (5 * n + 1) // 2 + 1


class DegenerateHighPart(ValueError):
    """q has no mass above degree d (e.g. f itself has degree <= d): the
    input admits no witness direction, a precondition failure."""


@dataclass(frozen=True)
class WitnessReport:
    p: BoundedFunction
    delta_emp: float    # Pr[|l(x)| > tau]
    corr_qf: float      # E[q f]
    low_part_sup: float  # ||q_{<=d}||_inf
    high_sup: float      # ||q_{>d}||_inf
    corr_pf: float       # E[p f]
    q_min: float
    q_max: float
    exact_zero_certified: bool
    degenerate: bool = False  # threshold wiped q entirely; p is the zero witness


def build_witness(f: BooleanFunction, d: int, tau: float) -> WitnessReport:
    """Run the pipeline in exact integers and check the witness it returns.

    The threshold test compares 2^n l with the exact binary value of tau.
    p* = q_{>d} / ||q_{>d}||_inf has exact zero coefficients on every
    |S| <= d, so `exact_zero_certified` holds for every report.  The
    returned p is the int64 table 2^{2n} q_{>d} divided by its largest
    |entry|: up to n = 21 both are below 2^53 and p is p* correctly
    rounded; at n = 22 the two conversions to float64 may round as well,
    so |p - p*| <= 2^-51.  The float p is re-checked at tolerance 1e-10,
    with the range of q, the floor on E[q f] and the correlation chain.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("threshold tau must be positive and finite")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = f.n
    if not isinstance(f, BooleanFunction):
        raise ValueError("the witness pipeline needs a Boolean (+-1) function")
    if n > WITNESS_MAX_DIM:
        raise ValueError(f"witness pipeline limited to n <= {WITNESS_MAX_DIM}")
    if d > n:
        raise ValueError("degree exceeds dimension")

    size = 1 << n
    l_num = low_degree_part(f.table, d)  # 2^n l
    crossed = _exact_crossed(l_num, tau, size)
    h_num = f.table.astype(np.int64) * size - l_num
    q_num = np.where(crossed, 0, h_num)  # 2^n q
    delta_emp = float(np.mean(crossed))

    if not np.any(q_num):
        if not np.any(h_num):
            raise DegenerateHighPart(f"f itself has degree <= {d}; no witness direction")
        # the threshold wiped q entirely; the zero function is itself a
        # bounded, exactly d-resilient witness (with zero correlation)
        zero = BoundedFunction(n, np.zeros(size))
        return WitnessReport(
            p=zero,
            delta_emp=delta_emp,
            corr_qf=0.0,
            low_part_sup=0.0,
            high_sup=0.0,
            corr_pf=0.0,
            q_min=0.0,
            q_max=0.0,
            exact_zero_certified=True,
            degenerate=True,
        )

    q_low = low_degree_part(q_num, d)  # 2^{2n} q_{<=d}
    q_high_num = (q_num << n) - q_low  # 2^{2n} q_{>d}
    sup_num = int(np.max(np.abs(q_high_num)))
    if sup_num == 0:
        raise DegenerateHighPart(f"q has degree <= {d}; no witness direction")

    scale = float(size * size)
    p = BoundedFunction(n, q_high_num / sup_num)
    q = q_num / size
    table = f.table.astype(np.float64)
    high_sup = sup_num / scale
    corr_qf = float(np.mean(q * table))
    corr_pf = correlation(p, f)
    low_sup = float(np.max(np.abs(q_low))) / scale

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

    return WitnessReport(
        p=p,
        delta_emp=delta_emp,
        corr_qf=corr_qf,
        low_part_sup=low_sup,
        high_sup=high_sup,
        corr_pf=corr_pf,
        q_min=q_min,
        q_max=q_max,
        exact_zero_certified=True,
    )


def _exact_crossed(l_num: np.ndarray, tau: float, size: int) -> np.ndarray:
    """|l_num| > tau * size in exact arithmetic, for integer l_num.

    tau is the exact binary value of the float; an integer exceeds the
    rational tau * size iff it exceeds its floor.
    """
    return np.abs(l_num) > math.floor(Fraction(tau) * size)
