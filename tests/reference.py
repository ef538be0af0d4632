"""Brute-force reference implementations that tests check the package against."""

import numpy as np

from boolres.hypercube import BooleanFunction, DimensionTooLarge, popcounts

NS_DIRECT_MAX_DIM = 14


def noise_sensitivity_direct(fn: BooleanFunction, delta: float) -> float:
    """`noise_sensitivity` by exhaustive enumeration of the noise patterns
    (n <= 14), the independent oracle the spectral form is validated against."""
    if not isinstance(fn, BooleanFunction):
        raise TypeError("noise sensitivity is defined for Boolean functions")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"noise rate delta={delta} outside [0, 1]")
    n = fn.n
    if n > NS_DIRECT_MAX_DIM:
        raise DimensionTooLarge(f"direct path limited to n <= {NS_DIRECT_MAX_DIM}")
    idx = np.arange(1 << n)
    table = fn.table.astype(np.float64)
    pc = popcounts(n)
    # log-free weights: delta^k (1-delta)^(n-k) per flip pattern
    weights = delta ** pc * (1.0 - delta) ** (n - pc)
    total = 0.0
    for e in range(1 << n):
        if weights[e] == 0.0:
            continue
        mismatch = np.mean(table != table[idx ^ e])
        total += weights[e] * mismatch
    return float(total)
