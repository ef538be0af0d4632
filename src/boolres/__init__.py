"""Resilience, low-degree L1 approximation and agnostic-learning toolkit."""

__version__ = "0.1.0"

import numpy

if not hasattr(numpy, "bitwise_count"):  # new in numpy 2.0, and every kernel counts bits with it
    raise ImportError(f"boolres requires numpy >= 2.0, found numpy {numpy.__version__}")

from .hypercube import (
    BooleanFunction,
    BoundedFunction,
    correlation,
    is_d_resilient,
    l1_distance,
    noise_sensitivity,
    spectral_stats,
    wht,
    wht_int,
)

__all__ = [
    "BooleanFunction",
    "BoundedFunction",
    "correlation",
    "is_d_resilient",
    "l1_distance",
    "noise_sensitivity",
    "spectral_stats",
    "wht",
    "wht_int",
    "__version__",
]
