"""Resilience, low-degree L1 approximation and agnostic-learning toolkit."""

__version__ = "0.1.0"

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
