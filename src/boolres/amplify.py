"""Disjoint composition and resilience/distance amplification.

Composition is evaluated through the multilinear-extension identity: for
independent random signs b(t) with mean t,

    E[G(b(t_1), ..., b(t_m))] = sum_T Ghat(T) prod_{i in T} t_i,

so (G o g)(x^1, ..., x^m) is the multilinear extension of G applied to the
vector of inner values.  Compositions are lazy (any size); materialization
and exact certificates are capped at 22 total bits, with a seeded sampling
path beyond that.

One evaluator, `_multilinear`, serves both paths.  It runs Horner's scheme
over the two halves of the coefficient table, p(t) = p_lo(t') + t_j p_hi(t')
with j the top coordinate: 2^m - 1 multiply-adds at most, and a half whose
coefficients are all zero is skipped, so sparse outer spectra stay cheap.
The sampled path keeps the Boolean levels of f_k as sign bits (1 for -1) and
looks each group of n bits up in the same bit table; its batches are stored
leaves-major, (leaves, rows), so every level is a view with contiguous rows,
and a batch holds at most `SAMPLE_LEAF_BUDGET` leaf draws.

Block convention: outer coordinate i (1-based) reads bits
[(i-1)*inner_arity, i*inner_arity) of the composed point index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypercube import (
    BooleanFunction,
    BoundedFunction,
    CubeFunction,
    Spectrum,
    noise_sensitivity,
    popcounts,
    spectral_stats,
    wht,
    wht_int,
)

COMPOSE_MAX_BITS = 22
SAMPLE_LEAF_BUDGET = 1 << 21  # leaf draws per sampled batch
SAMPLE_MAX_ROWS = 1 << 16
FLOAT_ZERO_TOL = 1e-10  # a float Fourier coefficient at most this large counts as 0


class ArityOverflow(ValueError):
    pass


@dataclass(frozen=True)
class ComposedFunction:
    outer_spectrum: Spectrum
    inner: "ComposedFunction | BooleanFunction | BoundedFunction"
    depth: int

    @property
    def arity(self) -> int:
        return self.outer_spectrum.n * _arity(self.inner)

    def evaluate(self, indices: np.ndarray) -> np.ndarray:
        return _evaluate(self, np.asarray(indices, dtype=np.int64))


def _arity(fn) -> int:
    return fn.arity if isinstance(fn, ComposedFunction) else fn.n


def _horner(coeffs: np.ndarray, vals: np.ndarray, j: int):
    """sum_T coeffs[T] prod_{i in T} vals[i] over the 2^j masks of coeffs.

    Splits on coordinate j-1: p = p_lo + vals[j-1] * p_hi over the halves of
    coeffs.  Returns a float when only the constant term is left.  A
    module-level function on purpose: a closure that calls itself is a
    reference cycle and would keep `vals` alive until the cyclic GC runs.
    """
    if j == 0:
        return float(coeffs[0])
    half = len(coeffs) >> 1
    lo, hi = coeffs[:half], coeffs[half:]
    if not hi.any():
        return _horner(lo, vals, j - 1)
    out = vals[j - 1] * _horner(hi, vals, j - 1)
    if lo.any():
        out += _horner(lo, vals, j - 1)
    return out


def _multilinear(spectrum: Spectrum, vals: np.ndarray) -> np.ndarray:
    """Multilinear extension of the outer function; vals[j] holds the values
    of coordinate j+1 (any trailing shape, which the result keeps)."""
    out = _horner(spectrum.coeffs, vals, spectrum.n)
    if np.ndim(out) == 0:
        return np.full(vals.shape[1:], out)
    return out


def _evaluate(fn, indices: np.ndarray) -> np.ndarray:
    if isinstance(fn, ComposedFunction):
        m = fn.outer_spectrum.n
        inner_ar = _arity(fn.inner)
        block_mask = (1 << inner_ar) - 1
        tvals = np.empty((m, len(indices)))
        for i in range(m):
            tvals[i] = _evaluate(fn.inner, (indices >> (i * inner_ar)) & block_mask)
        return _multilinear(fn.outer_spectrum, tvals)
    return fn.table[indices].astype(np.float64)


def compose(outer: CubeFunction, inner) -> ComposedFunction:
    """Lazy disjoint composition outer o inner."""
    depth = inner.depth + 1 if isinstance(inner, ComposedFunction) else 1
    return ComposedFunction(wht(outer), inner, depth)


def materialize(c: ComposedFunction) -> BoundedFunction:
    if c.arity > COMPOSE_MAX_BITS:
        raise ArityOverflow(f"{c.arity} bits exceeds the {COMPOSE_MAX_BITS}-bit cap")
    return BoundedFunction(c.arity, c.evaluate(np.arange(1 << c.arity)))


def self_composition(base: CubeFunction, k: int):
    """f_k with f_0 = base and f_j = base o f_{j-1} (outer factor fixed)."""
    if k < 0:
        raise ValueError("composition depth must be nonnegative")
    current = base
    for _ in range(k):
        current = compose(base, current)
    return current


def _spectral_order(n: int, coeffs: np.ndarray, tol: float) -> int:
    """Largest d with |coeffs[S]| <= tol for every |S| <= d (n if none exceeds tol)."""
    nonzero = np.nonzero(np.abs(coeffs) > tol)[0]
    if len(nonzero) == 0:
        return n
    return int(popcounts(n)[nonzero].min()) - 1


def resilience_order(fn: CubeFunction) -> int:
    """Largest d such that fn is d-resilient (n for the zero function)."""
    if isinstance(fn, BooleanFunction):
        return _spectral_order(fn.n, wht_int(fn), 0)
    return _spectral_order(fn.n, wht(fn).coeffs, FLOAT_ZERO_TOL)


@dataclass(frozen=True)
class ComposedResilienceCertificate:
    d1: int
    d2: int
    guaranteed_order: int  # d1 * d2
    sharp_order: int       # (d1+1)(d2+1) - 1
    measured_order: int
    max_low_coefficient: float  # over |S| <= sharp_order
    arity: int


def check_composed_resilience(
    G: CubeFunction, g: CubeFunction
) -> ComposedResilienceCertificate:
    """Exact spectrum check of the composed function's resilience.

    Certifies the product guarantee d1*d2 and the sharper
    (d1+1)(d2+1) - 1 level that holds because every surviving outer
    set has size > d1; orders d1, d2 are measured from the inputs.
    """
    d1 = resilience_order(G)
    d2 = resilience_order(g)
    c = compose(G, g)
    if c.arity > COMPOSE_MAX_BITS:
        raise ArityOverflow(f"exact certification needs <= {COMPOSE_MAX_BITS} bits")
    table = materialize(c)
    sharp = (d1 + 1) * (d2 + 1) - 1
    coeffs = wht(table).coeffs
    pc = popcounts(table.n)
    low = np.abs(coeffs[pc <= min(sharp, table.n)])
    max_low = float(low.max()) if len(low) else 0.0
    measured = _spectral_order(table.n, coeffs, FLOAT_ZERO_TOL)
    if max_low > FLOAT_ZERO_TOL:
        raise AssertionError(
            f"composition broke the resilience guarantee: coefficient {max_low:.3e} "
            f"at order <= {sharp}"
        )
    return ComposedResilienceCertificate(
        d1=d1,
        d2=d2,
        guaranteed_order=d1 * d2,
        sharp_order=sharp,
        measured_order=measured,
        max_low_coefficient=max_low,
        arity=table.n,
    )


@dataclass(frozen=True)
class AmplificationReport:
    n: int
    k: int
    arity: int
    dist_base: float
    influence: float
    cor2_bound: float
    dist_measured: float
    exact: bool
    ci_width: float
    ns_delta_exact: float
    ns_union_bound: float
    samples: int
    seed: int | None


def _check_balanced(fn: CubeFunction) -> None:
    mean = float(np.mean(fn.table.astype(np.float64)))
    if abs(mean) > 1e-12:
        raise ValueError("amplification needs balanced (mean-zero) inputs")


def _sampled_distance(
    f: BooleanFunction,
    g: BoundedFunction,
    k: int,
    samples: int,
    seed: int,
) -> float:
    """Monte-Carlo estimate of (1/2) E|f_k - g_k| via bottom-up evaluation.

    Each batch draws a (rows, leaves) array of leaf points, with rows =
    min(SAMPLE_MAX_ROWS, SAMPLE_LEAF_BUDGET // leaves), so the stream for a
    seed depends on the tree's leaf count; a tree with more than
    SAMPLE_LEAF_BUDGET leaves raises ValueError before any draw.  Both
    tables are gathered at the leaves and copied once into leaves-major
    (leaves, rows) arrays; each level then reads groups of n consecutive
    rows.  f's levels stay sign bits: a group's n bits, shifted and or-ed
    into an index, are looked up in the same bit table, and f_k = 1 - 2 *
    bit at the root.  g's levels go through `_multilinear`.
    """
    n = f.n
    leaves = n**k
    if leaves > SAMPLE_LEAF_BUDGET:
        raise ValueError(
            f"a sample of f_{k} draws {leaves} leaves, more than the "
            f"{SAMPLE_LEAF_BUDGET} a batch may hold"
        )
    rows = min(SAMPLE_MAX_ROWS, SAMPLE_LEAF_BUDGET // leaves)
    g_spec = wht(g)
    f_bits = (f.table < 0).astype(np.min_scalar_type((1 << n) - 1))
    rng = np.random.default_rng(seed)
    total = 0.0
    remaining = samples
    while remaining > 0:
        b = min(rows, remaining)
        leaf_idx = rng.integers(0, 1 << n, size=(b, leaves))
        fb = f_bits[leaf_idx]
        gv = g.table[leaf_idx]
        del leaf_idx
        fb = np.ascontiguousarray(fb.T)
        gv = np.ascontiguousarray(gv.T)
        while len(fb) > 1:
            groups = fb.reshape(-1, n, b).transpose(1, 0, 2)
            code = groups[0].copy()
            for j in range(1, n):
                code |= groups[j] << j
            fb = f_bits[code]
            gv = _multilinear(g_spec, gv.reshape(-1, n, b).transpose(1, 0, 2))
        fv = 1.0 - 2.0 * fb[0]
        total += float(np.abs(fv - gv[0]).sum()) / 2.0
        remaining -= b
    return total / samples


def amplification_report(
    f: BooleanFunction,
    g: BoundedFunction,
    k: int,
    samples: int = 1_000_000,
    seed: int | None = None,
    confidence: float = 0.99,
) -> AmplificationReport:
    """Measure dist(f_k, g_k) against the geometric-series amplification bound.

    Distance is (1/2) E|f_k - g_k|.  Exact evaluation when n^(k+1) <= 22
    bits, otherwise seeded Monte-Carlo with a Hoeffding confidence
    interval.  Also reports the exact noise sensitivity of f at rate
    dist(f, g) next to its union bound dist * Inf[f].
    """
    if f.n != g.n:
        raise ValueError("inner and outer bases must share a dimension")
    if k < 1:
        raise ValueError("amplification depth k must be >= 1")
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    _check_balanced(f)
    _check_balanced(g)

    n = f.n
    arity = n ** (k + 1)
    dist_base = float(np.mean(np.abs(f.table - g.table))) / 2.0
    influence = spectral_stats(f, 0).total_influence
    cor2_bound = dist_base * sum(influence**t for t in range(k + 1))

    delta = min(max(dist_base, 0.0), 1.0)
    ns_exact = noise_sensitivity(f, delta)
    ns_union = delta * influence
    if ns_exact > ns_union + 1e-12:
        raise AssertionError("noise sensitivity exceeded its union bound")

    if arity <= COMPOSE_MAX_BITS:
        fk = materialize(self_composition(f, k))
        gk = materialize(self_composition(g, k))
        dist_measured = float(np.mean(np.abs(fk.table - gk.table))) / 2.0
        exact, ci_width, used_samples, used_seed = True, 0.0, 0, None
    else:
        if seed is None:
            raise ValueError("sampling path requires an explicit seed")
        dist_measured = _sampled_distance(f, g, k, samples, seed)
        ci_width = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
        exact, used_samples, used_seed = False, samples, seed

    if dist_measured > cor2_bound + ci_width + 1e-9:
        raise AssertionError(
            f"measured distance {dist_measured} exceeds the amplification bound "
            f"{cor2_bound} (+{ci_width})"
        )
    return AmplificationReport(
        n=n,
        k=k,
        arity=arity,
        dist_base=dist_base,
        influence=influence,
        cor2_bound=cor2_bound,
        dist_measured=dist_measured,
        exact=exact,
        ci_width=ci_width,
        ns_delta_exact=ns_exact,
        ns_union_bound=ns_union,
        samples=used_samples,
        seed=used_seed,
    )
