"""Greedy set designs and orthogonal families of resilient junta embeddings.

An (n, k, d)-design is a family of k-subsets of [n] with pairwise
intersections of size at most d.  Embedding a function g on k variables
along a set A puts its coefficient on T at the ambient mask U = A(T), the
elements of A picked out by T, so g_A has support on subsets of A and

    E[g_A g_B] = sum_{U subset of A and B} g_A^(U) g_B^(U),

a sum over subsets of an intersection of size <= d.  So embeddings of a
d-resilient g along a design are pairwise exactly orthogonal, and the Gram
matrix needs only g's coefficients of degree <= the largest intersection;
its diagonal is E[g^2] by Parseval.  No ambient 2^n table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .hypercube import BooleanFunction, CubeFunction, is_d_resilient, low_degree_sums

MAX_CANDIDATES = 2_000_000
MAX_DESIGN_DIM = 64  # set masks are checked as uint64 words
MAX_FAMILY_SIZE = 2048  # the Gram matrix is size^2 entries
GREEDY_BLOCK = 64  # candidates tested against the chosen sets at once


class OrthogonalityError(RuntimeError):
    pass


def _overlaps(masks: np.ndarray):
    """Yield (i, |A_i & A_j| for every j > i), one vector operation per row."""
    for i in range(len(masks) - 1):
        yield i, np.bitwise_count(masks[i] & masks[i + 1:])


@dataclass(frozen=True)
class Design:
    n: int
    k: int
    d: int
    sets: tuple[int, ...]  # subset masks, each of popcount k

    def __post_init__(self):
        if not 0 <= self.n <= MAX_DESIGN_DIM:
            raise ValueError(f"design ground set n={self.n} outside [0, {MAX_DESIGN_DIM}]")
        if not 0 <= self.d <= self.k:
            raise ValueError(f"design intersection bound d={self.d} outside [0, {self.k}]")
        for mask in self.sets:
            if not (0 <= mask < 1 << self.n and int(mask).bit_count() == self.k):
                raise ValueError(f"design set {mask:#x} is not a {self.k}-subset of [{self.n}]")
        for i, sizes in _overlaps(self.masks()):
            over = np.nonzero(sizes > self.d)[0]
            if over.size:
                a, b = self.sets[i], self.sets[i + 1 + over[0]]
                raise ValueError(
                    f"design sets {a:#x} and {b:#x} intersect in more than {self.d}"
                )

    @property
    def size(self) -> int:
        return len(self.sets)

    def masks(self) -> np.ndarray:
        """The sets as a uint64 array."""
        return np.array(self.sets, dtype=np.uint64)

    def index_lists(self) -> list[list[int]]:
        """Sets as sorted 1-based coordinate lists (serialization form)."""
        return [
            [j + 1 for j in range(self.n) if mask >> j & 1] for mask in self.sets
        ]


def design_size_bound(n: int, k: int, d: int) -> float:
    """Greedy/probabilistic lower bound (n d / (e^2 k^2))^d on the max design."""
    if d < 1:
        raise ValueError("the size bound applies for d >= 1")
    return (n * d / (math.e**2 * k**2)) ** d


def _lex_subset_masks(n: int, k: int) -> np.ndarray:
    """The uint64 masks of all k-subsets of [n] in lex order, n <= 64.

    The coordinates come in as one (C(n, k), k) uint8 array and are OR-ed
    in one column at a time, so no wider temporary than the masks is made.
    """
    count = math.comb(n, k)
    coords = np.fromiter(
        chain.from_iterable(combinations(range(n), k)), dtype=np.uint8, count=count * k
    ).reshape(count, k)
    masks = np.zeros(count, dtype=np.uint64)
    for column in coords.T:
        masks |= np.uint64(1) << column
    return masks


def greedy_design(n: int, k: int, d: int) -> Design:
    """Greedy design construction over all k-subsets of [n] in lex order.

    The result is re-verified pairwise-exhaustively and, for d >= 1,
    checked against the greedy size bound when that bound is >= 1.
    """
    if not 0 <= d < k <= n <= MAX_DESIGN_DIM:
        raise ValueError(f"need 0 <= d < k <= n <= {MAX_DESIGN_DIM}")
    if math.comb(n, k) > MAX_CANDIDATES:
        raise ValueError(f"candidate space C({n},{k}) exceeds {MAX_CANDIDATES}")
    candidates = _lex_subset_masks(n, k)

    chosen = np.zeros(0, dtype=np.uint64)
    for start in range(0, len(candidates), GREEDY_BLOCK):
        block = candidates[start:start + GREEDY_BLOCK]
        block = block[np.all(np.bitwise_count(block[:, None] & chosen) <= d, axis=1)]
        clash = np.bitwise_count(block[:, None] & block) > d
        keep = np.ones(len(block), dtype=bool)
        for i in range(len(block)):
            if keep[i]:  # block[i] meets no set chosen before it
                keep[i + 1:] &= ~clash[i, i + 1:]
        chosen = np.concatenate([chosen, block[keep]])
    design = Design(n, k, d, tuple(int(mask) for mask in chosen))  # re-verified pairwise
    if d >= 1:
        bound = design_size_bound(n, k, d)
        if bound >= 1.0 and design.size < max(1, math.floor(bound)):
            raise AssertionError(
                f"greedy design of size {design.size} fell below the bound {bound:.3f}"
            )
    return design


@dataclass(frozen=True)
class OrthogonalFamilyReport:
    gram: np.ndarray           # m x m matrix of E[g_i g_j]
    max_offdiagonal: float
    diagonal_value: float      # E[g^2], shared by construction


def _spectral_gram(g: CubeFunction, masks: np.ndarray) -> np.ndarray:
    """4^k E[g_A g_B] for the embeddings of g (k variables) along the sets A.

    Exact int64 for Boolean g: every entry is bounded by 2^k sum_x g(x)^2 =
    4^k <= 2^56 (Cauchy-Schwarz and Parseval), and so is every partial sum
    of the products, which are over subsets U of one intersection.  Float64
    for bounded g.  Row A of the coefficient matrix holds 2^k g^(T) at the
    ambient mask A(T) of every |T| <= t, the largest pairwise intersection.
    """
    k = g.n
    depth = max((int(sizes.max()) for _, sizes in _overlaps(masks)), default=0)
    base, coeffs = low_degree_sums(g.table, depth)
    # the 0-based coordinates of each set, ascending: bit i of T goes to column i
    bits = (masks[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    coords = np.nonzero(bits)[1].reshape(len(masks), k).astype(np.uint64)
    ambient = np.zeros((len(masks), len(base)), dtype=np.uint64)
    for i in range(k):
        ambient |= ((base >> i) & 1).astype(np.uint64) << coords[:, i:i + 1]
    columns, where = np.unique(ambient, return_inverse=True)
    spread = np.zeros((len(masks), len(columns)), dtype=coeffs.dtype)
    spread[np.arange(len(masks))[:, None], where.reshape(ambient.shape)] = coeffs
    gram = spread @ spread.T
    np.fill_diagonal(gram, (1 << k) * np.sum(np.square(g.table, dtype=coeffs.dtype)))
    return gram


def orthogonal_family(g: CubeFunction, design: Design) -> OrthogonalFamilyReport:
    """Embed g along every design set and certify pairwise orthogonality.

    Requires g to be at least design.d-resilient (otherwise the
    orthogonality argument has no footing and the call is rejected), read
    off its coefficients of degree <= design.d at tolerance 1e-10, which is
    exact for a Boolean g (its nonzero coefficients are at least 2^-28).
    The Gram matrix is read off g's low-degree coefficients, see the module
    docstring.
    """
    if g.n != design.k:
        raise ValueError("base arity must equal the design's set size")
    check = is_d_resilient(g, design.d, tol=1e-10)
    if not check.resilient:
        raise ValueError(
            f"resilience mismatch: the design needs a {design.d}-resilient base, but "
            f"coef[{check.worst_mask:#x}] = {check.worst_coefficient:.3e}"
        )
    if design.size > MAX_FAMILY_SIZE:
        raise ValueError(f"family of {design.size} functions exceeds {MAX_FAMILY_SIZE}")
    exact = isinstance(g, BooleanFunction)
    scaled = _spectral_gram(g, design.masks())
    scale = float(1 << 2 * g.n)
    gram = scaled / scale
    off = scaled - np.diag(np.diag(scaled))
    max_off = float(np.max(np.abs(off), initial=0)) / scale
    if exact and max_off != 0.0:
        raise OrthogonalityError("integer Gram has a nonzero off-diagonal entry")
    if max_off > 1e-10:
        raise OrthogonalityError(f"off-diagonal Gram entry {max_off:.3e} exceeds tolerance")
    return OrthogonalFamilyReport(
        gram=gram,
        max_offdiagonal=max_off,
        diagonal_value=float(gram[0, 0]) if design.size else 0.0,
    )
