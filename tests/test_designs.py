from itertools import combinations

import numpy as np
import pytest

from boolres.builder import build_one_resilient
from boolres import designs
from boolres.designs import (
    Design,
    OrthogonalityError,
    _spectral_gram,
    design_size_bound,
    greedy_design,
    orthogonal_family,
)
from boolres.hypercube import (
    BooleanFunction,
    BoundedFunction,
    is_d_resilient,
    l1_distance,
    wht,
)
from boolres.zoo import constant, dictator, majority, parity, random_boolean, tribes
from reference import MAX_AMBIENT_DIM, embed_on_mask, resilience_order


def test_lex_greedy_small_case():
    design = greedy_design(4, 2, 0)
    assert design.sets == (0b0011, 0b1100)
    assert design.index_lists() == [[1, 2], [3, 4]]


def test_greedy_6_3_1_verified_exhaustively():
    design = greedy_design(6, 3, 1)
    for a, b in combinations(design.sets, 2):
        assert (a & b).bit_count() <= 1
    assert design.size >= 2


def test_full_set_design():
    design = greedy_design(5, 5, 4)
    assert design.sets == (0b11111,)


def test_design_constructor_rejects_bad_family():
    with pytest.raises(ValueError):
        Design(4, 2, 0, (0b0011, 0b0110))  # intersection size 1 > 0


def test_size_bound_only_matters_above_one():
    assert design_size_bound(12, 5, 1) < 1.0
    big = greedy_design(50, 2, 1)
    assert big.size >= max(1, int(design_size_bound(50, 2, 1)))


def test_embedding_depends_only_on_its_coordinates():
    g = random_boolean(3, seed=3)
    emb = embed_on_mask(g, 0b10110, 5)
    # flipping a coordinate outside {2,3,5} never changes the value
    idx = np.arange(32)
    for dead in (1, 4):
        assert np.array_equal(emb.table, emb.table[idx ^ (1 << (dead - 1))])
    # and the restriction matches the base pointwise
    for ambient_idx in range(32):
        bits = [(ambient_idx >> (c - 1)) & 1 for c in (2, 3, 5)]
        base_idx = bits[0] | bits[1] << 1 | bits[2] << 2
        assert emb.table[ambient_idx] == g.table[base_idx]


def test_embedding_preserves_resilience():
    g = parity(0b011, 3)  # 1-resilient on 3 vars
    emb = embed_on_mask(g, 0b0101010, 7)
    assert is_d_resilient(emb, 1).resilient
    spec = wht(emb)
    support = np.nonzero(np.abs(spec) > 1e-12)[0]
    for mask in support:
        assert int(mask) & ~0b0101010 == 0  # spectrum supported inside the set


def test_embedding_distance_transfer():
    f = random_boolean(3, seed=9)
    g = BoundedFunction(3, np.random.default_rng(10).uniform(-1, 1, 8))
    base_dist = l1_distance(f, g)
    fe = embed_on_mask(f, 0b011010, 6)
    ge = embed_on_mask(g, 0b011010, 6)
    assert l1_distance(fe, ge) == pytest.approx(base_dist, abs=1e-12)


def test_embedding_validation():
    g = random_boolean(3, seed=5)
    with pytest.raises(ValueError, match="popcount"):
        embed_on_mask(g, 0b00011, 5)  # wrong arity
    with pytest.raises(ValueError, match="popcount"):
        embed_on_mask(g, 0b1111, 5)
    with pytest.raises(ValueError, match="ambient range"):
        embed_on_mask(g, 0b100011, 5)  # bit 5 is coordinate 6
    with pytest.raises(ValueError, match="ambient range"):
        embed_on_mask(g, -0b111, 5)
    with pytest.raises(ValueError, match="ambient dimension"):
        embed_on_mask(g, 0b111, MAX_AMBIENT_DIM + 1)


def _loop_embedding(base, mask, ambient):
    """The embedded table by the coordinate tuple and loop embed_on_mask replaced."""
    coords = tuple(j + 1 for j in range(ambient) if mask >> j & 1)
    idx = np.arange(1 << ambient, dtype=np.int64)
    base_idx = np.zeros(1 << ambient, dtype=np.int64)
    for j, coord in enumerate(coords):
        base_idx |= ((idx >> (coord - 1)) & 1) << j
    return base.table[base_idx]


def test_embedding_matches_the_coordinate_loop():
    rng = np.random.default_rng(21)
    for k in range(5):
        bases = [random_boolean(k, seed=k), BoundedFunction(k, rng.uniform(-1.0, 1.0, 1 << k))]
        for base in bases:
            for ambient in rng.integers(k, 11, size=3).tolist():
                mask = sum(1 << int(j) for j in rng.choice(ambient, k, replace=False))
                emb = embed_on_mask(base, mask, ambient)
                assert type(emb) is type(base) and emb.n == ambient
                want = _loop_embedding(base, mask, ambient)
                assert emb.table.dtype == base.table.dtype
                assert emb.table.tobytes() == want.tobytes()


def test_orthogonal_family_parities():
    design = greedy_design(8, 2, 1)
    g = parity(0b11, 2)  # 1-resilient
    report = orthogonal_family(g, design)
    assert _spectral_gram(g, design.masks()).dtype == np.int64  # the integer route
    assert report.max_offdiagonal == 0.0
    assert report.diagonal_value == pytest.approx(1.0)


def test_orthogonal_family_builder_output_in_ambient_12():
    g = build_one_resilient(5).output
    design = greedy_design(12, 5, 1)
    report = orthogonal_family(g, design)
    assert _spectral_gram(g, design.masks()).dtype == np.int64  # the integer route
    assert report.max_offdiagonal == 0.0
    assert np.allclose(np.diag(report.gram), 1.0)
    assert design.size >= 3


def test_orthogonality_requires_enough_resilience():
    design = greedy_design(8, 2, 1)
    g = BooleanFunction(2, np.array([1, -1, 1, -1], dtype=np.int8))  # dictator, 0-resilient
    with pytest.raises(ValueError):
        orthogonal_family(g, design)


def _resilience_bases():
    rng = np.random.default_rng(7)
    boolean = [
        parity(0b111, 3), parity(0b011, 3), dictator(2, 3), majority(3), constant(3, -1),
        tribes(2, 2), random_boolean(4, seed=3), random_boolean(4, seed=4, balanced=True),
        build_one_resilient(5).output,
    ]
    half_parity = 0.5 * parity(0b111, 3).table
    bounded = [
        BoundedFunction(3, np.zeros(8)),
        BoundedFunction(3, half_parity),
        BoundedFunction(4, rng.uniform(-1.0, 1.0, 16)),
        BoundedFunction(4, 0.25 * (parity(0b1111, 4).table + parity(0b0111, 4).table)),
    ]
    # coefficients 1e-11 (counted as zero) and 1e-9 (not) at degrees 0, 1 and 2
    for eps in (1e-11, 1e-9):
        bounded.append(BoundedFunction(3, np.full(8, eps)))
        for mask in (0b0, 0b1, 0b11):
            bounded.append(BoundedFunction(3, half_parity + eps * parity(mask, 3).table))
    return boolean + bounded


def test_orthogonal_family_accepts_exactly_the_resilient_enough_bases():
    for g in _resilience_bases():
        order = resilience_order(g)
        for d in range(g.n):
            design = greedy_design(g.n + 3, g.n, d)
            try:
                orthogonal_family(g, design)
                accepted = True
            except ValueError as exc:
                accepted = False
                assert f"needs a {d}-resilient base" in str(exc)
                assert "-1-resilient" not in str(exc)
            assert accepted == (order >= d), (g, d, order)


def test_single_set_family_trivially_passes():
    design = greedy_design(5, 5, 4)
    g = parity(0b11111, 5)
    report = orthogonal_family(g, design)
    assert report.max_offdiagonal == 0.0


def test_non_orthogonal_detection():
    # bounded base that is NOT resilient enough gets rejected up front;
    # force the error path by lying about the design then checking Gram
    g = BoundedFunction(2, np.array([0.5, 0.5, 0.5, 0.5]))
    design = greedy_design(6, 2, 1)
    with pytest.raises((ValueError, OrthogonalityError)):
        orthogonal_family(g, design)


def _table_gram(g, sets, ambient):
    """4^k E[g_A g_B] from the stacked 2^N embedding tables (the reference)."""
    stack = np.stack([embed_on_mask(g, mask, ambient).table for mask in sets])
    # float64 products of +-1 tables sum exactly: |entries| <= 2^N < 2^53
    scaled = (stack.astype(np.float64) @ stack.T) * (1 << 2 * g.n) / (1 << ambient)
    return np.rint(scaled).astype(np.int64) if isinstance(g, BooleanFunction) else scaled


def _random_sets(rng, ambient, k, m):
    return [int(sum(1 << j for j in rng.choice(ambient, k, replace=False))) for _ in range(m)]


def test_spectral_gram_equals_the_table_gram():
    rng = np.random.default_rng(11)
    bases = [
        build_one_resilient(5).output,
        parity(0b111, 3),
        random_boolean(4, seed=2),  # not resilient: the identity holds for any g
        tribes(2, 2),
        BoundedFunction(4, rng.uniform(-1.0, 1.0, 16)),
        BoundedFunction(3, 0.5 * parity(0b111, 3).table),
    ]
    for g in bases:
        for ambient in (g.n, 9, 12, 16):
            for m in (1, 2, 7):
                sets = _random_sets(rng, ambient, g.n, m)
                got = _spectral_gram(g, np.array(sets, dtype=np.uint64))
                want = _table_gram(g, sets, ambient)
                if isinstance(g, BooleanFunction):
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want)
                else:
                    assert np.allclose(got, want, rtol=0, atol=1e-9 * (1 << 2 * g.n))


def test_orthogonal_family_matches_the_table_gram_on_designs():
    cases = [
        (build_one_resilient(5).output, greedy_design(12, 5, 1)),
        (parity(0b11, 2), greedy_design(8, 2, 1)),
        (parity(0b111, 3), greedy_design(12, 3, 2)),
        (parity(0b111, 3), greedy_design(14, 3, 1)),
        (BoundedFunction(3, 0.5 * parity(0b111, 3).table), greedy_design(10, 3, 1)),
    ]
    for g, design in cases:
        report = orthogonal_family(g, design)
        want = _table_gram(g, design.sets, design.n) / float(1 << 2 * g.n)
        integer = _spectral_gram(g, design.masks()).dtype == np.int64
        assert integer == isinstance(g, BooleanFunction)
        assert report.gram.tobytes() == want.tobytes()
        assert report.max_offdiagonal == 0.0
        assert report.diagonal_value == float(np.mean(np.square(g.table, dtype=np.float64)))


def test_orthogonal_family_raises_on_a_nonzero_off_diagonal(monkeypatch):
    design = greedy_design(8, 2, 1)

    def leaky(g, masks):
        gram = np.eye(len(masks), dtype=np.int64) * 16
        gram[0, 1] = gram[1, 0] = 1
        return gram

    monkeypatch.setattr(designs, "_spectral_gram", leaky)
    with pytest.raises(OrthogonalityError, match="integer Gram"):
        orthogonal_family(parity(0b11, 2), design)


def test_orthogonal_family_needs_no_ambient_table():
    # ambient 40 is past the 2^22 embedding tables; the Gram reads 4 coefficients
    design = greedy_design(40, 3, 1)
    report = orthogonal_family(parity(0b111, 3), design)
    assert report.gram.shape == (design.size, design.size)
    assert np.array_equal(report.gram, np.eye(design.size))


def _python_greedy(n, k, d):
    """The pairwise Python loop the vectorized greedy must reproduce."""
    candidates = [sum(1 << (j - 1) for j in c) for c in combinations(range(1, n + 1), k)]
    chosen = []
    for cand in candidates:
        if all((cand & prev).bit_count() <= d for prev in chosen):
            chosen.append(cand)
    return tuple(chosen)


GREEDY_CASES = [(4, 2, 0), (8, 3, 1), (16, 6, 2), (12, 5, 1), (13, 4, 2),
                (50, 2, 1), (64, 2, 0), (30, 3, 1), (20, 3, 1)]


@pytest.mark.parametrize(
    "n,k,d", GREEDY_CASES,
    ids=[f"{n}-{k}-{d}-lex-None" for n, k, d in GREEDY_CASES],  # lex order, no seed
)
def test_greedy_design_matches_the_pairwise_loop(n, k, d):
    design = greedy_design(n, k, d)
    assert design.sets == _python_greedy(n, k, d)
    for a, b in combinations(design.sets, 2):
        assert (a & b).bit_count() <= d


@pytest.mark.parametrize("n,k", [(16, 6), (20, 5), (30, 3), (64, 2), (5, 5)])
def test_lex_subset_masks_match_the_per_subset_sum(n, k):
    masks = designs._lex_subset_masks(n, k)
    expected = [sum(1 << j for j in combo) for combo in combinations(range(n), k)]
    assert masks.dtype == np.uint64
    assert masks.tolist() == expected


def test_design_constructor_checks_every_pair_and_every_set():
    good = (0b000111, 0b011001, 0b101010, 0b110100)
    Design(6, 3, 1, good)
    for bad_pair in ((0, 3), (1, 2), (2, 3)):
        sets = list(good)
        sets[bad_pair[1]] = sets[bad_pair[0]]  # a repeated set meets itself in 3
        with pytest.raises(ValueError, match="intersect"):
            Design(6, 3, 1, tuple(sets))
    with pytest.raises(ValueError, match="3-subset"):
        Design(6, 3, 1, good + (0b1111,))
    with pytest.raises(ValueError, match="3-subset"):
        Design(6, 3, 1, (0b1000011,))
    with pytest.raises(ValueError):
        Design(65, 2, 1, (0b11,))
    for d in (-1, 4):  # one set meets no other, so only d itself is wrong
        with pytest.raises(ValueError, match="bound d"):
            Design(6, 3, d, (0b111,))
    with pytest.raises(ValueError):
        greedy_design(65, 2, 1)
