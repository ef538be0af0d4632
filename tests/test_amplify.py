import gc
import tracemalloc

import numpy as np
import pytest

from boolres.amplify import (
    SAMPLE_LEAF_BUDGET,
    ArityOverflow,
    ComposedFunction,
    _multilinear,
    _sampled_distance,
    amplification_report,
    check_composed_resilience,
    compose,
    materialize,
    resilience_order,
    self_composition,
)
from boolres.duality import distance_to_resilience
from boolres.hypercube import (
    BooleanFunction,
    BoundedFunction,
    Spectrum,
    chi_values,
    noise_sensitivity,
    spectral_stats,
    wht,
)
from boolres.zoo import dictator, majority, parity, random_boolean


def test_parity_composition_is_parity():
    g2 = parity(0b11, 2)
    c = compose(g2, g2)
    assert c.arity == 4
    table = materialize(c)
    expected = chi_values(4, 0b1111).astype(float)
    assert np.allclose(table.table, expected, atol=1e-12)


def test_zero_inner_collapses_to_mean():
    g = BoundedFunction(2, np.zeros(4))
    outer = BooleanFunction(2, np.array([1, 1, 1, -1], dtype=np.int8))
    c = compose(outer, g)
    values = c.evaluate(np.arange(16))
    mean = float(np.mean(outer.table))
    assert np.allclose(values, mean, atol=1e-12)


def test_boolean_composition_is_literal_substitution():
    f = majority(3)
    c = compose(f, f)
    table = materialize(c)
    # oracle: substitute block values one point at a time
    for idx in (0, 1, 37, 100, 255, 511):
        blocks = [(idx >> (3 * i)) & 0b111 for i in range(3)]
        inner = [f(b) for b in blocks]
        outer_idx = sum((1 << i) for i, v in enumerate(inner) if v < 0)
        assert table(idx) == pytest.approx(f(outer_idx))


def test_multilinear_matches_random_sign_sampling():
    # E[G(b(t_1),...,b(t_m))] estimated by sampling vs the lazy evaluation
    rng = np.random.default_rng(7)
    outer = random_boolean(3, seed=21)
    inner = BoundedFunction(2, rng.uniform(-1, 1, size=4))
    c = compose(outer, inner)
    points = rng.integers(0, 1 << 6, size=10)
    exact = c.evaluate(points)
    draws = 200_000
    for pt, val in zip(points, exact):
        tvals = np.array([inner((int(pt) >> (2 * i)) & 0b11) for i in range(3)])
        signs = np.where(
            rng.random((draws, 3)) < (1 + tvals) / 2, 1, -1
        )
        idxs = ((signs < 0) * (1 << np.arange(3))).sum(axis=1)
        estimate = float(outer.table[idxs].mean())
        sigma = np.sqrt(1.0 / draws)
        assert abs(estimate - val) <= 4 * sigma + 1e-3


def test_composition_stays_bounded():
    rng = np.random.default_rng(3)
    outer = BoundedFunction(2, rng.uniform(-1, 1, size=4))
    inner = BoundedFunction(2, rng.uniform(-1, 1, size=4))
    table = materialize(compose(outer, inner)).table
    assert np.max(np.abs(table)) <= 1.0 + 1e-12


def test_self_composition_arity():
    f = majority(3)
    assert self_composition(f, 0) is f
    assert self_composition(f, 1).arity == 9
    assert self_composition(f, 2).arity == 27


def test_resilience_order():
    assert resilience_order(parity(0b111, 3)) == 2
    assert resilience_order(dictator(1, 3)) == 0
    assert resilience_order(BoundedFunction(2, np.zeros(4))) == 2
    assert resilience_order(BooleanFunction(2, np.ones(4, dtype=np.int8))) == -1


def test_parity_pair_composition_certificate():
    cert = check_composed_resilience(parity(0b11, 2), parity(0b111, 3))
    assert cert.d1 == 1 and cert.d2 == 2
    assert cert.guaranteed_order == 2
    assert cert.sharp_order == 5
    assert cert.measured_order == 5  # six-variable parity
    assert cert.max_low_coefficient == 0.0


def test_witness_self_composition_certificate():
    # the LP witness is at least 1-resilient (it happens to be 2-resilient:
    # its spectrum sits on level 3), so the composed order must reach
    # (d+1)^2 - 1 >= 3 and the certificate must verify it exactly
    g = distance_to_resilience(majority(3), 1).witness
    cert = check_composed_resilience(g, g)
    assert cert.d1 == cert.d2 >= 1
    assert cert.sharp_order == (cert.d1 + 1) ** 2 - 1 >= 3
    assert cert.arity == 9
    assert cert.max_low_coefficient <= 1e-10
    assert cert.measured_order >= 3


def test_parity_self_composition_is_tight():
    # parity on d+1 variables composed k times is parity on (d+1)^(k+1)
    # variables, whose resilience order is exactly (d+1)^(k+1) - 1
    for d, k in ((1, 1), (1, 2), (2, 1)):
        base = parity((1 << (d + 1)) - 1, d + 1)
        table = materialize(self_composition(base, k))
        order = resilience_order(BooleanFunction(table.n, table.table.astype(np.int8)))
        assert order == (d + 1) ** (k + 1) - 1


def test_balanced_dictator_only_trivial_guarantee():
    cert = check_composed_resilience(dictator(1, 2), parity(0b11, 2))
    assert cert.d1 == 0 and cert.d2 == 1
    assert cert.guaranteed_order == 0
    assert cert.sharp_order == 1
    assert cert.measured_order >= 1


def test_arity_overflow_guard():
    f = majority(3)
    with pytest.raises(ArityOverflow):
        materialize(self_composition(f, 2))  # 27 bits


def test_amplification_identical_functions():
    f = majority(3)
    g = BoundedFunction(3, f.table.astype(float))
    rep = amplification_report(f, g, k=1)
    assert rep.dist_base == 0.0
    assert rep.dist_measured == 0.0
    assert rep.exact


def test_amplification_majority3_exact():
    f = majority(3)
    g = distance_to_resilience(f, 1).witness
    rep = amplification_report(f, g, k=1)
    assert rep.arity == 9
    assert rep.influence == pytest.approx(1.5)
    assert rep.cor2_bound == pytest.approx(rep.dist_base * (1 + 1.5))
    assert rep.exact
    assert rep.dist_measured <= rep.cor2_bound + 1e-9
    assert rep.ns_delta_exact <= rep.ns_union_bound + 1e-12


def test_amplification_rejects_unbalanced():
    f = BooleanFunction(3, np.ones(8, dtype=np.int8))
    g = BoundedFunction(3, np.zeros(8))
    with pytest.raises(ValueError):
        amplification_report(f, g, k=1)


def test_amplification_sampled_path_deterministic():
    f = majority(3)
    g = distance_to_resilience(f, 1).witness
    rep1 = amplification_report(f, g, k=2, samples=20_000, seed=11)
    rep2 = amplification_report(f, g, k=2, samples=20_000, seed=11)
    assert not rep1.exact
    assert rep1.arity == 27
    assert rep1.dist_measured == rep2.dist_measured
    assert rep1.dist_measured <= rep1.cor2_bound + rep1.ci_width + 1e-9


def test_sampled_path_requires_seed():
    f = majority(3)
    g = distance_to_resilience(f, 1).witness
    with pytest.raises(ValueError):
        amplification_report(f, g, k=2)


@pytest.mark.parametrize("samples", [0, -3])
def test_amplification_rejects_non_positive_sample_count(samples):
    f = majority(5)
    g = distance_to_resilience(f, 1).witness
    with pytest.raises(ValueError, match="sample count"):
        amplification_report(f, g, k=2, samples=samples, seed=1)


def test_sampled_matches_exact_at_small_arity():
    # force the sampling machinery onto a case we can also compute exactly
    from boolres.amplify import _sampled_distance

    f = majority(3)
    g = distance_to_resilience(f, 1).witness
    exact = amplification_report(f, g, k=1).dist_measured
    approx = _sampled_distance(f, g, k=1, samples=200_000, seed=5)
    assert abs(approx - exact) <= 0.01


def test_triangle_decomposition_single_level():
    # dist(F o f, G o g) <= dist(F, G) + NS_delta[F], all exact at 4 bits
    F = parity(0b11, 2)
    G_res = distance_to_resilience(F, 0)
    G = G_res.witness
    f = dictator(1, 2)
    g = BoundedFunction(2, np.zeros(4))
    delta = float(np.mean(np.abs(f.table - g.table))) / 2.0
    lhs = (
        float(np.mean(np.abs(materialize(compose(F, f)).table - materialize(compose(G, g)).table)))
        / 2.0
    )
    rhs = float(np.mean(np.abs(F.table - G.table))) / 2.0 + noise_sensitivity(F, delta)
    assert lhs <= rhs + 1e-12


def test_ns_union_bound_random_balanced():
    for seed in range(6):
        f = random_boolean(5, seed=seed + 100, balanced=True)
        infl = spectral_stats(f, 0).total_influence
        for delta in (0.05, 0.1, 0.25):
            ns_spec = noise_sensitivity(f, delta)
            ns_direct = noise_sensitivity(f, delta, method="direct")
            assert abs(ns_spec - ns_direct) <= 1e-10
            assert ns_spec <= delta * infl + 1e-12


@pytest.mark.parametrize("confidence", [float("nan"), 0.0, 1.0, 1.5, -0.1])
def test_amplification_rejects_confidence_outside_open_unit_interval(confidence):
    f = majority(3)
    g = distance_to_resilience(f, 1).witness
    with pytest.raises(ValueError, match="confidence"):
        amplification_report(f, g, k=2, samples=1000, seed=1, confidence=confidence)


def test_sampled_tree_above_leaf_budget_is_rejected():
    # 2^21 leaves fill one batch row exactly; 2^22 cannot be drawn at all
    f = dictator(1, 2)
    g = BoundedFunction(2, np.zeros(4))
    assert 2**21 == SAMPLE_LEAF_BUDGET
    amplification_report(f, g, k=21, samples=2, seed=1)
    with pytest.raises(ValueError, match="leaves"):
        amplification_report(f, g, k=22, samples=2, seed=1)


# The mask-sum evaluator and the sampler that `amplify` replaced, kept as
# oracles for the Horner evaluator and the sign-bit, leaves-major sampler.

def _mask_sum_multilinear(spectrum, vals):
    out = np.zeros(vals.shape[1:])
    for mask in np.nonzero(spectrum.coeffs != 0.0)[0]:
        term = np.full(vals.shape[1:], spectrum.coeffs[mask])
        mm = int(mask)
        j = 0
        while mm:
            if mm & 1:
                term *= vals[j]
            mm >>= 1
            j += 1
        out += term
    return out


def _mask_sum_evaluate(fn, indices):
    if isinstance(fn, ComposedFunction):
        m = fn.outer_spectrum.n
        inner = fn.inner
        inner_ar = inner.arity if isinstance(inner, ComposedFunction) else inner.n
        block_mask = (1 << inner_ar) - 1
        tvals = np.empty((m, len(indices)))
        for i in range(m):
            tvals[i] = _mask_sum_evaluate(fn.inner, (indices >> (i * inner_ar)) & block_mask)
        return _mask_sum_multilinear(fn.outer_spectrum, tvals)
    return fn.table[indices].astype(np.float64)


def _float_level_sampled_distance(f, g, k, samples, seed, batch=1 << 16):
    n = f.n
    leaves = n**k
    g_spec = wht(g)
    rng = np.random.default_rng(seed)
    total = 0.0
    remaining = samples
    while remaining > 0:
        b = min(batch, remaining)
        leaf_idx = rng.integers(0, 1 << n, size=(b, leaves))
        fv = f.table[leaf_idx].astype(np.float64)
        gv = g.table[leaf_idx]
        while fv.shape[1] > 1:
            bits = (fv.reshape(b, -1, n) < 0).astype(np.int64)
            fv = f.table[bits @ (1 << np.arange(n, dtype=np.int64))].astype(np.float64)
            gv = _mask_sum_multilinear(g_spec, np.moveaxis(gv.reshape(b, -1, n), -1, 0))
        total += float(np.abs(fv[:, 0] - gv[:, 0]).sum()) / 2.0
        remaining -= b
    return total / samples


def _random_spectra(m, rng):
    dense = rng.uniform(-1, 1, size=1 << m)
    sparse = dense * (rng.random(1 << m) < 0.15)
    weights = np.array([bin(mask).count("1") for mask in range(1 << m)])
    high = np.where(weights > m // 2, dense, 0.0)  # all-zero low halves
    return [dense, sparse, high, np.zeros(1 << m)]


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
@pytest.mark.parametrize("m", range(9))
def test_multilinear_matches_mask_sum_oracle(m, shape):
    rng = np.random.default_rng(1000 + m)
    vals = rng.uniform(-1, 1, size=(m,) + shape)
    for coeffs in _random_spectra(m, rng):
        spectrum = Spectrum(m, coeffs)
        got = _multilinear(spectrum, vals)
        assert got.shape == shape
        np.testing.assert_allclose(
            got, _mask_sum_multilinear(spectrum, vals), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("m", range(1, 9))
def test_multilinear_exact_on_boolean_spectra(m):
    # dyadic coefficients on +-1 inputs: every partial sum is exact
    rng = np.random.default_rng(m)
    f = random_boolean(m, seed=m)
    signs = rng.choice([-1.0, 1.0], size=(m, 64))
    got = _multilinear(wht(f), signs)
    assert np.array_equal(got, _mask_sum_multilinear(wht(f), signs))
    points = ((signs < 0) * (1 << np.arange(m))[:, None]).sum(axis=0)
    assert np.array_equal(got, f.table[points].astype(np.float64))


def test_materialize_matches_mask_sum_oracle():
    rng = np.random.default_rng(17)
    outer = random_boolean(3, seed=5)
    bounded = BoundedFunction(2, rng.uniform(-1, 1, size=4))
    for c in (
        compose(outer, majority(3)),
        compose(outer, bounded),
        compose(majority(3), compose(outer, bounded)),
    ):
        expected = _mask_sum_evaluate(c, np.arange(1 << c.arity))
        got = materialize(c).table
        if isinstance(c.inner, BooleanFunction):
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, k", [(3, 2), (5, 2), (3, 3)])
def test_sampled_distance_bit_equal_to_float_level_oracle(n, k):
    # 70_000 samples: one full batch of 2^16 rows and a partial one
    f = majority(n)
    g = distance_to_resilience(f, 1).witness
    got = _sampled_distance(f, g, k, samples=70_000, seed=23)
    assert got == _float_level_sampled_distance(f, g, k, samples=70_000, seed=23)


def _traced_peak(call, repeats=1):
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(repeats):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_batch_memory_stays_within_leaf_budget():
    # 625 leaves: a batch of 2^16 rows would be a 328 MB float64 array; the
    # leaf budget caps each batch at SAMPLE_LEAF_BUDGET draws, about 2.2x
    # that many float64s live at once (index, gathered and transposed tables)
    f = majority(5)
    g = distance_to_resilience(f, 1).witness
    peak = _traced_peak(lambda: _sampled_distance(f, g, k=4, samples=7000, seed=3))
    assert peak < 3 * 8 * SAMPLE_LEAF_BUDGET


def test_sampled_distance_frees_each_batch_without_cyclic_gc():
    # a batch held by a reference cycle would stay alive into the next call
    f = majority(5)
    g = distance_to_resilience(f, 1).witness

    def call():
        _sampled_distance(f, g, k=2, samples=70_000, seed=29)

    one = _traced_peak(call)
    gc.disable()
    try:
        three = _traced_peak(call, repeats=3)
    finally:
        gc.enable()
    assert three <= 1.5 * one
