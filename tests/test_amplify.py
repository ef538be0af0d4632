import numpy as np
import pytest

from boolres.amplify import (
    ArityOverflow,
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
    chi_values,
    noise_sensitivity,
    spectral_stats,
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
