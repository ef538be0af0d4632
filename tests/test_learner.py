import numpy as np
import pytest

from boolres import duality
from boolres.builder import build_one_resilient
from boolres.designs import embed_on_mask, greedy_design
from boolres.duality import low_degree_masks
from boolres.hypercube import BooleanFunction, BoundedFunction, chi_values, coordinate_values
from boolres.learner import (
    LabeledDistribution,
    learn_exact,
    learn_sampled,
    opt_of_class,
)
from boolres.zoo import constant, dictator, majority, parity, tribes


def scaled_dictator(n, scale=0.8):
    return LabeledDistribution(BoundedFunction(n, scale * coordinate_values(n, 1)))


def dictator_class(n):
    cls = [dictator(i, n) for i in range(1, n + 1)]
    cls += [BooleanFunction(n, -c.table) for c in cls]
    return cls


def test_opt_of_dictators_against_scaled_dictator():
    dist = scaled_dictator(6)
    assert opt_of_class(dictator_class(6), dist) == pytest.approx(0.1)


def test_opt_includes_sign_of_target():
    g = BoundedFunction(3, 0.6 * coordinate_values(3, 2))
    dist = LabeledDistribution(g)
    cls = [dictator(2, 3)]
    # sign(g) = x2, so OPT = E[(1-|g|)/2] = 0.2
    assert opt_of_class(cls, dist) == pytest.approx(0.2)


def test_opt_constant_class_on_balanced_target():
    dist = scaled_dictator(4)
    assert opt_of_class([constant(4, 1), constant(4, -1)], dist) == pytest.approx(0.5)


def test_opt_rejects_empty_class():
    with pytest.raises(ValueError):
        opt_of_class([], scaled_dictator(3))


def test_learn_exact_scaled_dictator():
    dist = scaled_dictator(6)
    report = learn_exact(dist, d=1, epsilon=0.01, comparison_class=dictator_class(6))
    assert report.opt == pytest.approx(0.1)
    assert report.error <= 0.1 + 0.01
    # the learner should effectively recover x1
    assert np.array_equal(report.hypothesis.table, coordinate_values(6, 1))


def test_learn_exact_parity_labels_below_degree():
    f = parity(0b111, 5)
    dist = LabeledDistribution(BoundedFunction(5, f.table.astype(float)))
    report = learn_exact(dist, d=1, epsilon=0.01)
    assert report.regression_delta == pytest.approx(1.0, abs=1e-7)
    assert report.error == pytest.approx(0.5, abs=1e-9)


def test_threshold_optimality_brute_force():
    rng = np.random.default_rng(17)
    g = BoundedFunction(5, rng.uniform(-1, 1, size=32))
    dist = LabeledDistribution(g)
    report = learn_exact(dist, d=1, epsilon=0.05)
    p = report.poly.table()
    up, down = dist.label_weights()
    # brute force over every threshold between consecutive values
    candidates = np.concatenate([[p.min() - 1.0], np.unique(p)])
    best = np.inf
    for t in candidates:
        h = np.where(p > t, 1, -1)
        best = min(best, float(up[h < 0].sum() + down[h > 0].sum()))
    assert report.error == pytest.approx(best, abs=1e-12)


def test_error_never_above_half():
    rng = np.random.default_rng(23)
    for seed in range(3):
        g = BoundedFunction(4, rng.uniform(-1, 1, size=16))
        report = learn_exact(LabeledDistribution(g), d=1, epsilon=0.05)
        assert report.error <= 0.5 + 1e-12


def _hard_target():
    base = build_one_resilient(5).output
    design = greedy_design(12, 5, 1)
    target = embed_on_mask(base, design.sets[0], 12).function()
    return LabeledDistribution(BoundedFunction(12, target.table.astype(float)))


def test_hardness_shadow_embedded_resilient_target():
    # balanced, exactly 1-resilient Boolean target: degree-1 regression
    # cannot beat a coin flip
    base = build_one_resilient(5).output
    design = greedy_design(12, 5, 1)
    target = embed_on_mask(base, design.sets[0], 12).function()
    dist = LabeledDistribution(BoundedFunction(12, target.table.astype(float)))
    report = learn_exact(dist, d=1, epsilon=0.01)
    assert report.error >= 0.5 - 1e-9


def test_learn_sampled_recovers_scaled_dictator():
    dist = scaled_dictator(6)
    report = learn_sampled(dist, d=1, m=50_000, seed=3, comparison_class=dictator_class(6))
    assert report.error <= 0.1 + 0.02
    assert report.m == 50_000 and report.seed == 3
    assert report.empirical_error is not None


def test_learn_sampled_replay_deterministic():
    dist = scaled_dictator(5)
    r1 = learn_sampled(dist, d=1, m=2000, seed=42)
    r2 = learn_sampled(dist, d=1, m=2000, seed=42)
    assert r1.error == r2.error
    assert r1.regression_delta == r2.regression_delta
    assert np.array_equal(r1.hypothesis.table, r2.hypothesis.table)


def test_learn_sampled_rejects_zero_samples():
    with pytest.raises(ValueError):
        learn_sampled(scaled_dictator(4), d=1, m=0, seed=1)


def test_exact_mode_dimension_guards():
    rng = np.random.default_rng(7)
    big_bounded = LabeledDistribution(BoundedFunction(11, rng.uniform(-0.9, 0.9, 2048)))
    with pytest.raises(ValueError):
        learn_exact(big_bounded, d=1, epsilon=0.1)


def test_excess_error_contract_asserted():
    # class = {x1}; target noisy x1; Delta_1(class) = 0 so excess <= eps
    dist = scaled_dictator(5)
    report = learn_exact(dist, d=1, epsilon=0.01, comparison_class=[dictator(1, 5)])
    assert report.excess is not None
    assert report.excess <= 0.01 + 1e-9


def test_hard_target_regressor_is_zero():
    # the box-optimal start is feasible on a 1-resilient target, so the
    # optimal basis is the starting one and its duals give p = 0
    report = learn_exact(_hard_target(), d=1, epsilon=0.01)
    assert all(c == 0.0 for c in report.poly.coeffs.values())
    assert report.regression_delta == 1.0
    assert report.error == 0.5


def _highs_regression(n, d, up, down):
    """min sum_x up_x |p(x) - 1| + down_x |p(x) + 1| as the 2^n-row LP pair
    p(x) - a+ + a- = 1, p(x) - b+ + b- = -1 over free coefficients of p."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    size = 1 << n
    masks = low_degree_masks(n, d)
    chi = np.array([chi_values(n, mask) for mask in masks], dtype=np.float64).T
    eye, zero = np.eye(size), np.zeros((size, size))
    a_eq = np.block([[chi, -eye, eye, zero, zero], [chi, zero, zero, -eye, eye]])
    b_eq = np.concatenate([np.ones(size), -np.ones(size)])
    cost = np.concatenate([np.zeros(len(masks)), up, up, down, down])
    bounds = [(None, None)] * len(masks) + [(0, None)] * (4 * size)
    out = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert out.status == 0, out.message
    return out.fun


def _bounded(f):
    return BoundedFunction(f.n, f.table.astype(float))


def _noisy(n, seed):
    rng = np.random.default_rng(seed)
    return BoundedFunction(n, rng.choice([-1.0, 1.0], 1 << n) * rng.uniform(0.1, 1.0, 1 << n))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("g", [
    _bounded(majority(7)),
    _bounded(tribes(2, 4)),
    _noisy(6, seed=1),
    _noisy(8, seed=2),
], ids=["majority7", "tribes24", "noisy6", "noisy8"])
def test_exact_regression_matches_highs(g, d):
    dist = LabeledDistribution(g)
    report = learn_exact(dist, d=d, epsilon=0.05)
    up, down = dist.label_weights()
    assert report.regression_delta == pytest.approx(
        _highs_regression(g.n, d, up, down), abs=1e-7
    )


@pytest.mark.parametrize("d", [1, 2])
def test_sampled_regression_matches_highs(d):
    n, m, seed = 6, 300, 4
    dist = scaled_dictator(n)
    report = learn_sampled(dist, d=d, m=m, seed=seed)
    # the learner's sample, redrawn from the same seed
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 1 << n, size=m)
    ys = np.where(rng.random(m) < (1.0 + dist.g.table[xs]) / 2.0, 1, -1)
    up = np.bincount(xs[ys > 0], minlength=1 << n) / m
    down = np.bincount(xs[ys < 0], minlength=1 << n) / m
    assert np.any((up > 0) & (down > 0))  # mixed labels at some point
    assert report.regression_delta == pytest.approx(
        _highs_regression(n, d, up, down), abs=1e-7
    )


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("g", [_bounded(majority(7)), _noisy(6, seed=3)],
                         ids=["boolean", "noisy"])
def test_learn_exact_solves_one_k_row_lp(monkeypatch, g, d):
    rows = []
    real = duality.solve_lp

    def counting(lp, **kwargs):
        rows.append(lp.eq_matrix.shape[0])
        return real(lp, **kwargs)

    monkeypatch.setattr(duality, "solve_lp", counting)
    learn_exact(LabeledDistribution(g), d=d, epsilon=0.05)
    assert rows == [len(low_degree_masks(g.n, d))]
