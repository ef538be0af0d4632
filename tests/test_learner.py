import dataclasses

import numpy as np
import pytest

from boolres import duality, learner
from boolres.builder import build_one_resilient
from boolres.designs import greedy_design
from boolres.duality import (
    CertificateError,
    distance_to_resilience,
    l1_poly_distance,
    low_degree_masks,
)
from boolres.hypercube import BooleanFunction, BoundedFunction, characters, chi_values
from boolres.learner import (
    LearnReport,
    _best_threshold,
    learn_exact,
    learn_sampled,
)
from boolres.zoo import constant, dictator, majority, parity, random_boolean, tribes
import reference
from reference import embed_on_mask, learn_against_class, opt_of_class, poly_table


def scaled_dictator(n, scale=0.8):
    return BoundedFunction(n, scale * chi_values(n, 1))


def dictator_class(n):
    cls = [dictator(i, n) for i in range(1, n + 1)]
    cls += [BooleanFunction(n, -c.table) for c in cls]
    return cls


def test_opt_of_dictators_against_scaled_dictator():
    g = scaled_dictator(6)
    assert opt_of_class(dictator_class(6), g) == pytest.approx(0.1)


def test_opt_includes_sign_of_target():
    g = BoundedFunction(3, 0.6 * chi_values(3, 0b10))
    cls = [dictator(2, 3)]
    # sign(g) = x2, so OPT = E[(1-|g|)/2] = 0.2
    assert opt_of_class(cls, g) == pytest.approx(0.2)


def test_opt_constant_class_on_balanced_target():
    g = scaled_dictator(4)
    assert opt_of_class([constant(4, 1), constant(4, -1)], g) == pytest.approx(0.5)


def test_opt_rejects_empty_class():
    with pytest.raises(ValueError):
        opt_of_class([], scaled_dictator(3))


def test_learn_exact_scaled_dictator():
    g = scaled_dictator(6)
    report, opt, _ = learn_against_class(g, d=1, comparison_class=dictator_class(6))
    assert opt == pytest.approx(0.1)
    assert report.error <= 0.1 + 0.01
    # the learner should effectively recover x1
    assert np.array_equal(report.hypothesis.table, chi_values(6, 1))


def test_learn_exact_parity_labels_below_degree():
    report = learn_exact(parity(0b111, 5), d=1)
    assert report.regression_delta == pytest.approx(1.0, abs=1e-7)
    assert report.error == pytest.approx(0.5, abs=1e-9)


def test_threshold_optimality_brute_force():
    rng = np.random.default_rng(17)
    g = BoundedFunction(5, rng.uniform(-1, 1, size=32))
    report = learn_exact(g, d=1)
    p = poly_table(report.coefficients, 5)
    up, down = learner._label_weights(g)
    # brute force over every threshold between consecutive values
    candidates = np.concatenate([[p.min() - 1.0], np.unique(p)])
    best = np.inf
    for t in candidates:
        h = np.where(p > t, 1, -1)
        best = min(best, float(up[h < 0].sum() + down[h > 0].sum()))
    assert report.error == pytest.approx(best, abs=1e-12)


def _loop_threshold(p_table, up, down):
    """The cut-by-cut sweep the array form replaced: a later cut wins only
    when its error is below the best so far by more than 1e-15."""
    order = np.argsort(p_table, kind="stable")
    sorted_p = p_table[order]
    boundaries = np.nonzero(np.diff(sorted_p) > 0)[0]
    up_prefix = np.concatenate([[0.0], np.cumsum(up[order])])
    down_prefix = np.concatenate([[0.0], np.cumsum(down[order])])
    best_err, best_cut = np.inf, 0
    for cut in np.concatenate([[0], boundaries + 1, [len(sorted_p)]]):
        err = down_prefix[-1] - down_prefix[cut] + up_prefix[cut]
        if err < best_err - 1e-15:
            best_err, best_cut = float(err), int(cut)
    return float(sorted_p[best_cut - 1]) if best_cut else float(sorted_p[0] - 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_threshold_sweep_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    n = 4 + seed
    # coarse p values tie often; some points carry no weight, as in sampling
    p = np.round(rng.normal(size=1 << n), 1)
    up, down = rng.random(1 << n), rng.random(1 << n)
    up[rng.random(1 << n) < 0.3] = 0.0
    total = up.sum() + down.sum()
    up, down = up / total, down / total
    threshold, error, h = _best_threshold(p, up, down)
    assert threshold == _loop_threshold(p, up, down)
    assert np.array_equal(h, np.where(p > threshold, 1, -1))
    assert error == float(up[h < 0].sum() + down[h > 0].sum())


def test_threshold_tie_takes_the_smallest_cut():
    # cutting below everything and cutting above the first point both err 3/8
    p = np.array([0.0, 1.0])
    threshold, error, _ = _best_threshold(p, np.array([0.125, 0.5]), np.array([0.125, 0.25]))
    assert (threshold, error) == (-1.0, 0.375)


def test_error_never_above_half():
    rng = np.random.default_rng(23)
    for seed in range(3):
        g = BoundedFunction(4, rng.uniform(-1, 1, size=16))
        report = learn_exact(g, d=1)
        assert report.error <= 0.5 + 1e-12


def _hard_target():
    base = build_one_resilient(5).output
    design = greedy_design(12, 5, 1)
    return embed_on_mask(base, design.sets[0], 12)


def test_hardness_shadow_embedded_resilient_target():
    # balanced, exactly 1-resilient Boolean target: degree-1 regression
    # cannot beat a coin flip
    base = build_one_resilient(5).output
    design = greedy_design(12, 5, 1)
    target = embed_on_mask(base, design.sets[0], 12)
    assert isinstance(target, BooleanFunction)
    report = learn_exact(target, d=1)
    assert report.error >= 0.5 - 1e-9


def test_learn_sampled_recovers_scaled_dictator():
    report = learn_sampled(scaled_dictator(6), d=1, m=50_000, seed=3)
    assert report.error <= 0.1 + 0.02
    assert report.empirical_error is not None


def test_learn_sampled_replay_deterministic():
    g = scaled_dictator(5)
    r1 = learn_sampled(g, d=1, m=2000, seed=42)
    r2 = learn_sampled(g, d=1, m=2000, seed=42)
    assert r1.error == r2.error
    assert r1.regression_delta == r2.regression_delta
    assert np.array_equal(r1.hypothesis.table, r2.hypothesis.table)


def test_learn_sampled_rejects_zero_samples():
    with pytest.raises(ValueError):
        learn_sampled(scaled_dictator(4), d=1, m=0, seed=1)


def test_exact_mode_dimension_guards():
    # one cap for every target type, duality.MAX_DUALITY_DIM = 12, the cap
    # of the same k-row box LP
    assert duality.MAX_DUALITY_DIM == 12
    rng = np.random.default_rng(7)
    big_bounded = BoundedFunction(13, rng.uniform(-0.9, 0.9, 1 << 13))
    big_signs = BoundedFunction(13, random_boolean(13, seed=7).table)
    for target in (big_bounded, big_signs, random_boolean(13, seed=7)):
        with pytest.raises(ValueError, match=r"^exact mode limited to n <= 12$"):
            learn_exact(target, d=1)


@pytest.mark.parametrize("n", [11, 12])
def test_bounded_targets_learn_exactly_up_to_the_duality_cap(n):
    # a noisy dictator plus bounded noise: the learner does no worse than
    # the dictators, whose degree-1 L1 distance is 0
    rng = np.random.default_rng(n)
    g = BoundedFunction(n, 0.6 * chi_values(n, 1) + rng.uniform(-0.3, 0.3, 1 << n))
    report, opt, excess = learn_against_class(g, d=1, comparison_class=dictator_class(n))
    assert opt == pytest.approx(0.2, abs=0.01)
    assert excess <= 1e-9


def _float_route(f, d, m=None, seed=None):
    """The report for a Boolean f learned as the float table of a bounded
    target, with the label weights and the sample drawn here."""
    size = 1 << f.n
    g = f.table.astype(np.float64)
    up, down = (1.0 + g) / 2.0 / size, (1.0 - g) / 2.0 / size
    if m is None:
        return learner._fit(f.n, d, up, down)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, size, size=m)
    ys = np.where(rng.random(m) < (1.0 + g[xs]) / 2.0, 1, -1)
    fit = learner._fit(f.n, d, np.bincount(xs[ys > 0], minlength=size).astype(np.float64) / m,
                       np.bincount(xs[ys < 0], minlength=size).astype(np.float64) / m)
    error = learner._error(fit.hypothesis.table, up, down)
    return dataclasses.replace(fit, error=error, empirical_error=fit.error)


def _report_bits(report):
    """Every LearnReport field, with each float as its bit pattern."""
    bits = {}
    for field in dataclasses.fields(LearnReport):
        value = getattr(report, field.name)
        if field.name == "hypothesis":
            value = (value.n, value.table.dtype, value.table.tobytes())
        elif field.name == "coefficients":
            value = [(k, c.hex()) for k, c in value.items()]
        elif isinstance(value, float):
            value = value.hex()
        bits[field.name] = value
    return bits


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("f", [majority(7), tribes(2, 4), random_boolean(8, seed=11)],
                         ids=["majority7", "tribes24", "random8"])
def test_boolean_target_reports_match_the_float_route(f, d):
    assert _report_bits(learn_exact(f, d=d)) == _report_bits(_float_route(f, d))
    sampled = learn_sampled(f, d=d, m=500, seed=9)
    assert _report_bits(sampled) == _report_bits(_float_route(f, d, m=500, seed=9))


def test_excess_error_contract_asserted():
    # class = {x1}; target noisy x1; Delta_1(class) = 0 so excess <= 0
    g, x1 = scaled_dictator(5), dictator(1, 5)
    report, opt, excess = learn_against_class(g, d=1, comparison_class=[x1])
    assert opt == float(np.mean((1.0 - x1.table * g.table) / 2.0))
    assert excess == report.error - opt
    assert excess <= 1e-9


def test_excess_error_contract_allows_only_rounding(monkeypatch):
    # Delta_1({x1}) = 0, so an excess of 1e-8 over opt breaks the contract
    real = reference.opt_of_class
    monkeypatch.setattr(reference, "opt_of_class", lambda cls, g: real(cls, g) - 1e-8)
    with pytest.raises(AssertionError, match="exceeded Delta/2"):
        learn_against_class(scaled_dictator(5), d=1, comparison_class=[dictator(1, 5)])


def test_hard_target_regressor_is_zero():
    # the box-optimal start is feasible on a 1-resilient target, so the
    # optimal basis is the starting one and its duals give p = 0
    report = learn_exact(_hard_target(), d=1)
    assert all(c == 0.0 for c in report.coefficients.values())
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
    report = learn_exact(g, d=d)
    up, down = learner._label_weights(g)
    assert report.regression_delta == pytest.approx(
        _highs_regression(g.n, d, up, down), abs=1e-7
    )


@pytest.mark.parametrize("d", [1, 2])
def test_sampled_regression_matches_highs(d):
    n, m, seed = 6, 300, 4
    g = scaled_dictator(n)
    report = learn_sampled(g, d=d, m=m, seed=seed)
    # the learner's sample, redrawn from the same seed
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 1 << n, size=m)
    ys = np.where(rng.random(m) < (1.0 + g.table[xs]) / 2.0, 1, -1)
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
    learn_exact(g, d=d)
    assert rows == [len(low_degree_masks(g.n, d))]


@pytest.mark.parametrize("solve", [
    lambda: learn_exact(scaled_dictator(5), d=1),
    lambda: learn_sampled(scaled_dictator(5), d=1, m=300, seed=1),
    lambda: l1_poly_distance(majority(5), 1),
], ids=["learn_exact", "learn_sampled", "l1_poly_distance"])
def test_corrupted_lp_value_fails_the_poly_check(monkeypatch, solve):
    # p is read off the duals, so its recomputed error no longer matches
    real = duality.solve_lp

    def corrupted(lp, **kwargs):
        sol = real(lp, **kwargs)
        return dataclasses.replace(sol, value=sol.value + 0.3)

    monkeypatch.setattr(duality, "solve_lp", corrupted)
    with pytest.raises(CertificateError):
        solve()


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_regression_delta_is_the_recomputed_l1_error(mode):
    # the published number is sum_c w_c |l_c - p(x_c)| over the labeled
    # points of nonzero weight, not the simplex's own objective value
    n, d, m = 6, 2, 300
    g = _noisy(n, seed=7)
    if mode == "exact":
        report = learn_exact(g, d=d)
        up, down = learner._label_weights(g)
    else:
        report = learn_sampled(g, d=d, m=m, seed=5)
        rng = np.random.default_rng(5)
        xs = rng.integers(0, 1 << n, size=m)
        ys = np.where(rng.random(m) < (1.0 + g.table[xs]) / 2.0, 1, -1)
        up = np.bincount(xs[ys > 0], minlength=1 << n) / m
        down = np.bincount(xs[ys < 0], minlength=1 << n) / m
    points = np.tile(np.arange(1 << n), 2)
    labels = np.repeat([1.0, -1.0], 1 << n)
    weights = np.concatenate([up, down])
    keep = weights > 0
    p_table = poly_table(report.coefficients, n)
    error = float(np.sum(weights[keep] * np.abs(labels[keep] - p_table[points[keep]])))
    assert report.regression_delta == error


@pytest.mark.parametrize("mode", ["resilience", "exact", "sampled"])
def test_box_lp_gets_c_order_character_rows_at_its_columns(monkeypatch, mode):
    # the pivots depend on the rows' layout, so what reaches the LP is pinned:
    # int8, C order, the character rows at the LP's column points
    n, d, m = 7, 2, 300
    seen = []
    real = duality._l1_box_lp

    def spy(rows, labels, masses):
        seen.append(rows)
        return real(rows, labels, masses)

    monkeypatch.setattr(duality, "_l1_box_lp", spy)
    table = _noisy(n, seed=7).table.copy()
    table[::5] = np.sign(table[::5])  # points with one label only
    g = BoundedFunction(n, table)
    if mode == "resilience":
        distance_to_resilience(majority(n), d)
        points = np.arange(1 << n)
    elif mode == "exact":
        learn_exact(g, d=d)
        up, down = learner._label_weights(g)
        points = np.concatenate([np.flatnonzero(up > 0), np.flatnonzero(down > 0)])
    else:
        learn_sampled(g, d=d, m=m, seed=5)
        rng = np.random.default_rng(5)
        xs = rng.integers(0, 1 << n, size=m)
        ys = np.where(rng.random(m) < (1.0 + g.table[xs]) / 2.0, 1, -1)
        points = np.concatenate([np.unique(xs[ys > 0]), np.unique(xs[ys < 0])])
    [rows] = seen
    assert rows.dtype == np.int8 and rows.flags.c_contiguous
    assert np.array_equal(rows, characters(low_degree_masks(n, d), points))
