import tracemalloc

import numpy as np
import pytest

from boolres import duality
from boolres.duality import (
    SparsePolynomial,
    distance_to_resilience,
    l1_poly_distance,
    low_degree_masks,
)
from boolres.hypercube import (
    BooleanFunction,
    characters,
    chi_values,
    is_d_resilient,
    l1_distance,
    popcounts,
)
from boolres.zoo import cyclerun, majority, random_boolean, tribes
from reference import poly_table


def parity(n, k):
    return BooleanFunction(n, chi_values(n, (1 << k) - 1))


def majority3():
    c = [chi_values(3, 1 << (j - 1)).astype(int) for j in (1, 2, 3)]
    return BooleanFunction(3, np.sign(c[0] + c[1] + c[2]))


def and2():
    table = np.ones(4, dtype=np.int8)
    table[0] = -1
    return BooleanFunction(2, table)


def test_low_degree_masks_order():
    masks = low_degree_masks(3, 1)
    assert masks == [0, 1, 2, 4]
    for n in range(13):
        pc = popcounts(n)
        for d in range(n + 1):
            expected = sorted((m for m in range(1 << n) if pc[m] <= d), key=lambda m: (pc[m], m))
            assert low_degree_masks(n, d) == expected, (n, d)


def test_sparse_polynomial_degree_guard():
    with pytest.raises(ValueError):
        SparsePolynomial(1, {0b11: 1.0})


def test_sparse_polynomial_evaluates_its_rows_at_any_points():
    rng = np.random.default_rng(4)
    masks = low_degree_masks(7, 2)
    coeffs = rng.normal(size=len(masks))
    coeffs[::5] = 0.0
    poly = SparsePolynomial(2, dict(zip(masks, coeffs.tolist())))
    table = poly_table(poly, 7)
    points = rng.integers(0, 1 << 7, size=40)
    assert np.array_equal(poly.evaluate(characters(masks, points)), table[points])
    reference = sum(c * chi_values(7, m).astype(np.float64) for m, c in zip(masks, coeffs))
    assert np.array_equal(table, reference)


def test_box_lp_touches_only_its_points_at_n_20():
    n, d, size = 20, 1, 50
    rng = np.random.default_rng(20)
    points = rng.integers(0, 1 << n, size=size)
    labels = rng.choice([-1.0, 1.0], size=size)
    weights = rng.uniform(0.5, 1.5, size=size)
    masks = low_degree_masks(n, d)
    tracemalloc.start()
    try:
        sol, error = duality._l1_box_lp(characters(masks, points), labels, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10  # a single 2^20 int8 row is 1 MiB
    p = sum(c * chi_values(n, m).astype(np.float64) for m, c in zip(masks, sol.duals))
    assert error == float(np.sum(weights * np.abs(labels - p[points])))


def _weight_class_alpha(f):
    """1 - the value of the d = 1 box LP over the classes (weight w, value of
    f): rows [1, (n - 2w)/sqrt(n)], each class's mass its share of the cube.
    The class sums of a cube witness are feasible here, so this is at most
    alpha(f, 1), and equal to it for a symmetric f."""
    n = f.n
    weight = popcounts(n)
    counts = np.bincount(2 * weight + (f.table > 0), minlength=2 * (n + 1))
    keep = counts > 0
    w = np.repeat(np.arange(n + 1), 2)[keep]
    rows = np.vstack([np.ones(len(w)), (n - 2 * w) / np.sqrt(n)])
    labels = np.tile([-1.0, 1.0], n + 1)[keep]
    sol, _ = duality._l1_box_lp(rows, labels, counts[keep] / (1 << n))
    return 1.0 - sol.value


@pytest.mark.parametrize("f", [majority(9), cyclerun(9), cyclerun(11), tribes(2, 3), tribes(3, 3)],
                         ids=["majority9", "cyclerun9", "cyclerun11", "tribes23", "tribes33"])
def test_weight_class_lp_matches_the_cube_lp(f):
    assert _weight_class_alpha(f) == pytest.approx(distance_to_resilience(f, 1).alpha, abs=1e-12)


def test_weight_class_lp_bounds_the_cube_lp_from_below():
    f = random_boolean(10, seed=1)
    assert _weight_class_alpha(f) <= distance_to_resilience(f, 1).alpha + 1e-12


def test_parity_is_resilient_below_its_degree():
    f = parity(5, 3)
    res = distance_to_resilience(f, 2)
    assert res.alpha == pytest.approx(0.0, abs=1e-9)
    # the optimal witness correlates perfectly with f
    assert l1_distance(f, res.witness) == pytest.approx(0.0, abs=1e-9)


def test_parity_loses_all_correlation_at_its_degree():
    f = parity(5, 3)
    res = distance_to_resilience(f, 3)
    assert res.alpha == pytest.approx(1.0, abs=1e-9)


def test_and2_alpha_matches_constant_sweep_oracle():
    f = and2()
    # oracle: min over constants c of E|f - c| by dense sweep
    cs = np.linspace(-1, 1, 20001)
    errs = [np.mean(np.abs(f.table - c)) for c in cs]
    delta0 = min(errs)
    res = distance_to_resilience(f, 0)
    assert delta0 == pytest.approx(0.5, abs=1e-4)
    assert res.alpha == pytest.approx(0.5, abs=1e-9)


def test_parity_l1_distance_below_degree():
    f = parity(4, 3)
    for d in (0, 1, 2):
        out = l1_poly_distance(f, d)
        assert out.delta == pytest.approx(1.0, abs=1e-9)


def test_dictator_exactly_representable():
    f = BooleanFunction(3, chi_values(3, 1))
    out = l1_poly_distance(f, 1)
    assert out.delta == pytest.approx(0.0, abs=1e-9)
    assert out.poly.coeffs[0b001] == pytest.approx(1.0, abs=1e-9)


def test_majority3_duality_gap():
    cert = distance_to_resilience(majority3(), 1)
    assert cert.gap <= 1e-6
    # delta must match 1 - alpha from the independent primal solve
    assert cert.l1.delta == pytest.approx(1.0 - cert.alpha, abs=1e-6)


def test_random_duality_gaps_n6():
    rng = np.random.default_rng(123)
    for _ in range(8):
        f = BooleanFunction(6, rng.choice([-1, 1], size=64))
        for d in (0, 1):
            cert = distance_to_resilience(f, d)
            assert cert.gap <= 1e-6
            assert is_d_resilient(cert.witness, d, tol=1e-7).resilient
            assert cert.l1.delta + cert.alpha >= 1.0 - 1e-8  # weak duality


def _highs_l1_delta(f, d):
    """min E|f - p| over degree <= d, as the 2^n-row LP p(x) + q+ - q- = f(x)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n, size = f.n, 1 << f.n
    masks = low_degree_masks(n, d)
    chi = np.array([chi_values(n, mask) for mask in masks], dtype=np.float64).T
    a_eq = np.hstack([chi, np.eye(size), -np.eye(size)])
    cost = np.concatenate([np.zeros(len(masks)), np.full(2 * size, 1.0 / size)])
    bounds = [(None, None)] * len(masks) + [(0, None)] * (2 * size)
    out = linprog(cost, A_eq=a_eq, b_eq=f.table.astype(np.float64), bounds=bounds,
                  method="highs")
    assert out.status == 0, out.message
    return out.fun


@pytest.mark.parametrize("f", [
    random_boolean(7, seed=3),
    random_boolean(9, seed=11),
    tribes(2, 3),
    tribes(3, 3),
    majority(7),
    majority(9),
], ids=["random7", "random9", "tribes23", "tribes33", "majority7", "majority9"])
def test_dual_polynomial_matches_highs_l1_lp(f):
    for d in (1, 2):
        out = l1_poly_distance(f, d)
        assert out.delta == pytest.approx(_highs_l1_delta(f, d), abs=1e-7)


def test_distance_to_resilience_solves_one_lp(monkeypatch):
    calls = []
    real = duality.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(duality, "solve_lp", counting)
    distance_to_resilience(majority3(), 1)
    assert len(calls) == 1


def test_witness_reverified_outside_solver():
    f = majority3()
    res = distance_to_resilience(f, 1)
    check = is_d_resilient(res.witness, 1, tol=1e-7)
    assert check.resilient
    assert np.max(np.abs(res.witness.table)) <= 1.0


def test_poly_recomputation_independent():
    f = majority3()
    out = l1_poly_distance(f, 1)
    table = poly_table(out.poly, 3)
    assert np.mean(np.abs(f.table - table)) == pytest.approx(out.delta, abs=1e-7)


def test_certificate_determinism():
    f = majority3()
    a = distance_to_resilience(f, 1)
    b = distance_to_resilience(f, 1)
    assert np.array_equal(a.witness.table, b.witness.table)
    assert a.alpha == b.alpha


def test_dimension_guard():
    rng = np.random.default_rng(5)
    f = BooleanFunction(13, rng.choice([-1, 1], size=1 << 13))
    with pytest.raises(ValueError):
        distance_to_resilience(f, 1)
