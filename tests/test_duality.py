import numpy as np
import pytest

from boolres import duality
from boolres.duality import (
    SparsePolynomial,
    distance_to_resilience,
    duality_certificate,
    l1_poly_distance,
    low_degree_masks,
)
from boolres.hypercube import (
    BooleanFunction,
    chi_values,
    coordinate_values,
    is_d_resilient,
    l1_distance,
)
from boolres.zoo import majority, random_boolean, tribes


def parity(n, k):
    return BooleanFunction(n, chi_values(n, (1 << k) - 1))


def majority3():
    c = [coordinate_values(3, j).astype(int) for j in (1, 2, 3)]
    return BooleanFunction(3, np.sign(c[0] + c[1] + c[2]))


def and2():
    table = np.ones(4, dtype=np.int8)
    table[0] = -1
    return BooleanFunction(2, table)


def test_low_degree_masks_order():
    masks = low_degree_masks(3, 1)
    assert masks == [0, 1, 2, 4]


def test_sparse_polynomial_degree_guard():
    with pytest.raises(ValueError):
        SparsePolynomial(3, 1, {0b11: 1.0})


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
    f = BooleanFunction(3, coordinate_values(3, 1))
    out = l1_poly_distance(f, 1)
    assert out.delta == pytest.approx(0.0, abs=1e-9)
    assert out.poly.coeffs[0b001] == pytest.approx(1.0, abs=1e-9)


def test_majority3_duality_gap():
    cert = duality_certificate(majority3(), 1)
    assert cert.gap <= 1e-6
    # delta must match 1 - alpha from the independent primal solve
    assert cert.delta == pytest.approx(1.0 - cert.alpha, abs=1e-6)


def test_random_duality_gaps_n6():
    rng = np.random.default_rng(123)
    for _ in range(8):
        f = BooleanFunction(6, rng.choice([-1, 1], size=64))
        for d in (0, 1):
            cert = duality_certificate(f, d)
            assert cert.gap <= 1e-6
            assert cert.resilience.witness_check.resilient
            assert cert.delta + cert.alpha >= 1.0 - 1e-8  # weak duality


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


def test_duality_certificate_solves_one_lp(monkeypatch):
    calls = []
    real = duality.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(duality, "solve_lp", counting)
    duality_certificate(majority3(), 1)
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
    table = out.poly.table()
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
