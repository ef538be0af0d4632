import numpy as np
import pytest

from boolres.hypercube import BooleanFunction, chi_values
from boolres.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    solve_lp,
)


def test_single_variable_box():
    lp = LinearProgram(
        objective=np.array([1.0]),
        eq_matrix=np.zeros((0, 1)),
        eq_rhs=np.zeros(0),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0)
    assert sol.point[0] == pytest.approx(1.0)


def test_balanced_pair():
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        eq_matrix=np.array([[1.0, 1.0]]),
        eq_rhs=np.array([0.0]),
        lower=np.array([-1.0, -1.0]),
        upper=np.array([1.0, 1.0]),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_and2_resilience_lp_value_matches_vertex_enumeration():
    # max sum f*g over g in [-1,1]^4 with sum g = 0, f = AND_2
    table = np.ones(4)
    table[0] = -1.0
    lp = LinearProgram(
        objective=table,
        eq_matrix=np.ones((1, 4)),
        eq_rhs=np.array([0.0]),
        lower=np.full(4, -1.0),
        upper=np.full(4, 1.0),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL

    # oracle: enumerate extreme points of the box-with-one-equality polytope:
    # vertices have >= 3 coordinates at +-1 and the rest determined
    best = -np.inf
    import itertools

    for free in range(4):
        for signs in itertools.product([-1.0, 1.0], repeat=3):
            g = np.zeros(4)
            others = [i for i in range(4) if i != free]
            for i, s in zip(others, signs):
                g[i] = s
            g[free] = -np.sum(g[others])
            if abs(g[free]) <= 1.0:
                best = max(best, float(table @ g))
    assert sol.value == pytest.approx(best)
    assert best == pytest.approx(4 * (1 - 0.5))  # 2^n (1 - alpha) with alpha = 1/2


def test_rejects_non_finite_objective_and_nan_bounds():
    def make(objective, lower, upper):
        return LinearProgram(
            objective=np.array(objective),
            eq_matrix=np.ones((1, 2)),
            eq_rhs=np.zeros(1),
            lower=np.array(lower),
            upper=np.array(upper),
        )

    nan, inf = float("nan"), float("inf")
    for objective, lower, upper in (
        ([nan, 1.0], [-1.0, -1.0], [1.0, 1.0]),
        ([inf, 1.0], [-1.0, -1.0], [1.0, 1.0]),
        ([1.0, 1.0], [nan, -1.0], [1.0, 1.0]),
        ([1.0, 1.0], [-1.0, -1.0], [1.0, nan]),
    ):
        with pytest.raises(ValueError):
            make(objective, lower, upper)
    # infinite bounds remain valid
    make([1.0, 1.0], [-inf, 0.0], [inf, inf])


def test_infeasible_detected():
    lp = LinearProgram(
        objective=np.array([0.0, 0.0]),
        eq_matrix=np.array([[1.0, 0.0], [1.0, 0.0]]),
        eq_rhs=np.array([0.0, 1.0]),
        lower=np.zeros(2),
        upper=np.ones(2),
    )
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_detected():
    lp = LinearProgram(
        objective=np.array([1.0]),
        eq_matrix=np.zeros((0, 1)),
        eq_rhs=np.zeros(0),
        lower=np.array([0.0]),
        upper=np.array([np.inf]),
    )
    assert solve_lp(lp).status == UNBOUNDED


def test_free_variable_split():
    lp = LinearProgram(
        objective=np.array([-1.0, 0.0]),
        eq_matrix=np.array([[1.0, 1.0]]),
        eq_rhs=np.array([3.0]),
        lower=np.array([-np.inf, 0.0]),
        upper=np.array([np.inf, 1.0]),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    # minimize x with x + y = 3, y <= 1 -> x = 2
    assert sol.value == pytest.approx(-2.0)
    assert sol.point[0] == pytest.approx(2.0)
    assert sol.point[1] == pytest.approx(1.0)


def test_mirrored_variable():
    # lower = -inf, upper finite
    lp = LinearProgram(
        objective=np.array([1.0]),
        eq_matrix=np.zeros((0, 1)),
        eq_rhs=np.zeros(0),
        lower=np.array([-np.inf]),
        upper=np.array([5.0]),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(5.0)


def test_equality_with_negative_rhs():
    lp = LinearProgram(
        objective=np.array([-1.0, -1.0]),
        eq_matrix=np.array([[1.0, -1.0]]),
        eq_rhs=np.array([-2.0]),
        lower=np.zeros(2),
        upper=np.full(2, 10.0),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(-2.0)  # x=0, y=2
    assert sol.point == pytest.approx(np.array([0.0, 2.0]))


def test_duals_read_off_negatively_signed_artificial():
    # the negative rhs starts its artificial column at sign -1
    lp = LinearProgram(
        objective=np.array([-1.0, -1.0]),
        eq_matrix=np.array([[1.0, -1.0]]),
        eq_rhs=np.array([-2.0]),
        lower=np.zeros(2),
        upper=np.full(2, 10.0),
    )
    sol = solve_lp(lp)
    # basis {x2}: y = c_B B^-1 = (-1) / (-1); b . y = -2 equals the optimum
    assert sol.duals == pytest.approx(np.array([1.0]))
    assert sol.value == pytest.approx(float(lp.eq_rhs @ sol.duals))


def test_determinism_bit_identical():
    rng = np.random.default_rng(99)
    f = BooleanFunction(5, rng.choice([-1, 1], size=32))
    a = np.array([chi_values(5, m) for m in (0, 1, 2, 4)], dtype=float)
    lp = LinearProgram(
        objective=f.table.astype(float),
        eq_matrix=a,
        eq_rhs=np.zeros(4),
        lower=np.full(32, -1.0),
        upper=np.full(32, 1.0),
    )
    s1 = solve_lp(lp)
    s2 = solve_lp(lp)
    assert s1.status == s2.status == OPTIMAL
    assert s1.value == s2.value
    assert np.array_equal(s1.point, s2.point)
    assert s1.iterations == s2.iterations


def test_weak_duality_survives_iteration_limit():
    # both warm-started programs stay primal feasible from iteration zero, so
    # truncated runs still satisfy delta + alpha >= 1 (weak duality)
    from boolres.duality import low_degree_masks
    from boolres.zoo import majority

    f = majority(3)
    n, d, size = 3, 1, 8
    masks = low_degree_masks(n, d)
    a_primal = np.array([chi_values(n, m) for m in masks], dtype=float)
    primal = LinearProgram(
        objective=f.table.astype(float),
        eq_matrix=a_primal,
        eq_rhs=np.zeros(len(masks)),
        lower=np.full(size, -1.0),
        upper=np.full(size, 1.0),
    )
    start = chi_values(n, 0b11) > 0
    k = len(masks)
    a_dual = np.zeros((size, k + 2 * size))
    for col, m in enumerate(masks):
        a_dual[:, col] = chi_values(n, m)
    a_dual[:, k : k + size] = np.eye(size)
    a_dual[:, k + size :] = -np.eye(size)
    dual_obj = np.zeros(k + 2 * size)
    dual_obj[k:] = -1.0
    dual = LinearProgram(
        dual_obj,
        a_dual,
        f.table.astype(float),
        np.concatenate([np.full(k, -np.inf), np.zeros(2 * size)]),
        np.full(k + 2 * size, np.inf),
    )
    basis = [k + x if f.table[x] > 0 else k + size + x for x in range(size)]

    for budget in (1, 2, 5, 50):
        ps = solve_lp(primal, initial_at_upper=start, max_iterations=budget)
        ds = solve_lp(dual, initial_basis=basis, max_iterations=budget)
        assert ps.point is not None and ds.point is not None
        alpha_feasible = 1.0 - ps.value / size
        delta_feasible = -ds.value / size
        assert delta_feasible + alpha_feasible >= 1.0 - 1e-8


def test_initial_basis_warm_start():
    # l1-style rows: p + q+ - q- = b with unit starting basis
    b = np.array([1.0, -1.0, 1.0])
    a = np.zeros((3, 7))
    a[:, 0] = 1.0  # a free coefficient column
    a[:, 1:4] = np.eye(3)
    a[:, 4:] = -np.eye(3)
    objective = np.array([0.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0])
    lp = LinearProgram(
        objective,
        a,
        b,
        lower=np.concatenate([[-np.inf], np.zeros(6)]),
        upper=np.full(7, np.inf),
    )
    basis = [1 if b[i] > 0 else 4 + i for i in range(3)]
    basis = [1, 4 + 1, 3]
    sol = solve_lp(lp, initial_basis=basis)
    assert sol.status == OPTIMAL
    # best constant approximation of (1, -1, 1) in l1 is value -min sum|q| = -2
    assert sol.value == pytest.approx(-2.0)
