import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolres import lp as lp_module
from boolres.duality import low_degree_masks
from boolres.hypercube import BooleanFunction, chi_values
from boolres.lp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
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
    # every variable must be boxed
    with pytest.raises(ValueError):
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
    # an unbounded LP cannot be stated: infinite bounds fail at the boundary
    with pytest.raises(ValueError):
        LinearProgram(
            objective=np.array([1.0]),
            eq_matrix=np.zeros((0, 1)),
            eq_rhs=np.zeros(0),
            lower=np.array([0.0]),
            upper=np.array([np.inf]),
        )


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


def test_pivot_budget_exhaustion_is_a_solver_failure(monkeypatch, capsys):
    # the resilience LP of majority(7), d = 2, needs more than 5 pivots
    from boolres import cli
    from boolres.duality import distance_to_resilience
    from boolres.lp import SolverFailure
    from boolres.zoo import majority

    f = majority(7)
    masks = low_degree_masks(7, 2)
    primal = LinearProgram(
        objective=f.table.astype(float),
        eq_matrix=np.array([chi_values(7, m) for m in masks], dtype=float),
        eq_rhs=np.zeros(len(masks)),
        lower=np.full(128, -1.0),
        upper=np.full(128, 1.0),
    )
    monkeypatch.setattr(lp_module, "MAX_ITERATIONS", 5)
    sol = solve_lp(primal)
    assert (sol.status, sol.iterations) == (ITERATION_LIMIT, 5)
    assert sol.point is None and sol.duals is None
    with pytest.raises(SolverFailure, match="iteration-limit"):
        distance_to_resilience(f, 2)
    assert cli.main(["resilience", "--fn", "majority:n=7", "--d", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "invariant-violation"


# -- differential oracle: solve_lp against HiGHS ---------------------------


@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


def _assert_matches_highs(linprog, lp):
    sol = solve_lp(lp)
    rows = len(lp.eq_rhs)
    ref = linprog(
        -lp.objective,
        A_eq=lp.eq_matrix if rows else None,
        b_eq=lp.eq_rhs if rows else None,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )
    assert ref.status in (0, 2), ref.message
    if ref.status == 2:
        assert sol.status == INFEASIBLE
        return sol
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(-ref.fun, abs=1e-7)
    return sol


@st.composite
def box_lps(draw):
    """Small integer equality LPs over finite boxes, feasible or not."""
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(1, 7))

    def ints(size, lo=-3, hi=3):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                        dtype=np.float64)

    a = ints(rows * cols).reshape(rows, cols)
    lower = ints(cols, -3, 1)
    upper = lower + ints(cols, 0, 3)
    if draw(st.booleans()):
        # feasible by construction: the rhs of a point in the box
        b = a @ (lower + (upper - lower) * ints(cols, 0, 2) / 2.0)
    else:
        b = ints(rows)
    return LinearProgram(ints(cols), a, b, lower, upper)


@settings(max_examples=150, deadline=None)
@given(box_lps())
def test_matches_highs_on_random_box_lps(linprog, lp):
    _assert_matches_highs(linprog, lp)


def _parity_lp(n, d, objective, weights):
    """The k-row resilience LP shape: chi_S rows for |S| <= d, box [-w, w]."""
    masks = low_degree_masks(n, d)
    chi = np.array([chi_values(n, mask) for mask in masks], dtype=np.float64)
    return LinearProgram(objective, chi, np.zeros(len(masks)), -weights, weights)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, n - 1),
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=1 << n, max_size=1 << n),
            st.lists(st.sampled_from([1.0, 2.0]), min_size=1 << n, max_size=1 << n),
        )
    )
)
def test_matches_highs_on_parity_lps_under_the_guard(linprog, case):
    n, d, objective, weights = case
    lp = _parity_lp(n, d, np.array(objective), np.array(weights))
    with pytest.MonkeyPatch.context() as mp:
        # shift the costs after a single dual-degenerate pivot
        mp.setattr(lp_module, "_stall_limit", lambda m: 1)
        _assert_matches_highs(linprog, lp)


@pytest.mark.parametrize("n, d", [(4, 1), (5, 1), (5, 2)])
def test_guard_reached_on_symmetric_targets(linprog, monkeypatch, n, d):
    # majority and AND run into dual-degenerate pivots from the start
    monkeypatch.setattr(lp_module, "_stall_limit", lambda m: 1)
    pc = np.bitwise_count(np.arange(1 << n))
    for objective in (np.where(pc < n / 2, 1.0, -1.0), np.where(pc == 0, -1.0, 1.0)):
        sol = _assert_matches_highs(linprog, _parity_lp(n, d, objective, np.ones(1 << n)))
        assert sol.perturbations > 0


def _random_resilience_lp(n, d, seed):
    from boolres.zoo import random_boolean

    f = random_boolean(n, seed=seed)
    return _parity_lp(n, d, f.table.astype(np.float64), np.ones(1 << n))


@pytest.mark.parametrize("n, d, seed", [(9, 2, 928266192), (12, 1, 5)])
def test_stalling_instance_reaches_highs_optimum(linprog, n, d, seed):
    # long dual-degenerate runs; without the anti-cycling guard the n = 12
    # LP cycles until the iteration limit
    sol = _assert_matches_highs(linprog, _random_resilience_lp(n, d, seed))
    assert sol.degenerate > 0


def test_cost_shift_cleanup_repairs_dual_infeasibility(linprog, monkeypatch):
    # a shift this large leaves the perturbed optimum dual infeasible for the
    # true costs: removing it must flip columns and resume dual iterations
    settles = []
    real_settle = lp_module._DualSimplex.settle

    def recording(self):
        settles.append(real_settle(self))
        return settles[-1]

    monkeypatch.setattr(lp_module._DualSimplex, "settle", recording)
    monkeypatch.setattr(lp_module, "_stall_limit", lambda m: 1)
    monkeypatch.setattr(lp_module, "PERTURBATION_SCALE", 0.5)
    for lp in (_random_resilience_lp(7, 2, 5), _random_resilience_lp(8, 2, 2)):
        settles.clear()
        sol = _assert_matches_highs(linprog, lp)
        assert sol.perturbations > 0
        assert settles[0] is False and settles[-1] is True


def test_repeat_is_bit_identical_with_flips_and_perturbations():
    lp = _random_resilience_lp(9, 2, 928266192)
    s1, s2 = solve_lp(lp), solve_lp(lp)
    assert s1.flips > 0 and s1.perturbations > 0
    for field in ("status", "value", "iterations", "flips", "degenerate",
                  "perturbations", "refactors", "residual"):
        assert getattr(s1, field) == getattr(s2, field), field
    assert np.array_equal(s1.point, s2.point)
    assert np.array_equal(s1.duals, s2.duals)
