import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolres import lp as lp_module
from boolres.duality import _l1_box_lp, low_degree_masks
from boolres.hypercube import BooleanFunction, BoundedFunction, characters, chi_values
from boolres.lp import (
    FEAS_TOL,
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    TIE_TOL,
    LinearProgram,
    _ratio_test,
    solve_lp,
)


def test_single_variable_box():
    lp = LinearProgram(
        objective=np.array([1.0]),
        eq_matrix=np.zeros((0, 1)),
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
    # x1 + x2 = 0 with both x >= 1: the box misses the null space
    lp = LinearProgram(
        objective=np.array([0.0, 0.0]),
        eq_matrix=np.array([[1.0, 1.0]]),
        lower=np.ones(2),
        upper=np.full(2, 2.0),
    )
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_detected():
    # an unbounded LP cannot be stated: infinite bounds fail at the boundary
    with pytest.raises(ValueError):
        LinearProgram(
            objective=np.array([1.0]),
            eq_matrix=np.zeros((0, 1)),
            lower=np.array([0.0]),
            upper=np.array([np.inf]),
        )


# max -x - y s.t. x - y = -2 on [0, 10]^2, stated around its particular
# solution (0, 2): u = x, v = y - 2 with u - v = 0.  The shifted box gives the
# same internal rhs, -A lower = -2, as the original problem.
_SHIFT = np.array([0.0, 2.0])


def _shifted_negative_rhs_lp():
    return LinearProgram(
        objective=np.array([-1.0, -1.0]),
        eq_matrix=np.array([[1.0, -1.0]]),
        lower=-_SHIFT,
        upper=np.full(2, 10.0) - _SHIFT,
    )


def test_equality_with_negative_rhs():
    lp = _shifted_negative_rhs_lp()
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.point + _SHIFT == pytest.approx(np.array([0.0, 2.0]))  # x=0, y=2
    assert sol.value + lp.objective @ _SHIFT == pytest.approx(-2.0)


def test_duals_read_off_negatively_signed_artificial():
    # the internal rhs -2 starts its slack row below its bound
    lp = _shifted_negative_rhs_lp()
    sol = solve_lp(lp)
    # basis {x2}: y = c_B B^-1 = (-1) / (-1); with the original rhs
    # b = A shift = -2, b . y equals the original optimum
    assert sol.duals == pytest.approx(np.array([1.0]))
    b = lp.eq_matrix @ _SHIFT
    assert sol.value + lp.objective @ _SHIFT == pytest.approx(float(b @ sol.duals))


def test_determinism_bit_identical():
    rng = np.random.default_rng(99)
    f = BooleanFunction(5, rng.choice([-1, 1], size=32))
    a = np.array([chi_values(5, m) for m in (0, 1, 2, 4)], dtype=float)
    lp = LinearProgram(
        objective=f.table.astype(float),
        eq_matrix=a,
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
    rows = len(lp.eq_matrix)
    ref = linprog(
        -lp.objective,
        A_eq=lp.eq_matrix if rows else None,
        b_eq=np.zeros(rows) if rows else None,
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
    """Small integer LPs A x = 0 over finite boxes, feasible iff the box meets
    A's null space."""
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(1, 7))

    def ints(size, lo=-3, hi=3):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                        dtype=np.float64)

    a = ints(rows * cols).reshape(rows, cols)
    lower = ints(cols, -3, 1)
    upper = lower + ints(cols, 0, 3)
    if draw(st.booleans()):
        # feasible by construction: the box shifted so that 0 is one of its points
        point = lower + (upper - lower) * ints(cols, 0, 2) / 2.0
        lower, upper = lower - point, upper - point
    return LinearProgram(ints(cols), a, lower, upper)


@settings(max_examples=150, deadline=None)
@given(box_lps())
def test_matches_highs_on_random_box_lps(linprog, lp):
    _assert_matches_highs(linprog, lp)


def _parity_lp(n, d, objective, weights):
    """The k-row resilience LP shape: chi_S rows for |S| <= d, box [-w, w]."""
    masks = low_degree_masks(n, d)
    chi = np.array([chi_values(n, mask) for mask in masks], dtype=np.float64)
    return LinearProgram(objective, chi, -weights, weights)


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
    _assert_matches_highs(linprog, _parity_lp(n, d, np.array(objective), np.array(weights)))


@pytest.mark.parametrize("n, d", [(4, 1), (5, 1), (5, 2)])
def test_guard_reached_on_symmetric_targets(linprog, n, d):
    # majority and AND run into dual-degenerate pivots from the start
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
    # half the reduced costs are zero after the first pivot; without the
    # anti-cycling guard the n = 12 LP cycles until the iteration limit, and
    # with the costs shifted at the first degenerate pivot it stalls at most twice
    sol = _assert_matches_highs(linprog, _random_resilience_lp(n, d, seed))
    assert 0 < sol.degenerate <= 2


def test_costs_shift_at_the_first_degenerate_pivot(monkeypatch):
    calls = []
    real_perturb = lp_module._DualSimplex.perturb

    def recording(self):
        calls.append(self.degenerate)
        real_perturb(self)

    monkeypatch.setattr(lp_module._DualSimplex, "perturb", recording)
    for lp in (_random_resilience_lp(12, 1, 5), _random_resilience_lp(9, 2, 928266192)):
        calls.clear()
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and sol.perturbations == len(calls) > 0
        assert calls[0] == 1


def test_cost_shift_cleanup_repairs_dual_infeasibility(linprog, monkeypatch):
    # a shift this large leaves the perturbed optimum dual infeasible for the
    # true costs: removing it must flip columns and resume dual iterations
    settles = []
    real_settle = lp_module._DualSimplex.settle

    def recording(self):
        settles.append(real_settle(self))
        return settles[-1]

    monkeypatch.setattr(lp_module._DualSimplex, "settle", recording)
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


# -- the ratio test's partial sort against a full one ------------------------


def _full_sort_ratio_test(t, abs_a, weight, slope0):
    """Every breakpoint in stable (t, position) order, then the tie rule."""
    order = np.argsort(t, kind="stable")
    slope = slope0 - np.cumsum(weight[order])
    if slope[-1] > FEAS_TOL:
        return None
    stop = int(np.argmax(slope <= 0.0)) if slope[-1] <= 0.0 else len(order) - 1
    t_sorted = t[order]
    end = int(np.searchsorted(t_sorted, t_sorted[stop] + TIE_TOL, side="right"))
    tie = order[stop:end]
    return order[:stop], int(tie[np.lexsort((tie, -abs_a[tie]))[0]])


def _assert_same_ratio_test(t, abs_a, weight, slope0):
    got = _ratio_test(t, abs_a, weight, slope0)
    want = _full_sort_ratio_test(t, abs_a, weight, slope0)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    return got


def test_ratio_test_keeps_ties_past_the_partition_bound():
    # the slope crosses at 1 + 0.6e-12, above the 64th smallest breakpoint
    # 1.0; its tie range reaches 1 + 1.5e-12, whose |alpha| is larger
    t = np.concatenate([np.zeros(63), [1.0, 1.0 + 0.6e-12, 1.0 + 1.5e-12]])
    abs_a = np.concatenate([np.ones(65), [2.0]])
    weight = np.concatenate([np.full(64, 0.001), [1.0, 1.0]])
    passed, pick = _assert_same_ratio_test(t, abs_a, weight, 0.5)
    assert np.array_equal(passed, np.arange(64)) and pick == 65


@st.composite
def breakpoint_sets(draw):
    """Breakpoints with a run of zeros and a cluster of near-ties that often
    holds the partial sort's bound (the 64th smallest breakpoint), with a
    slope that often crosses zero inside the cluster."""
    zeros = draw(st.one_of(st.integers(54, 63), st.integers(0, 140)))
    least = max(1, 70 - zeros)  # the cluster then holds sorted positions 63-69
    cluster = sorted(draw(st.lists(
        st.tuples(st.integers(0, 8), st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                  st.sampled_from([0.01, 0.1, 1.0])),
        min_size=least, max_size=least + 12)))
    rest = sorted(draw(st.lists(st.integers(1, 16), max_size=300)))
    offsets, cluster_a, cluster_width = (np.array(v) for v in zip(*cluster))
    t = np.concatenate([np.zeros(zeros), 1.0 + 0.3e-12 * offsets,
                        2.0 + np.array(rest, dtype=np.float64) / 4.0])
    abs_a = np.concatenate([np.ones(zeros), cluster_a, np.full(len(rest), 2.0)])
    weight = abs_a * np.concatenate([np.full(zeros, 0.001), cluster_width, np.ones(len(rest))])
    # the slope crosses zero near sorted position `cross`, or never
    size = len(t)
    cross = draw(st.one_of(st.integers(64, 69), st.integers(0, size)))
    cum = np.cumsum(weight)
    slope0 = cum[cross] - weight[cross] / 2.0 if cross < size else cum[-1] + 1.0
    perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(size)
    return t[perm], abs_a[perm], weight[perm], float(slope0)


@settings(max_examples=300, deadline=None)
@given(breakpoint_sets())
def test_ratio_test_matches_a_full_sort(case):
    _assert_same_ratio_test(*case)


# -- HiGHS at benchmark sizes, and the pivot count of a fixed LP set ---------


def _cube_case(f, d):
    """The resilience LP's rows, labels and masses."""
    size = 1 << f.n
    rows = characters(low_degree_masks(f.n, d), np.arange(size))
    return rows, f.table.astype(np.float64), np.ones(size)


def _learn_case(n, d, seed):
    """The learner's LP for a noisy bounded target: columns (x, +1) and
    (x, -1), with masses the label frequencies (1 +- g(x)) / 2^(n+1)."""
    from boolres.learner import _label_weights

    rng = np.random.default_rng(seed)
    g = BoundedFunction(n, rng.choice([-1.0, 1.0], 1 << n) * rng.uniform(0.5, 0.96, 1 << n))
    rows = np.tile(characters(low_degree_masks(n, d), np.arange(1 << n)), 2)
    labels = np.repeat([1.0, -1.0], 1 << n)
    return rows, labels, np.concatenate(_label_weights(g))


def _benchmark_sized_cases():
    from boolres.zoo import majority, random_boolean, tribes

    return {
        "random:n=12,seed=1 d=1": _cube_case(random_boolean(12, seed=1), 1),
        "random:n=12,seed=5 d=1": _cube_case(random_boolean(12, seed=5), 1),
        "random:n=9,seed=2 d=2": _cube_case(random_boolean(9, seed=2), 2),
        "random:n=9,seed=928266192 d=2": _cube_case(random_boolean(9, seed=928266192), 2),
        "tribes:w=3,s=4 d=1": _cube_case(tribes(3, 4), 1),
        "majority:n=11 d=1": _cube_case(majority(11), 1),
        "learn noisy n=9 d=1": _learn_case(9, 1, 3),
    }


# summed pivots of `_benchmark_sized_cases`; the solver before the cost
# shift at the first degenerate pivot took 731
BENCHMARK_SIZED_PIVOTS = 668


@pytest.mark.parametrize("name", list(_benchmark_sized_cases()))
def test_matches_highs_at_benchmark_sizes(linprog, name):
    rows, labels, masses = _benchmark_sized_cases()[name]
    sol, error = _l1_box_lp(rows, labels, masses)  # rechecks p's error
    ref = linprog(-labels, A_eq=rows, b_eq=np.zeros(len(rows)),
                  bounds=list(zip(-masses, masses)), method="highs")
    assert ref.status == 0, ref.message
    assert sol.value == pytest.approx(-ref.fun, abs=1e-7)
    assert error == pytest.approx(sol.value, abs=1e-7 * float(masses.sum()))


def test_pivot_count_of_benchmark_sized_lps():
    # pivot counts are deterministic, so this catches pivot regressions
    # that timing cannot resolve
    total = sum(_l1_box_lp(*case)[0].iterations for case in _benchmark_sized_cases().values())
    assert total <= BENCHMARK_SIZED_PIVOTS


@pytest.mark.parametrize("name", list(_benchmark_sized_cases()))
def test_basis_reproduces_the_point(name):
    # the nonbasic columns sit at a bound and the slacks at 0, so B x_B
    # solved from the data alone gives back the basic part of the point
    rows, labels, masses = _benchmark_sized_cases()[name]
    sol = _l1_box_lp(rows, labels, masses)[0]
    k, m = rows.shape
    basis = sol.basis
    assert len(basis) == len(set(basis.tolist())) == k
    assert 0 <= basis.min() and basis.max() < m + k
    full = np.hstack([rows.astype(np.float64), np.eye(k)])
    nonbasic = np.setdiff1d(np.arange(m), basis)
    at_bound = np.where(sol.point[nonbasic] > 0, masses[nonbasic], -masses[nonbasic])
    assert np.allclose(sol.point[nonbasic], at_bound, rtol=0, atol=FEAS_TOL)
    x = np.zeros(m + k)
    x[nonbasic] = at_bound
    x[basis] = np.linalg.solve(full[:, basis], -(full[:, nonbasic] @ at_bound))
    assert np.max(np.abs(x[:m] - sol.point)) <= FEAS_TOL
    assert np.max(np.abs(x[m:]), initial=0.0) <= FEAS_TOL  # every slack is 0


def test_basis_only_on_an_optimal_solve(monkeypatch):
    infeasible = LinearProgram(np.array([1.0]), np.array([[1.0]]), np.array([1.0]), np.array([2.0]))
    sol = solve_lp(infeasible)
    assert sol.status == INFEASIBLE and sol.basis is None
    rows, labels, masses = _benchmark_sized_cases()["majority:n=11 d=1"]
    monkeypatch.setattr(lp_module, "MAX_ITERATIONS", 3)
    sol = solve_lp(LinearProgram(labels, rows, -masses, masses))
    assert sol.status == ITERATION_LIMIT and sol.basis is None
