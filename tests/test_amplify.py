import math
import sys

import numpy as np
import pytest

from boolres import amplify
from boolres.amplify import amplification_report
from boolres.duality import distance_to_resilience
from boolres.hypercube import (
    BooleanFunction,
    BoundedFunction,
    chi_values,
    noise_sensitivity,
    spectral_stats,
    wht,
)
from boolres.zoo import dictator, majority, parity, random_boolean
from reference import (
    COMPOSE_MAX_BITS,
    ArityOverflow,
    check_composed_resilience,
    compose,
    noise_sensitivity_direct,
    resilience_order,
    self_composition,
)


def test_parity_composition_is_parity():
    g2 = parity(0b11, 2)
    c = compose(g2, g2)
    assert c.n == 4
    assert isinstance(c, BooleanFunction)
    assert np.array_equal(c.table, chi_values(4, 0b1111))


def test_zero_inner_collapses_to_mean():
    g = BoundedFunction(2, np.zeros(4))
    outer = BooleanFunction(2, np.array([1, 1, 1, -1], dtype=np.int8))
    values = compose(outer, g).table
    mean = float(np.mean(outer.table))
    assert np.allclose(values, mean, atol=1e-12)


def test_boolean_composition_is_literal_substitution():
    f = majority(3)
    table = compose(f, f)
    # oracle: substitute block values one point at a time
    for idx in (0, 1, 37, 100, 255, 511):
        blocks = [(idx >> (3 * i)) & 0b111 for i in range(3)]
        inner = [f(b) for b in blocks]
        outer_idx = sum((1 << i) for i, v in enumerate(inner) if v < 0)
        assert table(idx) == pytest.approx(f(outer_idx))


def test_multilinear_matches_random_sign_sampling():
    # E[G(b(t_1),...,b(t_m))] estimated by sampling vs the composed table
    rng = np.random.default_rng(7)
    outer = random_boolean(3, seed=21)
    inner = BoundedFunction(2, rng.uniform(-1, 1, size=4))
    c = compose(outer, inner)
    points = rng.integers(0, 1 << 6, size=10)
    exact = c.table[points]
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
    table = compose(outer, inner).table
    assert np.max(np.abs(table)) <= 1.0 + 1e-12


def test_self_composition_arity():
    f = majority(3)
    assert self_composition(f, 0) is f
    assert self_composition(f, 1).n == 9


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
        table = self_composition(base, k)
        assert isinstance(table, BooleanFunction)
        order = resilience_order(table)
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
        self_composition(f, 2)  # 27 bits


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


@pytest.mark.parametrize(
    "offset,accepted", [(5e-13, True), (-5e-13, True), (2e-12, False), (-2e-12, False)]
)
def test_amplification_balance_tolerance_is_1e_12(offset, accepted):
    f = majority(3)
    g = BoundedFunction(3, 0.5 * parity(0b111, 3).table + offset)
    assert abs(np.mean(g.table) - offset) < 1e-15
    if accepted:
        assert amplification_report(f, g, k=1).arity == 9
    else:
        with pytest.raises(ValueError, match="balanced"):
            amplification_report(f, g, k=1)


def test_amplification_beyond_the_table_cap_is_exact():
    # 27 bits: no table of f_2, and the same number on every call
    f = majority(3)
    g = distance_to_resilience(f, 1).witness
    rep1 = amplification_report(f, g, k=2)
    rep2 = amplification_report(f, g, k=2)
    assert rep1.arity == 27
    assert rep1.exact and rep1.ci_width == 0.0 and rep1.samples == 0
    assert rep1.dist_measured == rep2.dist_measured
    assert rep1.dist_measured <= rep1.cor2_bound + 1e-9


def test_amplification_rejects_a_bound_that_overflows():
    # 1.5^2000 is not a float: exit through ValueError, not OverflowError
    f = majority(3)
    g = distance_to_resilience(f, 1).witness
    with pytest.raises(ValueError, match="not finite"):
        amplification_report(f, g, k=2000)


def test_amplification_rejects_an_arity_too_long_to_write():
    # Inf[dictator] = 1 keeps the bound finite at any depth; the arity 2^(k+1)
    # must stay below 10^limit to be written as a decimal string
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is unlimited")
    f = dictator(1, 2)
    g = distance_to_resilience(f, 0).witness
    top = (10**limit).bit_length() - 1  # largest e with 2^e < 10^limit
    assert amplification_report(f, g, k=top - 1).arity == 2**top
    with pytest.raises(ValueError, match=f"arity 2\\^{top + 1} has more than {limit}"):
        amplification_report(f, g, k=top)


def _random_mean_zero(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1, 1, size=1 << n)
    values -= values.mean()
    return BoundedFunction(n, values / np.max(np.abs(values)))


_BALANCED4 = random_boolean(4, seed=3, balanced=True)
_RECURSION_CASES = {
    "majority3-witness-k1": (majority(3), distance_to_resilience(majority(3), 1).witness, 1),
    "random4-witness-k1": (_BALANCED4, distance_to_resilience(_BALANCED4, 1).witness, 1),
    "random4-bounded-k1": (_BALANCED4, _random_mean_zero(4, seed=5), 1),
    **{
        f"{name}2-bounded-k{k}": (f, _random_mean_zero(2, seed=k), k)
        for name, f in (("parity", parity(0b11, 2)), ("dictator", dictator(2, 2)))
        for k in (1, 2, 3)
    },
}


@pytest.mark.parametrize("case", _RECURSION_CASES)
def test_recursion_matches_materialized_distance(case):
    f, g, k = _RECURSION_CASES[case]
    assert abs(float(np.mean(g.table))) <= 1e-12
    rep = amplification_report(f, g, k)
    assert rep.arity <= COMPOSE_MAX_BITS
    fk = self_composition(f, k).table
    gk = self_composition(g, k).table
    assert abs(rep.dist_measured - float(np.mean(np.abs(fk - gk))) / 2.0) <= 1e-12


def test_parseval_check_catches_wrong_level_weights(monkeypatch):
    f = majority(3)
    g = distance_to_resilience(f, 1).witness
    true_weights = amplify.level_correlations(f, g)
    monkeypatch.setattr(amplify, "level_correlations", lambda f, g: 1.01 * true_weights)
    with pytest.raises(AssertionError, match="Parseval"):
        amplification_report(f, g, k=1)


def test_range_check_catches_a_correlation_above_one(monkeypatch):
    # W = (0, a, 0, rho_0 - a) keeps P(1) = rho_0, but P(rho_0) > 1 for large a
    f = majority(3)
    g = distance_to_resilience(f, 1).witness
    rho0 = float(np.mean(f.table * g.table))
    bad = np.array([0.0, 10.0, 0.0, rho0 - 10.0])
    monkeypatch.setattr(amplify, "level_correlations", lambda f, g: bad)
    with pytest.raises(AssertionError, match="rho_1"):
        amplification_report(f, g, k=1)


def test_triangle_decomposition_single_level():
    # dist(F o f, G o g) <= dist(F, G) + NS_delta[F], all exact at 4 bits
    F = parity(0b11, 2)
    G_res = distance_to_resilience(F, 0)
    G = G_res.witness
    f = dictator(1, 2)
    g = BoundedFunction(2, np.zeros(4))
    delta = float(np.mean(np.abs(f.table - g.table))) / 2.0
    lhs = (
        float(np.mean(np.abs(compose(F, f).table - compose(G, g).table)))
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
            ns_direct = noise_sensitivity_direct(f, delta)
            assert abs(ns_spec - ns_direct) <= 1e-10
            assert ns_spec <= delta * infl + 1e-12


# The mask-sum evaluator and the Monte-Carlo sampler that `amplify`
# replaced, kept as oracles for `compose` and the recursion.

def _mask_sum_multilinear(spectrum, vals):
    out = np.zeros(vals.shape[1:])
    for mask in np.nonzero(spectrum != 0.0)[0]:
        term = np.full(vals.shape[1:], spectrum[mask])
        mm = int(mask)
        j = 0
        while mm:
            if mm & 1:
                term *= vals[j]
            mm >>= 1
            j += 1
        out += term
    return out


def _mask_sum_compose(outer, inner):
    m, a = outer.n, inner.n
    idx = np.arange(1 << (m * a))
    vals = np.empty((m, len(idx)))
    for i in range(m):
        vals[i] = inner.table[(idx >> (i * a)) & ((1 << a) - 1)]
    return _mask_sum_multilinear(wht(outer), vals)


def _substituted(outer, inner):
    """outer read at the point whose coordinate i is the Boolean inner's
    value on block i, at every composed point."""
    m, a = outer.n, inner.n
    idx = np.arange(1 << (m * a), dtype=np.int32)
    points = np.zeros_like(idx)
    for i in range(m):
        points |= (inner.table[(idx >> (i * a)) & ((1 << a) - 1)] < 0).astype(np.int32) << i
    return outer.table[points]


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


def _outers(m, rng):
    return [
        BooleanFunction(m, rng.choice([-1, 1], size=1 << m)),
        BoundedFunction(m, rng.uniform(-1, 1, size=1 << m)),
        BooleanFunction(m, chi_values(m, (1 << m) - 1)),  # one top coefficient
        BoundedFunction(m, np.zeros(1 << m)),
    ]


# (inner for compose, the same function built by the oracle)
_NESTED = (random_boolean(2, seed=6), BoundedFunction(1, np.array([0.3, -0.7])))
_INNERS = {
    "boolean": (random_boolean(2, seed=5),) * 2,
    "bounded": (BoundedFunction(2, np.array([0.9, -0.25, 0.6, -1.0])),) * 2,
    "nested": (compose(*_NESTED), BoundedFunction(2, _mask_sum_compose(*_NESTED))),
}


@pytest.mark.parametrize("kind", _INNERS)
@pytest.mark.parametrize("m", range(8))
def test_compose_matches_mask_sum_oracle(m, kind):
    inner, oracle_inner = _INNERS[kind]
    rng = np.random.default_rng(1000 + m)
    for outer in _outers(m, rng):
        got = compose(outer, inner)
        assert got.n == m * inner.n
        boolean = isinstance(outer, BooleanFunction) and isinstance(inner, BooleanFunction)
        assert isinstance(got, BooleanFunction if boolean else BoundedFunction)
        np.testing.assert_allclose(
            got.table, _mask_sum_compose(outer, oracle_inner), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("m", range(1, 9))
def test_multilinear_exact_on_boolean_spectra(m):
    # a Boolean inner feeds the outer's multilinear extension +-1 values:
    # every composed entry is an outer entry, bit for bit, and on a Boolean
    # outer (dyadic coefficients) the mask-sum oracle is exact as well
    rng = np.random.default_rng(m)
    inner = random_boolean(2, seed=100 + m)
    for outer in _outers(m, rng):
        got = compose(outer, inner)
        assert np.array_equal(got.table, _substituted(outer, inner))
        if isinstance(outer, BooleanFunction):
            assert np.array_equal(got.table, _mask_sum_compose(outer, inner))


def test_boolean_composition_at_the_cap_is_literal_substitution():
    outer, inner = majority(11), parity(0b11, 2)
    got = compose(outer, inner)
    assert got.n == COMPOSE_MAX_BITS
    assert isinstance(got, BooleanFunction)
    assert np.array_equal(got.table, _substituted(outer, inner))


@pytest.mark.parametrize("n, k", [(3, 2), (5, 2), (3, 3)])
def test_recursion_within_hoeffding_interval_of_sampled_oracle(n, k):
    # 27 to 81 bits, beyond the table cap; 70_000 draws give a 99% interval
    # of half-width sqrt(log(200) / 140_000) = 0.0062
    f = majority(n)
    g = distance_to_resilience(f, 1).witness
    samples = 70_000
    estimate = _float_level_sampled_distance(f, g, k, samples=samples, seed=23)
    width = math.sqrt(math.log(2.0 / 0.01) / (2.0 * samples))
    assert abs(amplification_report(f, g, k).dist_measured - estimate) <= width
