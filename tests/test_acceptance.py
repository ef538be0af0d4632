"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS ...` line (visible under -s or in
the captured output); failures raise with the measured numbers.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from boolres.amplify import amplification_report
from boolres.builder import audit_invariants, build_one_resilient
from boolres.designs import greedy_design, orthogonal_family
from boolres.duality import distance_to_resilience
from boolres.hypercube import (
    BooleanFunction,
    BoundedFunction,
    chi_values,
    is_d_resilient,
    noise_sensitivity,
    popcounts,
    spectral_stats,
    wht,
    wht_int,
)
from boolres.learner import learn_exact
from boolres.witness import build_witness
from boolres.zoo import (
    cyclerun,
    cyclerun_table,
    dictator,
    ft_sandwich,
    ft_stats,
    majority,
    random_boolean,
    tribes,
)
from reference import (
    check_composed_resilience,
    embed_on_mask,
    learn_against_class,
    noise_sensitivity_direct,
    opt_of_class,
    self_composition,
    threshold_ft,
    tribes_spectrum_closed_form,
)


def test_criterion_01_duality_random_ensemble():
    started = time.time()
    worst_gap = 0.0
    cases = [random_boolean(8, seed=i) for i in range(50)]
    cases.append(tribes(2, 3))
    cases.append(majority(3))
    for f in cases:
        for d in (0, 1, 2):
            if d > f.n:
                continue
            cert = distance_to_resilience(f, d)
            assert cert.gap <= 1e-6, (f.n, d, cert.gap)
            worst_gap = max(worst_gap, cert.gap)
            witness = cert.witness
            assert np.max(np.abs(witness.table)) <= 1.0 + 1e-12
            check = is_d_resilient(witness, d, tol=1e-7)
            assert check.resilient
            poly_pc = [int(m).bit_count() for m in cert.l1.poly.coeffs]
            assert all(pc <= d for pc in poly_pc)
    elapsed = time.time() - started
    assert elapsed <= 120.0, f"duality ensemble took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS duality: 52 functions x d in {{0,1,2}}, "
          f"worst gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_02_parity_anchors():
    n = 8
    for k in range(1, 7):
        f = BooleanFunction(n, chi_values(n, (1 << k) - 1))
        below = distance_to_resilience(f, k - 1)
        at = distance_to_resilience(f, k)
        assert below.alpha == 0.0, (k, below.alpha)
        assert at.alpha == 1.0, (k, at.alpha)
    print("[criterion 2] PASS parity anchors: alpha_{k-1} = 0 and alpha_k = 1 "
          "exactly for k = 1..6 at n = 8")


def test_criterion_03_and2_anchor():
    table = np.ones(4, dtype=np.int8)
    table[0] = -1  # the all-true point under the bit convention
    f = BooleanFunction(2, table)
    # oracle: min over constants of E|f - c|; piecewise linear, so the
    # minimum sits at a breakpoint (a value of f)
    oracle = min(float(np.mean(np.abs(f.table - c))) for c in (-1.0, 1.0))
    assert oracle == 0.5
    res = distance_to_resilience(f, 0)
    assert abs(res.alpha - 0.5) <= 1e-9
    print(f"[criterion 3] PASS AND_2 anchor: alpha_0 = {res.alpha} (oracle 0.5)")


def test_criterion_04_tribes_spectrum():
    worst = 0.0
    for w, s in ((2, 2), (2, 3), (3, 2), (3, 4)):
        exact = wht(tribes(w, s))
        closed = tribes_spectrum_closed_form(w, s)
        deviation = float(np.max(np.abs(exact - closed)))
        assert deviation <= 1e-12, (w, s, deviation)
        worst = max(worst, deviation)
    print(f"[criterion 4] PASS tribes spectrum: closed form vs WHT, "
          f"max deviation {worst:.2e}")


def test_criterion_05_cyclerun_structure():
    started = time.time()
    for n in range(3, 22, 2):
        table = cyclerun_table(n)  # raises on a point left tied after stage 3
        idx = np.arange(1 << n)
        full = (1 << n) - 1
        assert np.array_equal(table[idx ^ full], -table), f"odd fails at n={n}"
        for j in range(n):
            bit = 1 << j
            assert np.all(table[idx | bit] <= table[idx & ~bit]), (
                f"monotonicity fails at n={n}, coordinate {j + 1}"
            )
        rotated = ((idx >> 1) | ((idx & 1) << (n - 1))) & full
        assert np.array_equal(table[rotated], table), f"shift fails at n={n}"
    elapsed = time.time() - started
    assert elapsed <= 300.0
    print(f"[criterion 5] PASS cyclerun structure: total/odd/monotone/shift "
          f"for odd n <= 21 in {elapsed:.1f}s")


def test_criterion_06_builder_certificates():
    rows = []
    for n in range(5, 18, 2):
        report = build_one_resilient(n, c1=8.0)
        assert report.sigma_final == 0
        ints = wht_int(report.output)
        assert ints[0] == 0
        assert all(ints[1 << j] == 0 for j in range(n))
        audit = audit_invariants(report)
        assert audit.ok, (n, audit.detail)
        assert report.budget_ratio <= 8.0
        rows.append((n, report.distance, report.budget_ratio))
    table = " | ".join(f"n={n}: {dist:.4f}/{ratio:.3f}" for n, dist, ratio in rows)
    print(f"[criterion 6] PASS builder: sigma=0, exact 1-resilience, audits ok; "
          f"distance/ratio table: {table}")


def test_criterion_07_cyclerun_influence():
    rows = []
    for n in range(5, 22, 2):
        f = cyclerun(n)
        stats = spectral_stats(f, 1)
        infl = stats.total_influence
        assert infl <= math.sqrt(n), (n, infl)
        rows.append((n, infl, infl / math.log2(n)))
    table = " | ".join(f"n={n}: {i:.3f} ({r:.3f})" for n, i, r in rows)
    print(f"[criterion 7] PASS cyclerun influence <= sqrt(n); Inf(n) "
          f"(and Inf/log2 n): {table}")


def test_criterion_08_witness_pipeline():
    f = tribes(3, 4)
    lp = distance_to_resilience(f, 1)
    lines = []
    for tau in (0.1, 0.2, 0.3):
        report = build_witness(f, 1, tau)
        assert is_d_resilient(report.p, 1, tol=1e-10).resilient
        assert report.exact_zero_certified
        assert np.max(np.abs(report.p.table)) <= 1.0
        assert report.corr_qf >= (1 - tau) * (1 - report.delta_emp) - 1e-10
        assert report.corr_pf <= (1.0 - lp.alpha) + 1e-6
        lines.append(f"tau={tau}: corr_pf={report.corr_pf:.4f}"
                     + (" (degenerate)" if report.degenerate else ""))
    print(f"[criterion 8] PASS witness pipeline on tribes(3,4), d=1: "
          f"{'; '.join(lines)}; LP correlation cap {1 - lp.alpha:.4f}")


def test_criterion_09_amplification():
    f = majority(3)
    g = distance_to_resilience(f, 1).witness

    # (a) exact spectrum: the 9-variable self-composition kills order <= 3
    composed = self_composition(g, 1)
    coeffs = wht(composed)
    pc9 = popcounts(9)
    max_low = float(np.max(np.abs(coeffs[pc9 <= 3])))
    assert max_low <= 1e-10
    cert = check_composed_resilience(g, g)
    assert cert.max_low_coefficient <= 1e-10

    # (b) measured distance against the geometric bound, exactly over 2^9
    rep = amplification_report(f, g, k=1)
    assert rep.exact
    assert rep.influence == pytest.approx(1.5)
    assert rep.dist_measured <= rep.dist_base * (1 + 1.5) + 1e-12

    # (c) noise sensitivity union bound on random balanced functions
    checked = 0
    for i in range(20):
        n = 4 + (i % 5)
        h = random_boolean(n, seed=1000 + i, balanced=True)
        infl = spectral_stats(h, 0).total_influence
        for delta in (0.05, 0.1, 0.25):
            ns_spec = noise_sensitivity(h, delta)
            ns_direct = noise_sensitivity_direct(h, delta)
            assert abs(ns_spec - ns_direct) <= 1e-10
            assert ns_spec <= delta * infl + 1e-12
            checked += 1
    print(f"[criterion 9] PASS amplification: low orders <= 3 vanish "
          f"(max {max_low:.2e}); dist {rep.dist_measured:.4f} <= bound "
          f"{rep.cor2_bound:.4f}; {checked} NS union-bound checks")


def test_criterion_10_designs_and_orthogonality():
    for n, k, d in ((6, 3, 1), (8, 2, 1), (12, 5, 1)):
        design = greedy_design(n, k, d)
        for a, b in combinations(design.sets, 2):
            assert (a & b).bit_count() <= d
        assert all(int(mask).bit_count() == k for mask in design.sets)

    base = build_one_resilient(5).output
    design = greedy_design(12, 5, 1)
    report = orthogonal_family(base, design)
    assert np.array_equal(report.gram, np.eye(design.size))
    assert report.max_offdiagonal == 0.0
    print(f"[criterion 10] PASS designs: (6,3,1), (8,2,1), (12,5,1) verified; "
          f"orthogonal family of size {design.size} in ambient 12, "
          f"integer Gram off-diagonals all zero")


def test_criterion_11_learner():
    n = 6
    g = BoundedFunction(n, 0.8 * chi_values(n, 1))
    cls = [dictator(i, n) for i in range(1, n + 1)]
    cls += [BooleanFunction(n, -c.table) for c in cls]
    opt = opt_of_class(cls, g)
    assert opt == pytest.approx(0.1)
    report, _, _ = learn_against_class(g, d=1, comparison_class=cls)
    assert report.error <= 0.1 + 0.01

    base = build_one_resilient(5).output
    design = greedy_design(12, 5, 1)
    hard = embed_on_mask(base, design.sets[0], 12)
    hard_report = learn_exact(hard, d=1)
    assert hard_report.error >= 0.5 - 1e-9
    print(f"[criterion 11] PASS learner: noisy dictator error "
          f"{report.error:.4f} <= 0.11; embedded resilient target error "
          f"{hard_report.error:.6f} >= 0.5 - 1e-9")


def test_criterion_12_ft_estimates():
    # exact binomial arithmetic vs hypercube brute force at n = 12
    pc12 = popcounts(12)
    sums12 = 12 - 2 * pc12
    for t in (0.5, 1.0, 2.0):
        f = threshold_ft(t, 12).to_bounded()
        stats = ft_stats(t, 12)
        assert abs(stats.influence_sum - float(np.mean(f.table * sums12))) <= 1e-9
        assert abs(stats.support_prob - float(np.mean(f.table != 0.0))) <= 1e-9

    # sandwich bounds at large n, both phi normalizations reported
    report_lines = []
    for n in (10**3, 10**4):
        for t in (0.5, 1.0, 2.0, 3.0, math.sqrt(math.log(n))):
            stats = ft_stats(t, n)
            std_row = ft_sandwich(stats, printed=False, factor=4.0)
            pr_row = ft_sandwich(stats, printed=True, factor=4.0)
            assert std_row.influence_pass, (n, t, std_row)
            assert std_row.support_pass, (n, t, std_row)
            report_lines.append(
                f"n={n} t={t:.2f}: standard inf/supp="
                f"{std_row.influence_pass}/{std_row.support_pass} "
                f"printed={pr_row.influence_pass}/{pr_row.support_pass}"
            )
    print("[criterion 12] PASS f_t estimates: n=12 brute-force match <= 1e-9; "
          "factor-4 sandwich holds under the standard normalization:")
    for line in report_lines:
        print("   ", line)
