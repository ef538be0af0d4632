import numpy as np
import pytest

from boolres.duality import distance_to_resilience
from boolres.hypercube import BooleanFunction, chi_values, is_d_resilient, wht
from boolres.witness import (
    ConcentrationProbe,
    DegenerateHighPart,
    WitnessParams,
    build_witness,
    concentration_probe,
)
from boolres.zoo import majority, tribes


def test_params_validation():
    with pytest.raises(ValueError):
        WitnessParams(d=1, tau=0.0)
    with pytest.raises(ValueError):
        WitnessParams(d=-1, tau=0.5)


def test_params_reject_non_finite_tau():
    for tau in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            WitnessParams(d=1, tau=tau)


def test_parity_passes_through_unchanged():
    f = BooleanFunction(4, chi_values(4, 0b111))
    report = build_witness(f, WitnessParams(d=1, tau=0.3))
    # l = 0, q = f, p = f
    assert report.delta_emp == 0.0
    assert report.corr_pf == pytest.approx(1.0)
    assert report.corr_qf == pytest.approx(1.0)
    assert np.array_equal(report.p.table, f.table.astype(float))


def test_majority3_threshold_zeroes_extremes():
    f = majority(3)
    report = build_witness(f, WitnessParams(d=1, tau=0.9))
    # l = (x1+x2+x3)/2 exceeds 0.9 only at the two all-equal points
    assert report.delta_emp == pytest.approx(2 / 8)
    assert report.resilience.resilient
    assert report.exact_zero_certified
    assert np.max(np.abs(report.p.table)) <= 1.0


def test_majority3_witness_cannot_beat_lp():
    f = majority(3)
    lp = distance_to_resilience(f, 1)
    for tau in (0.6, 0.9, 1.2):
        report = build_witness(f, WitnessParams(d=1, tau=tau))
        assert report.corr_pf <= (1.0 - lp.alpha) + 1e-6


def test_corr_qf_floor():
    f = tribes(2, 3)
    for tau in (0.2, 0.5, 0.9):
        report = build_witness(f, WitnessParams(d=1, tau=tau))
        assert report.corr_qf >= (1 - tau) * (1 - report.delta_emp) - 1e-10


def test_q_range_within_band():
    f = tribes(2, 2)
    report = build_witness(f, WitnessParams(d=1, tau=0.4))
    assert report.q_min >= -1 - 0.4 - 1e-12
    assert report.q_max <= 1 + 0.4 + 1e-12


def test_tribes23_full_pipeline_certificates():
    f = tribes(2, 3)
    lp = distance_to_resilience(f, 1)
    for tau in (0.1, 0.2, 0.3):
        report = build_witness(f, WitnessParams(d=1, tau=tau))
        check = is_d_resilient(report.p, 1, tol=1e-10)
        assert check.resilient
        assert report.exact_zero_certified
        assert report.corr_pf <= (1.0 - lp.alpha) + 1e-6


def test_degenerate_high_part():
    f = BooleanFunction(3, chi_values(3, 0b1))  # degree-1 dictator
    with pytest.raises(DegenerateHighPart):
        build_witness(f, WitnessParams(d=1, tau=0.5))


def test_total_threshold_wipe_returns_zero_witness():
    # tau below min |l| zeroes every point; the zero function is the witness
    f = tribes(2, 3)
    report = build_witness(f, WitnessParams(d=1, tau=0.1))
    assert report.degenerate
    assert report.delta_emp == 1.0
    assert np.all(report.p.table == 0.0)
    assert report.corr_pf == 0.0
    assert report.resilience.resilient
    assert report.corr_qf >= (1 - 0.1) * (1 - report.delta_emp) - 1e-10


def test_chain_inequality_reported_quantities():
    f = tribes(2, 3)
    report = build_witness(f, WitnessParams(d=1, tau=0.25))
    kappa = report.low_part_sup
    q_sup = max(abs(report.q_min), abs(report.q_max))
    if report.corr_qf - kappa >= 0:
        assert report.corr_pf >= (report.corr_qf - kappa) / (q_sup + kappa) - 1e-10


def test_probe_dictator():
    f = BooleanFunction(3, chi_values(3, 0b1))
    probe = concentration_probe(f, 1, 2.0)
    assert probe.p2norm_lowpart == pytest.approx(1.0)
    assert probe.tail_prob == 0.0


def test_probe_majority3():
    probe = concentration_probe(majority(3), 1, 1.5)
    assert probe.p2norm_lowpart == pytest.approx(np.sqrt(0.75))
    assert probe.tail_prob == pytest.approx(2 / 8)


def test_probe_tail_monotone_in_t():
    f = tribes(2, 3)
    tails = [concentration_probe(f, 1, t).tail_prob for t in (0.5, 1.0, 1.5, 2.0, 3.0)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_probe_rejects_bad_t():
    with pytest.raises(ValueError):
        concentration_probe(majority(3), 1, 0.0)


def test_probe_is_dataclass_pair():
    probe = concentration_probe(majority(3), 1, 1.0)
    assert isinstance(probe, ConcentrationProbe)


def test_witness_spectrum_low_part_tiny():
    f = tribes(3, 2)
    report = build_witness(f, WitnessParams(d=2, tau=0.5))
    coeffs = wht(report.p).coeffs
    pc = np.bitwise_count(np.arange(1 << 6, dtype=np.uint64)).astype(int)
    assert np.max(np.abs(coeffs[pc <= 2])) <= 1e-10
