import json

import numpy as np
import pytest

from fractions import Fraction

from boolres import cli, hypercube
from boolres.duality import distance_to_resilience
from boolres.hypercube import (
    BooleanFunction,
    BoundedFunction,
    chi_values,
    fwht,
    is_d_resilient,
    popcounts,
    wht,
)
from boolres.witness import (
    WITNESS_MAX_DIM,
    DegenerateHighPart,
    _exact_crossed,
    _table_bits,
    build_witness,
)
from boolres.zoo import cyclerun, majority, random_boolean, tribes
from reference import INT64_BITS, ConcentrationProbe, concentration_probe


def test_params_validation():
    f = majority(3)
    with pytest.raises(ValueError, match="^threshold tau must be positive and finite$"):
        build_witness(f, 1, 0.0)
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        build_witness(f, -1, 0.5)
    # the parameters are checked before the function
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        build_witness(BoundedFunction(2, np.zeros(4)), -1, 0.5)


def test_params_reject_non_finite_tau():
    for tau in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^threshold tau must be positive and finite$"):
            build_witness(majority(3), 1, tau)


@pytest.mark.parametrize("d, tau, detail", [
    ("1", "0", "threshold tau must be positive and finite"),
    ("1", "nan", "threshold tau must be positive and finite"),
    ("1", "0.3,inf", "threshold tau must be positive and finite"),
    ("-1", "0.3", "degree must be nonnegative"),
])
def test_witness_cli_rejects_bad_params(capsys, d, tau, detail):
    code = cli.main(["witness", "--fn", "majority:n=3", "--d", d, "--tau", tau])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err)["detail"] == detail


def test_parity_passes_through_unchanged():
    f = BooleanFunction(4, chi_values(4, 0b111))
    report = build_witness(f, 1, 0.3)
    # l = 0, q = f, p = f
    assert report.delta_emp == 0.0
    assert report.corr_pf == pytest.approx(1.0)
    assert report.corr_qf == pytest.approx(1.0)
    assert np.array_equal(report.p.table, f.table.astype(float))


def test_majority3_threshold_zeroes_extremes():
    f = majority(3)
    report = build_witness(f, 1, 0.9)
    # l = (x1+x2+x3)/2 exceeds 0.9 only at the two all-equal points
    assert report.delta_emp == pytest.approx(2 / 8)
    assert is_d_resilient(report.p, 1, tol=1e-10).resilient
    assert report.exact_zero_certified
    assert np.max(np.abs(report.p.table)) <= 1.0


def test_majority3_witness_cannot_beat_lp():
    f = majority(3)
    lp = distance_to_resilience(f, 1)
    for tau in (0.6, 0.9, 1.2):
        report = build_witness(f, 1, tau)
        assert report.corr_pf <= (1.0 - lp.alpha) + 1e-6


def test_corr_qf_floor():
    f = tribes(2, 3)
    for tau in (0.2, 0.5, 0.9):
        report = build_witness(f, 1, tau)
        assert report.corr_qf >= (1 - tau) * (1 - report.delta_emp) - 1e-10


def test_q_range_within_band():
    f = tribes(2, 2)
    report = build_witness(f, 1, 0.4)
    assert report.q_min >= -1 - 0.4 - 1e-12
    assert report.q_max <= 1 + 0.4 + 1e-12


def test_tribes23_full_pipeline_certificates():
    f = tribes(2, 3)
    lp = distance_to_resilience(f, 1)
    for tau in (0.1, 0.2, 0.3):
        report = build_witness(f, 1, tau)
        check = is_d_resilient(report.p, 1, tol=1e-10)
        assert check.resilient
        assert report.exact_zero_certified
        assert report.corr_pf <= (1.0 - lp.alpha) + 1e-6


def test_degenerate_high_part():
    f = BooleanFunction(3, chi_values(3, 0b1))  # degree-1 dictator
    with pytest.raises(DegenerateHighPart):
        build_witness(f, 1, 0.5)


def test_total_threshold_wipe_returns_zero_witness():
    # tau below min |l| zeroes every point; the zero function is the witness
    f = tribes(2, 3)
    report = build_witness(f, 1, 0.1)
    assert report.degenerate
    assert report.delta_emp == 1.0
    assert np.all(report.p.table == 0.0)
    assert report.corr_pf == 0.0
    assert is_d_resilient(report.p, 1, tol=1e-10).resilient
    assert report.corr_qf >= (1 - 0.1) * (1 - report.delta_emp) - 1e-10


def test_chain_inequality_reported_quantities():
    f = tribes(2, 3)
    report = build_witness(f, 1, 0.25)
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
    for t in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            concentration_probe(majority(3), 1, t)


def test_probe_above_the_dimension_reads_f_itself():
    f = tribes(2, 3)
    for d in (f.n, f.n + 1, f.n + 5):
        probe = concentration_probe(f, d, 1.0)
        assert probe.p2norm_lowpart == 1.0 and probe.tail_prob == 1.0


def test_probe_rejects_negative_degree():
    with pytest.raises(ValueError, match="outside"):
        concentration_probe(majority(3), -1, 1.0)


def test_probe_is_dataclass_pair():
    probe = concentration_probe(majority(3), 1, 1.0)
    assert isinstance(probe, ConcentrationProbe)


def test_witness_spectrum_low_part_tiny():
    f = tribes(3, 2)
    report = build_witness(f, 2, 0.5)
    coeffs = wht(report.p)
    pc = np.bitwise_count(np.arange(1 << 6, dtype=np.uint64)).astype(int)
    assert np.max(np.abs(coeffs[pc <= 2])) <= 1e-10


@pytest.mark.parametrize("tau", [0.25, 0.375, 1.5, 2.0**-20, 0.1, 1 / 3, 0.7, 1e300])
def test_exact_threshold_matches_fraction_loop(tau):
    # dyadic tau puts tau * 2^n on an integer, which must not count as crossed
    rng = np.random.default_rng(11)
    size = 1 << 8
    edge = min(int(Fraction(tau) * size), 4 * size)
    for _ in range(4):
        l_num = rng.integers(-4 * size, 4 * size + 1, size=size)
        l_num[:6] = [edge, -edge, edge + 1, -edge - 1, edge - 1, 0]
        threshold = Fraction(tau) * size
        loop = np.array([Fraction(int(abs(v))) > threshold for v in l_num])
        assert np.array_equal(_exact_crossed(l_num, tau, size), loop)


def test_int64_bound_tied_to_cap(monkeypatch):
    assert _table_bits(WITNESS_MAX_DIM) <= INT64_BITS
    # every partial value of the two kernels behind `low_degree_part` is at
    # most the l1 norm of that kernel's input, so recording that norm and
    # the largest output of each int64 call checks every value of the proof
    seen = []
    real_pass, real_transpose = hypercube._low_degree_pass, hypercube._low_degree_transpose

    def record(values, out):
        if out.dtype == np.int64:  # the float re-check of p is not part of it
            seen.append((int(np.abs(values).sum()), int(np.abs(out).max())))

    def sums(table, d):
        masks, out = real_pass(table, d)
        record(table, out)
        return masks, out

    def transpose(values, n, d):
        out = real_transpose(values, n, d)
        record(values, out)
        return out

    monkeypatch.setattr(hypercube, "_low_degree_pass", sums)
    monkeypatch.setattr(hypercube, "_low_degree_transpose", transpose)
    for f in (random_boolean(12, seed=1), random_boolean(11, seed=2), tribes(3, 4), majority(11)):
        for tau in (0.3, 1e300):
            seen.clear()
            build_witness(f, 1, tau)
            assert len(seen) == 4  # the sums and transpose of f, then of q
            # the last kernel reads 2^{2n} q^ on the low masks, l1 norm <= 2^{5n/2}
            assert seen[-1][0] <= 2.0 ** (2.5 * f.n)
            assert max(max(pair) for pair in seen) < 2 ** _table_bits(f.n)


def _float_pipeline(f, d, tau):
    """The float64 pipeline `build_witness` ran before its integer tables,
    kept as an oracle: the report fields it set, or None for a wiped-out q."""
    table = f.table.astype(np.float64)
    pc = popcounts(f.n)
    coeffs = fwht(table) / (1 << f.n)
    coeffs[pc > d] = 0.0
    low = fwht(coeffs)
    crossed = np.abs(low) > tau
    q = np.where(crossed, 0.0, table - low)
    if not np.any(q):
        return None
    q_high = fwht(np.where(pc > d, fwht(q) / (1 << f.n), 0.0))
    high_sup = float(np.max(np.abs(q_high)))
    p = q_high / high_sup
    return {
        "p": p,
        "delta_emp": float(np.mean(crossed)),
        "corr_qf": float(np.mean(q * table)),
        "low_part_sup": float(np.max(np.abs(q - q_high))),
        "high_sup": high_sup,
        "corr_pf": float(np.mean(p * table)),
        "q_min": float(q.min()),
        "q_max": float(q.max()),
    }


ORACLE_FUNCTIONS = {
    "tribes23": lambda: tribes(2, 3),
    "tribes34": lambda: tribes(3, 4),
    "tribes44": lambda: tribes(4, 4),
    "majority9": lambda: majority(9),
    "majority15": lambda: majority(15),
    "random10": lambda: random_boolean(10, seed=3),
    "random16": lambda: random_boolean(16, seed=4),
    "cyclerun13": lambda: cyclerun(13),
    "cyclerun15": lambda: cyclerun(15),
}
# dyadic, non-dyadic, no crossing, and a tau below every nonzero |l| >= 2^-n
ORACLE_TAUS = (0.25, 0.5, 0.1, 1 / 3, 0.9, 1e300, 1e-9)


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_FUNCTIONS))
def test_integer_pipeline_bit_equal_to_float_oracle(name, d):
    f = ORACLE_FUNCTIONS[name]()
    wiped = 0
    for tau in ORACLE_TAUS:
        report = build_witness(f, d, tau)
        expected = _float_pipeline(f, d, tau)
        assert report.exact_zero_certified
        if expected is None:
            wiped += 1
            assert report.degenerate and report.delta_emp == 1.0
            assert not np.any(report.p.table)
            continue
        assert not report.degenerate
        assert _bits(report.p.table) == _bits(expected.pop("p"))
        for field, value in expected.items():
            assert _bits(getattr(report, field)) == _bits(value), (tau, field)
    if name == "tribes23":
        assert wiped > 0


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_exact_certificate_past_the_old_replay_cap(n):
    for d in (1, 2):
        report = build_witness(random_boolean(n, seed=n), d, 0.5)
        assert report.exact_zero_certified and not report.degenerate


def test_float_recheck_catches_a_low_mask_left_in(monkeypatch):
    # q's low part without its mask-0 sum keeps q's mean in q_{>d}, so p has
    # a nonzero constant coefficient that only the float re-check sees
    real = hypercube._low_degree_pass
    calls = []

    def drop_mask_zero_on_q(table, d):
        masks, sums = real(table, d)
        calls.append(d)
        if len(calls) == 2:  # f's low part first, then q's; mask 0 leads the pass
            sums[0] = 0
        return masks, sums

    f = tribes(3, 4)
    build_witness(f, 1, 0.5)
    monkeypatch.setattr(hypercube, "_low_degree_pass", drop_mask_zero_on_q)
    with pytest.raises(RuntimeError, match="resilient"):
        build_witness(f, 1, 0.5)
