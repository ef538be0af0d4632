import dataclasses
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from boolres import __version__, amplify, builder, cli, hypercube, zoo
from boolres.builder import audit_invariants, build_one_resilient
from boolres.cli import main, parse_function_spec
from boolres.designs import greedy_design, orthogonal_family
from boolres.duality import distance_to_resilience
from boolres.hypercube import MAX_DIM, BoundedFunction
from boolres.learner import learn_exact, learn_sampled
from boolres.zoo import constant, cyclerun, dictator, majority, parity, random_boolean, tribes
from reference import write_truth_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_function_specs():
    f = parse_function_spec("tribes:w=2,s=2")
    assert f.n == 4
    g = parse_function_spec("parity:n=3,mask=0x3")
    assert g.n == 3
    h = parse_function_spec("random:n=4,seed=7,balanced=1")
    assert int(h.table.astype(int).sum()) == 0


def test_parse_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_function_spec("tribes:w=2,s=2,magic=1")
    with pytest.raises(ValueError):
        parse_function_spec("nosuch:n=3")
    with pytest.raises(ValueError):
        parse_function_spec("majority:n=3,n=5")


@pytest.mark.parametrize("balanced", ["2", "-1"])
def test_random_spec_accepts_only_0_or_1_for_balanced(capsys, balanced):
    spec = f"random:n=4,seed=7,balanced={balanced}"
    with pytest.raises(cli.SpecError, match="balanced must be 0 or 1"):
        parse_function_spec(spec)
    code, out, err = run_cli(capsys, "stats", "--fn", spec, "--d", "1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "precondition"
    unbalanced = parse_function_spec("random:n=4,seed=7,balanced=0")
    assert np.array_equal(unbalanced.table, parse_function_spec("random:n=4,seed=7").table)


# every constructor of the README, with the direct call it stands for
SPEC_CALLS = [
    ("tribes:w=2,s=3", lambda: tribes(2, 3)),
    ("cyclerun:n=7", lambda: cyclerun(7)),
    ("majority:n=5", lambda: majority(5)),
    ("parity:n=4,mask=0xa", lambda: parity(10, 4)),
    ("parity:n=4,mask=10", lambda: parity(10, 4)),
    ("dictator:n=4,i=2", lambda: dictator(2, 4)),
    ("constant:n=3,sign=-1", lambda: constant(3, -1)),
    ("random:n=5,seed=3", lambda: random_boolean(5, 3)),
    ("random:n=5,seed=3,balanced=1", lambda: random_boolean(5, 3, balanced=True)),
    ("file:path={path}", lambda: random_boolean(4, 9)),
]


@pytest.mark.parametrize("spec, make", SPEC_CALLS, ids=[spec for spec, _ in SPEC_CALLS])
def test_spec_builds_the_table_of_its_constructor(tmp_path, spec, make):
    expected = make()
    path = tmp_path / "f.tt"
    write_truth_table(expected, str(path))
    fn = parse_function_spec(spec.format(path=path))
    assert type(fn) is type(expected) and fn.n == expected.n
    assert np.array_equal(fn.table, expected.table)


def _key_errors():
    for spec, _ in SPEC_CALLS:
        name, _, body = spec.partition(":")
        chunks = body.split(",")
        for chunk in chunks:
            key = chunk.split("=")[0]
            if key != "balanced":  # optional, 0 when absent
                short = f"{name}:" + ",".join(c for c in chunks if c != chunk)
                yield short, f"function spec {short!r} is missing key {key!r}"
        yield spec + ",magic=1", f"unknown keys ['magic'] in function spec {spec + ',magic=1'!r}"


# a spec whose keys are right but whose values or file are not
SPEC_VALUE_ERRORS = [
    ("majority:n", "malformed key=value chunk 'n'"),
    ("majority:n=3,x", "malformed key=value chunk 'x'"),
    ("parity:n=3,mask=0x8", "parity mask outside [n]"),
    ("parity:n=3,mask=-1", "parity mask outside [n]"),
    ("dictator:n=3,i=0", "dictator coordinate outside [1, n]"),
    ("dictator:n=3,i=4", "dictator coordinate outside [1, n]"),
    ("constant:n=3,sign=0", "constant sign must be +-1"),
    ("file:path={tmp}/header.tt", "bad truth-table header 'x=3'"),
    ("file:path={tmp}/letters.tt", "bad truth-table header 'n=abc'"),
    ("file:path={tmp}/empty.tt", "bad truth-table header 'n='"),
    ("file:path={tmp}/fraction.tt", "bad truth-table header 'n=1.5'"),
    ("file:path={tmp}/negative.tt", f"dimension n=-1 outside supported range [0, {MAX_DIM}]"),
    ("file:path={tmp}/count.tt", "expected 8 entries, found 2"),
    ("file:path={tmp}/trailing.tt", "unexpected content after the truth table's line 2"),
    ("random:n=0,seed=1,balanced=1", "a balanced table needs n >= 1: one point cannot be balanced"),
]


# the truth-table files SPEC_VALUE_ERRORS reads, by name
BAD_TABLES = {
    "header.tt": "x=3\n1 -1 1 -1 1 -1 1 -1\n",
    "letters.tt": "n=abc\n1 -1\n",
    "empty.tt": "n=\n1 -1\n",
    "fraction.tt": "n=1.5\n1 -1\n",
    "negative.tt": "n=-1\n1 -1\n",
    "count.tt": "n=3\n1 -1\n",
    "trailing.tt": "n=1\n1 -1\ngarbage\n",
}


@pytest.mark.parametrize("spec, detail", list(_key_errors()) + SPEC_VALUE_ERRORS)
def test_spec_missing_or_unknown_key_is_a_precondition_failure(capsys, tmp_path, spec, detail):
    for name, text in BAD_TABLES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, "stats", "--fn", spec.replace("{tmp}", str(tmp_path)), "--d", "1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "precondition", "detail": detail}


def test_truth_table_file_may_end_in_blank_lines(tmp_path):
    path = tmp_path / "blank.tt"
    path.write_text("n=1\n1 -1\n\n  \n")
    assert np.array_equal(parse_function_spec(f"file:path={path}").table, [1, -1])


def test_spec_looks_up_its_constructor_when_called(monkeypatch):
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        return majority(5)

    monkeypatch.setattr(cli, "cyclerun", stub)
    assert np.array_equal(parse_function_spec("cyclerun:n=5").table, majority(5).table)
    assert calls == [((5,), {})]


@pytest.mark.parametrize("n", [29, 64, 65])
@pytest.mark.parametrize("spec", [
    "majority:n={n}", "parity:n={n},mask=0x1", "dictator:n={n},i=1", "constant:n={n},sign=1",
    "random:n={n},seed=1", "random:n={n},seed=1,balanced=1", "file:path={path}",
    "tribes:w={n},s=1",
])
def test_spec_above_max_dim_is_rejected_before_allocating(capsys, tmp_path, spec, n):
    path = tmp_path / "big.tt"
    path.write_text(f"n={n}\n1 -1\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "stats", "--fn", spec.format(n=n, path=path), "--d", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "precondition",
        "detail": f"dimension n={n} outside supported range [0, 28]",
    }
    assert peak < 1 << 20


def test_spectrum_csv_row_count(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--fn", "cyclerun:n=5", "--format", "csv")
    assert code == 0
    rows = [line for line in out.strip().split("\n") if line]
    assert len(rows) == 32
    mask, coef = rows[0].split(",")
    assert mask == "0x0"
    float(coef)


def test_spectrum_json_embeds_config_and_version(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--fn", "majority:n=3")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["fn"] == "majority:n=3"
    assert "version" in payload
    assert payload["coefficients"]["0x1"] == pytest.approx(0.5)


def test_duality_cli(capsys, tmp_path):
    out_path = tmp_path / "duality.json"
    code, _, _ = run_cli(
        capsys, "duality", "--fn", "tribes:w=2,s=3", "--d", "1", "--out", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["gap"] <= 1e-6
    assert abs(payload["alpha"] + payload["delta"] - 1.0) <= 1e-6


def test_cyclerun_build_cli(capsys):
    code, out, _ = run_cli(capsys, "cyclerun-build", "--n", "9", "--c1", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma_final"] == 0
    assert payload["audit_ok"] is True
    assert payload["first_level_coefficients"] == [0] * 9


def test_cyclerun_build_cli_exits_2_on_a_nonzero_first_level_sum(capsys, monkeypatch, tmp_path):
    real = builder.level_one_sums

    def skewed(table):
        sums = real(table)
        sums[3] += 4
        return sums

    monkeypatch.setattr(builder, "level_one_sums", skewed)
    out_path = tmp_path / "build.json"
    code, _, err = run_cli(capsys, "cyclerun-build", "--n", "9", "--out", str(out_path))
    assert code == 2
    assert "not exactly 1-resilient" in json.loads(err)["detail"]
    assert not out_path.exists()


def test_witness_cli_writes_no_artifact_with_a_nan_in_a_few_valued_table(
    capsys, monkeypatch, tmp_path
):
    real = cli.build_witness

    def with_nan(f, d, tau):
        report = real(f, d, tau)
        table = np.zeros_like(report.p.table)
        table[5] = np.nan
        return dataclasses.replace(report, p=SimpleNamespace(table=table))

    monkeypatch.setattr(cli, "build_witness", with_nan)
    out_path = tmp_path / "witness.json"
    code, _, err = run_cli(
        capsys, "witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.3",
        "--out", str(out_path),
    )
    assert code == 2
    assert "not JSON compliant" in json.loads(err)["detail"]
    assert not out_path.exists()


def test_stats_and_witness_cli(capsys):
    code, out, _ = run_cli(capsys, "stats", "--fn", "majority:n=3", "--d", "1")
    assert code == 0
    assert json.loads(out)["total_influence"] == pytest.approx(1.5)

    code, out, _ = run_cli(
        capsys, "witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.3"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["p_table"]) == 64
    assert payload["corr_qf"] >= (1 - 0.3) * (1 - payload["delta_emp"]) - 1e-10


def test_design_and_ortho_cli(capsys):
    code, out, _ = run_cli(capsys, "design", "--n", "6", "--k", "3", "--d", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] >= 2

    code, out, _ = run_cli(
        capsys, "ortho-family", "--fn", "parity:n=2,mask=0x3", "--n", "8", "--d", "1"
    )
    assert code == 0
    assert json.loads(out)["max_offdiagonal"] == 0.0


def test_ortho_family_cli_names_the_coefficient_an_unbalanced_base_fails_on(capsys):
    code, out, err = run_cli(
        capsys, "ortho-family", "--fn", "constant:n=1,sign=1", "--n", "2", "--d", "0"
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "precondition",
        "detail": "resilience mismatch: the design needs a 0-resilient base, "
        "but coef[0x0] = 1.000e+00",
    }


# every subcommand that reads only low-degree coefficients; `{bounded}` is a
# file holding 0.5 chi_{1,2,3}, a bounded 2-resilient table
LOW_DEGREE_JOBS = {
    "resilience": ("resilience", "--fn", "majority:n=5", "--d", "1"),
    "duality": ("duality", "--fn", "tribes:w=2,s=3", "--d", "1"),
    "l1approx": ("l1approx", "--fn", "majority:n=5", "--d", "2"),
    "witness": ("witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.2,0.3"),
    "stats-boolean": ("stats", "--fn", "cyclerun:n=7", "--d", "1"),
    "stats-bounded": ("stats", "--fn", "file:path={bounded}", "--d", "2"),
    "cyclerun-build": ("cyclerun-build", "--n", "7"),
    "design": ("design", "--n", "8", "--k", "3", "--d", "1"),
    "ortho-family-boolean": ("ortho-family", "--fn", "parity:n=3,mask=0x7", "--n", "12",
                             "--d", "2"),
    "ortho-family-bounded": ("ortho-family", "--fn", "file:path={bounded}", "--n", "10",
                             "--d", "2"),
    "learn-exact": ("learn", "--fn", "majority:n=5", "--d", "1"),
    "learn-sampled": ("learn", "--fn", "majority:n=5", "--d", "1", "--m", "50", "--seed", "1"),
}


def _no_full_transform(*args, **kwargs):
    raise RuntimeError("a full Walsh-Hadamard transform was taken")


@pytest.mark.parametrize("argv", LOW_DEGREE_JOBS.values(), ids=LOW_DEGREE_JOBS.keys())
def test_low_degree_commands_take_no_full_transform(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "bounded.tt"
    write_truth_table(BoundedFunction(3, 0.5 * parity(0b111, 3).table), str(path))
    monkeypatch.setattr(hypercube, "fwht", _no_full_transform)
    code, out, err = run_cli(capsys, *(arg.format(bounded=path) for arg in argv))
    assert (code, err) == (0, "")
    assert json.loads(out)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--fn", "majority:n=3"),
    ("amplify", "--fn", "majority:n=3", "--d", "1", "--k", "1"),
], ids=["spectrum", "amplify"])
def test_full_spectrum_commands_meet_the_transform_guard(capsys, monkeypatch, argv):
    # the two subcommands that need every coefficient show the guard is live
    monkeypatch.setattr(hypercube, "fwht", _no_full_transform)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "full Walsh-Hadamard transform" in err


def test_learn_cli_exact_and_sampled(capsys):
    code, out, _ = run_cli(capsys, "learn", "--fn", "parity:n=4,mask=0x7", "--d", "1")
    assert code == 0
    assert json.loads(out)["error"] == pytest.approx(0.5, abs=1e-9)

    code, out, _ = run_cli(
        capsys, "learn", "--fn", "dictator:n=4,i=1", "--d", "1", "--m", "500", "--seed", "9"
    )
    assert code == 0
    assert json.loads(out)["error"] <= 0.05

    code, _, err = run_cli(
        capsys, "learn", "--fn", "dictator:n=4,i=1", "--d", "1", "--m", "500"
    )
    assert code == 1
    assert "seed" in err

    code, _, err = run_cli(
        capsys, "learn", "--fn", "majority:n=3", "--d", "1", "--seed", "4"
    )
    assert code == 1
    assert "--m" in json.loads(err)["detail"]


@pytest.mark.parametrize("d", [4, -1])
@pytest.mark.parametrize("sampling", [(), ("--m", "50", "--seed", "9")], ids=["exact", "sampled"])
def test_learn_cli_rejects_a_degree_outside_0_n(capsys, d, sampling):
    code, out, err = run_cli(capsys, "learn", "--fn", "majority:n=3", "--d", str(d), *sampling)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "precondition"
    assert error["detail"] == f"degree d={d} outside [0, 3]"


def test_stats_cli_rejects_a_negative_degree(capsys):
    code, out, err = run_cli(capsys, "stats", "--fn", "majority:n=3", "--d", "-1")
    assert (code, out) == (1, "")
    assert json.loads(err)["detail"] == "degree d=-1 outside [0, 3]"


def test_learn_cli_rejects_zero_samples(capsys):
    code, _, err = run_cli(
        capsys, "learn", "--fn", "dictator:n=4,i=1", "--d", "1", "--m", "0", "--seed", "9"
    )
    assert code == 1
    assert "m must be positive" in err


def test_learn_cli_reports_a_sample_too_large_for_memory(capsys, monkeypatch):
    # --m 10^11 asks for arrays of hundreds of GiB; the failed allocation is
    # raised here instead of attempted
    def out_of_memory(g, d, m, seed):
        raise MemoryError(f"Unable to allocate the sample of m={m}")

    monkeypatch.setattr(cli, "learn_sampled", out_of_memory)
    code, out, err = run_cli(
        capsys, "learn", "--fn", "majority:n=3", "--d", "1", "--m", "100000000000", "--seed", "1"
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "precondition", "detail": "Unable to allocate the sample of m=100000000000"
    }


def test_ft_stats_cli(capsys):
    code, out, _ = run_cli(capsys, "ft-stats", "--n", "1000", "--t", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["sandwich"]["standard_phi"]["influence_pass"] is True
    assert payload["sandwich"]["printed_phi"]["influence_pass"] is False


@pytest.mark.parametrize("t", ["inf", "1e308"])
def test_ft_stats_cli_above_every_level_on_the_log_space_path(capsys, t):
    code, out, err = run_cli(capsys, "ft-stats", "--n", "100", "--t", t)
    if t == "inf":
        # an infinite t would be written as the bare token Infinity, which is not JSON
        assert (code, out) == (1, "")
        assert json.loads(err)["detail"] == "threshold parameter t must be finite, got inf"
        return
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["influence_sum"], payload["support_prob"]) == (0.0, 0.0)
    # phi(1e308) underflows to 0: the bounds are [0, 0] and prove nothing
    for row in payload["sandwich"].values():
        assert row["phi"] == 0.0
        assert row["influence_pass"] is False and row["support_pass"] is False


@pytest.mark.parametrize("t", ["-inf", "nan"])
def test_ft_stats_cli_rejects_a_non_finite_t(capsys, t):
    code, out, err = run_cli(capsys, "ft-stats", "--n", "100", f"--t={t}")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "precondition"
    assert error["detail"] == f"threshold parameter t must be finite, got {float(t)}"


def test_ft_stats_cli_writes_no_artifact_with_an_overflowed_bound(capsys, tmp_path):
    # factor * phi(1) * sqrt(1000) overflows to inf, which is not JSON
    out_path = tmp_path / "ft.json"
    code, out, err = run_cli(
        capsys, "ft-stats", "--n", "1000", "--t", "1", "--factor", "1e308", "--out", str(out_path)
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invariant-violation"
    assert not out_path.exists()


def test_ft_stats_csv_fails_a_sandwich_whose_upper_bound_overflowed(capsys):
    # factor * phi(1) * sqrt(1000) overflows to inf; the support bound stays finite
    code, out, err = run_cli(
        capsys, "ft-stats", "--n", "1000", "--t", "1", "--factor", "1e308", "--format", "csv"
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()]
    assert [row[0] for row in rows] == ["standard_phi", "printed_phi"]
    assert [row[2:] for row in rows] == [["False", "True"], ["False", "True"]]


@pytest.mark.parametrize("argv", [
    ("--n", "12", "--t", "0"),
    ("--n", "12", "--t", "1"),
    ("--n", "1000", "--t", "1", "--format", "csv"),
], ids=" ".join)
def test_ft_stats_cli_computes_the_stats_once(capsys, monkeypatch, argv):
    calls = []

    def counted(t, n):
        calls.append((t, n))
        return zoo.ft_stats(t, n)

    monkeypatch.setattr(cli, "ft_stats", counted)
    code, _, err = run_cli(capsys, "ft-stats", *argv)
    assert (code, err) == (0, "")
    assert calls == [(float(argv[3]), int(argv[1]))]


def test_ft_stats_cli_names_a_negative_n(capsys):
    code, out, err = run_cli(capsys, "ft-stats", "--n", "-3", "--t", "1")
    assert (code, out) == (1, "")
    assert "n=-3" in json.loads(err)["detail"]


def test_amplify_cli(capsys):
    code, out, _ = run_cli(capsys, "amplify", "--fn", "majority:n=3", "--d", "1", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["dist_measured"] <= payload["cor2_bound"] + 1e-9
    # k = 3 is 81 bits; --m/--seed are accepted and change nothing
    deep = ("amplify", "--fn", "majority:n=3", "--d", "1", "--k", "3")
    payloads = []
    for extra in ((), ("--m", "1000", "--seed", "7")):
        code, out, _ = run_cli(capsys, *deep, *extra)
        assert code == 0
        payloads.append(json.loads(out))
    plain, flagged = payloads
    assert plain["dist_measured"] == flagged["dist_measured"]
    for payload in payloads:
        assert payload["arity"] == 81
        assert payload["exact"] is True and payload["ci_width"] == 0


def test_amplify_cli_writes_an_arity_below_the_digit_limit(capsys):
    # 2^13001 has 3914 digits, under Python's default limit of 4300; the
    # dictator's Inf = 1 keeps the bound finite at this depth
    argv = ("amplify", "--fn", "dictator:n=2,i=1", "--d", "0", "--k", "13000")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["arity"] == 2**13001


def test_witness_tau_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.2,0.3"
    )
    assert code == 0
    payload = json.loads(out)
    assert [entry["tau"] for entry in payload["sweep"]] == [0.2, 0.3]


def test_exit_code_1_on_bad_precondition(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--fn", "tribes:w=9,s=9")
    assert code == 1
    assert "precondition" in err


def test_exit_code_2_on_invariant_violation(capsys, monkeypatch):
    # a certificate whose gap exceeds --tol is reported as an invariant
    # violation; the gap is forced, since a real solve can reach exactly 0
    real = cli.distance_to_resilience
    monkeypatch.setattr(
        cli, "distance_to_resilience",
        lambda f, d: dataclasses.replace(real(f, d), gap=1e-3),
    )
    code, _, err = run_cli(
        capsys, "duality", "--fn", "tribes:w=2,s=3", "--d", "1", "--tol", "1e-6"
    )
    assert code == 2
    assert "invariant-violation" in err


def test_truth_table_round_trip_produces_identical_certificates(capsys, tmp_path):
    f = tribes(2, 2)
    path = tmp_path / "tribes22.tt"
    write_truth_table(f, str(path))

    code, out1, _ = run_cli(capsys, "duality", "--fn", "tribes:w=2,s=2", "--d", "1")
    code2, out2, _ = run_cli(capsys, "duality", "--fn", f"file:path={path}", "--d", "1")
    assert code == code2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["alpha"] == p2["alpha"]
    assert p1["delta"] == p2["delta"]
    assert p1["witness_table"] == p2["witness_table"]


def test_resilience_and_l1_cli_consistent(capsys):
    code, out_r, _ = run_cli(capsys, "resilience", "--fn", "majority:n=3", "--d", "1")
    code2, out_l, _ = run_cli(capsys, "l1approx", "--fn", "majority:n=3", "--d", "1")
    assert code == code2 == 0
    alpha = json.loads(out_r)["alpha"]
    delta = json.loads(out_l)["delta"]
    assert abs(alpha + delta - 1.0) <= 1e-6


def _as_lists(value):
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.names:
        return [dict(zip(value.dtype.names, row)) for row in value.tolist()]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _as_lists(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    return value


def _array(dtype, elements=None):
    return hnp.arrays(dtype, st.integers(0, 6), elements=elements)


_TRICKY_TEXT = st.sampled_from([
    "a, b", "line\nbreak", ",\n  ", "[1, 2]", "\"quoted\"", "},\n    {", "],\n  [", "}",
])
_SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | _TRICKY_TEXT


@st.composite
def _records(draw):
    """A 1-D structured array of int, float, bool and str fields."""
    kinds = {"i": (np.int64, st.integers(-(2**63), 2**63 - 1)),
             "f": (np.float64, st.floats(allow_nan=True, allow_infinity=True)),
             "b": (np.bool_, st.booleans()),
             "U": ("U8", st.sampled_from(["heavy", "", "a, b", "\n}", "],\n  ["]))}
    names = draw(st.lists(st.text(min_size=1, max_size=3) | _TRICKY_TEXT,
                          min_size=1, max_size=4, unique=True))
    fields = [(name, kinds[draw(st.sampled_from("ifbU"))]) for name in names]
    rows = draw(st.lists(st.tuples(*(values for _, (_, values) in fields)), max_size=5))
    return np.array(rows, dtype=[(name, dtype) for name, (dtype, _) in fields])


def _pooled(dtype, values):
    # few distinct entries, so a long enough table takes the distinct-value route
    return st.lists(values, min_size=1, max_size=3).flatmap(
        lambda pool: hnp.arrays(dtype, st.integers(0, 64), elements=st.sampled_from(pool))
    )


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    _TRICKY_TEXT,
    _array(np.float64, st.floats(allow_nan=True, allow_infinity=True)),
    _array(np.int64),
    _array(np.int8),
    _array(np.bool_),
    _pooled(np.float64, st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=True, allow_infinity=True)),
    _pooled(np.int64, st.integers(-(2**63), 2**63 - 1)),
    _pooled(np.int8, st.integers(-128, 127)),
    st.lists(st.dictionaries(st.text(max_size=3) | _TRICKY_TEXT, _SCALARS, max_size=3), max_size=4),
    _records(),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=4),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5) | _TRICKY_TEXT, children, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None)
@given(_PAYLOADS)
@example({"d": 1, "sweep": [
    {"tau": 0.1, "degenerate": False, "p_table": np.array([0.5, -np.inf, np.nan])},
    {"tau": 0.2, "note": "a, b\nc", "p_table": np.array([], dtype=np.float64)},
]})
@example(np.array([np.inf, -np.inf, np.nan, -0.0, 1e-300]))
@example({"grid": np.arange(6.0).reshape(2, 3), "empty": np.zeros((0, 2))})
@example(np.array([0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0]))
@example({"p_table": np.array([0.5, 0.5, np.nan, 0.5, 0.5, 0.5, 0.5, 0.5])})
@example([{}, {}])
@example([[], [1]])
@example([{"a": 1}])
@example({"rows": [{"s": "},\n    {", "t": "}"}, {"s": "],\n  [", "t": 2}], "pairs": [[1, "]"], ("[",)]})
@example(np.array([True, False, True, True, True, True, True, True]))
@example({"rows": np.array([("light", 3)], dtype=[("branch", "U8"), ("point", np.int64)])})
@example(np.zeros(0, dtype=[("a", np.int64)]))
@example([np.array([(1, 0.5), (2, np.nan)], dtype=[("i", np.int64), ("x", np.float64)])])
def test_json_writer_matches_indented_dumps(payload):
    # a non-finite float is not JSON: the writer refuses it as json.dumps does
    try:
        expected = json.dumps(_as_lists(payload), indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_chunks(payload, "", [])
        return
    chunks = []
    cli._json_chunks(payload, "", chunks)
    assert "".join(chunks) == expected


@pytest.fixture
def encoder_calls(monkeypatch):
    """Every value handed to `json.dumps` while the test runs."""
    calls = []
    real = json.dumps

    def dumps(value, **kwargs):
        calls.append(value)
        return real(value, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", dumps)
    return calls


def test_few_distinct_table_encodes_each_distinct_value_once(encoder_calls):
    table = np.random.default_rng(5).choice([0.25, -0.0, 0.0], 1 << 16)
    cli._json_chunks(table, "", [])
    assert [len(value) for value in encoder_calls] == [3]


@pytest.mark.parametrize("value", [0.0, -0.0, np.nan])
def test_one_valued_table_encodes_its_value_once_and_runs_no_unique(
    encoder_calls, monkeypatch, value
):
    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called on a one-valued table")

    monkeypatch.setattr(cli.np, "unique", no_unique)
    table = np.full(1 << 16, value)
    chunks = []
    if np.isnan(value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_chunks(table, "", chunks)
    else:
        cli._json_chunks(table, "", chunks)
    assert len(encoder_calls) == 1
    assert np.array_equal(encoder_calls, [value], equal_nan=True)
    assert math.copysign(1, encoder_calls[0]) == math.copysign(1, value)
    if not np.isnan(value):
        assert "".join(chunks) == json.dumps(table.tolist(), indent=2)


def test_one_negative_zero_the_sample_misses_keeps_the_unique_route(encoder_calls):
    table = np.zeros(1 << 16)
    table[5] = -0.0  # off the strided sample, which reads entries 0, 256, ...
    chunks = []
    cli._json_chunks(table, "", chunks)
    assert [len(value) for value in encoder_calls] == [2]
    assert "".join(chunks) == json.dumps(table.tolist(), indent=2)


def test_many_distinct_table_is_one_encoder_call(encoder_calls):
    table = np.random.default_rng(5).random(1 << 16)
    cli._json_chunks(table, "", [])
    assert encoder_calls == [table.tolist()]


def test_builder_records_are_one_encoder_call_per_column(capsys, encoder_calls):
    code, out, _ = run_cli(capsys, "cyclerun-build", "--n", "11")
    assert code == 0
    records = json.loads(out)["iterations"]
    columns = [[record[key] for record in records] for key in records[0]]
    lists = [value for value in encoder_calls if isinstance(value, list) and len(value) > 1]
    assert [value for value in lists if value in columns] == columns
    assert not any(isinstance(value, dict) and "sigma_before" in value for value in encoder_calls)
    assert not any(isinstance(value, list) and value and isinstance(value[0], dict)
                   for value in encoder_calls)


def test_structured_arrays_of_nested_records_are_written_as_lists():
    rows = np.zeros(2, dtype=[("pair", [("a", np.int64), ("b", np.int64)]), ("x", np.float64)])
    chunks = []
    cli._json_chunks({"rows": rows}, "", chunks)
    assert "".join(chunks) == json.dumps({"rows": rows.tolist()}, indent=2)


ARTIFACT_JOBS = [
    ("spectrum", "--fn", "majority:n=3"),
    ("stats", "--fn", "tribes:w=2,s=3", "--d", "1"),
    ("duality", "--fn", "tribes:w=2,s=3", "--d", "1"),
    ("resilience", "--fn", "majority:n=5", "--d", "1"),
    ("l1approx", "--fn", "majority:n=5", "--d", "1"),
    ("witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.3"),
    ("witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.2,0.3"),
    # p tables of 1 and 15 distinct values
    ("witness", "--fn", "tribes:w=3,s=4", "--d", "1", "--tau", "0.05,0.2"),
    ("cyclerun-build", "--n", "7"),
    # --c1 first: a test id is argv[:2], so this one differs from the line above
    ("cyclerun-build", "--c1", "8", "--n", "11"),
    ("amplify", "--fn", "majority:n=3", "--d", "1", "--k", "1"),
    ("design", "--n", "6", "--k", "3", "--d", "1"),
    ("ortho-family", "--fn", "parity:n=2,mask=0x3", "--n", "8", "--d", "1"),
    ("learn", "--fn", "parity:n=4,mask=0x7", "--d", "1"),
    ("learn", "--fn", "dictator:n=4,i=1", "--d", "1", "--m", "200", "--seed", "3"),
    ("ft-stats", "--n", "1000", "--t", "1.0"),
]


@pytest.mark.parametrize("argv", ARTIFACT_JOBS, ids=lambda argv: " ".join(argv[:2]))
def test_artifact_is_indented_json(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def _artifact_text(tmp_path, *argv):
    """The text `main` writes for argv, and argv's --out path."""
    out = str(tmp_path / "artifact.json")
    assert main([*argv, "--out", out]) == 0
    with open(out) as handle:
        return handle.read(), out


def _expected_text(payload, config):
    payload = {**payload, "config": config, "version": __version__}
    return json.dumps(payload, indent=2) + "\n"


def test_cyclerun_build_artifact_is_the_report_and_argv(tmp_path):
    text, out = _artifact_text(tmp_path, "cyclerun-build", "--n", "9")
    report = build_one_resilient(9, c1=8.0)
    assert audit_invariants(report).ok
    payload = {
        "n": 9,
        "c1": 8.0,
        "sigma_initial": report.sigma_initial,
        "sigma_final": report.sigma_final,
        "sbar_size": report.sbar_size,
        "sbar_prime_size": report.sbar_prime_size,
        "distance": report.distance,
        "budget_ratio": report.budget_ratio,
        "iterations": [
            {
                "index": i,
                "branch": branch,
                "point": point,
                "weight": weight,
                "orbit_size": orbit_size,
                "sigma_before": sigma_before,
                "sigma_after": sigma_after,
            }
            for i, (branch, point, weight, orbit_size, sigma_before, sigma_after)
            in enumerate(report.iterations.tolist())
        ],
        "audit_ok": True,
        "first_level_coefficients": [0] * 9,
    }
    config = {"command": "cyclerun-build", "n": 9, "c1": 8.0, "out": out, "format": "json"}
    assert text == _expected_text(payload, config)


@pytest.mark.parametrize("sampling", [(), ("--m", "200", "--seed", "3")], ids=["exact", "sampled"])
def test_learn_artifact_is_the_report_and_argv(tmp_path, sampling):
    text, out = _artifact_text(tmp_path, "learn", "--fn", "dictator:n=4,i=1", "--d", "1", *sampling)
    fn = dictator(1, 4)
    if sampling:
        report, m, seed = learn_sampled(fn, d=1, m=200, seed=3), 200, 3
    else:
        report, m, seed = learn_exact(fn, d=1), None, None
    payload = {
        "error": report.error,
        "regression_delta": report.regression_delta,
        "threshold": report.threshold,
        "empirical_error": report.empirical_error,
        "m": m,
        "seed": seed,
        "hypothesis_table": report.hypothesis.table.tolist(),
        "poly_coefficients": {hex(mask): c for mask, c in report.poly.coeffs.items()},
    }
    config = {"command": "learn", "fn": "dictator:n=4,i=1", "d": 1}
    if sampling:
        config |= {"m": 200, "seed": 3}
    config |= {"out": out, "format": "json"}
    assert text == _expected_text(payload, config)


def test_amplify_artifact_is_the_report_and_argv(tmp_path):
    text, out = _artifact_text(tmp_path, "amplify", "--fn", "majority:n=3", "--d", "1", "--k", "2")
    fn = majority(3)
    report = amplify.amplification_report(fn, distance_to_resilience(fn, 1).witness, k=2)
    payload = {
        "n": 3,
        "k": 2,
        "arity": report.arity,
        "dist_base": report.dist_base,
        "influence": report.influence,
        "cor2_bound": report.cor2_bound,
        "dist_measured": report.dist_measured,
        "exact": report.exact,
        "ci_width": report.ci_width,
        "ns_delta_exact": report.ns_delta_exact,
        "ns_union_bound": report.ns_union_bound,
    }
    config = {"command": "amplify", "fn": "majority:n=3", "d": 1, "k": 2, "out": out,
              "format": "json"}
    assert text == _expected_text(payload, config)


@pytest.mark.parametrize("bounded", [False, True], ids=["boolean", "bounded"])
def test_ortho_family_artifact_is_the_report_and_argv(tmp_path, bounded):
    base = parity(0b111, 3)
    if bounded:
        base = BoundedFunction(3, 0.5 * base.table)
    path = str(tmp_path / "base.tt")
    write_truth_table(base, path)
    spec = f"file:path={path}"
    text, out = _artifact_text(tmp_path, "ortho-family", "--fn", spec, "--n", "10", "--d", "1")
    design = greedy_design(10, 3, 1)
    report = orthogonal_family(base, design)
    payload = {
        "design_size": design.size,
        "sets": design.index_lists(),
        "max_offdiagonal": report.max_offdiagonal,
        "diagonal_value": report.diagonal_value,
        "exact_integer_arithmetic": not bounded,
    }
    config = {"command": "ortho-family", "fn": spec, "n": 10, "d": 1, "out": out,
              "format": "json"}
    assert text == _expected_text(payload, config)


def test_main_builds_one_parser_and_reuses_it(capsys, monkeypatch):
    sequence = [
        ("learn", "--fn", "dictator:n=4,i=1", "--d", "1", "--m", "300", "--seed", "1"),
        ("learn", "--fn", "dictator:n=4,i=1", "--d", "1"),
        ("witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.2,0.3", "--format", "csv"),
        ("witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.3"),
    ]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))

    real = cli.build_parser
    calls = []

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        reused = [run_cli(capsys, *argv) for argv in sequence]
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1
    assert reused == fresh
    assert all(code == 0 for code, _, _ in reused)
    exact_config = json.loads(reused[1][1])["config"]
    assert "m" not in exact_config and "seed" not in exact_config


@pytest.mark.parametrize("argv", [
    ("duality", "--fn", "majority:n=3", "--d", "1", "--tol", "nan"),
    ("duality", "--fn", "majority:n=3", "--d", "1", "--tol", "inf"),
    ("duality", "--fn", "majority:n=3", "--d", "1", "--tol=-1e-6"),
    ("cyclerun-build", "--n", "9", "--c1", "nan"),
    ("cyclerun-build", "--n", "9", "--c1", "inf"),
    ("ft-stats", "--n", "21", "--t", "nan"),
    ("ft-stats", "--n", "21", "--t", "inf"),
    ("ft-stats", "--n", "21", "--t", "1", "--factor", "nan"),
    ("ft-stats", "--n", "21", "--t", "1", "--factor", "0"),
    ("amplify", "--fn", "majority:n=3", "--d", "1", "--k", "2000"),
    ("amplify", "--fn", "dictator:n=2,i=1", "--d", "0", "--k", "20000"),
], ids=" ".join)
def test_flags_that_would_switch_off_a_check_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "precondition"


@pytest.mark.parametrize("argv", [
    ("learn", "--fn", "majority:n=3"),
    ("learn", "--fn", "majority:n=3", "--d", "abc"),
    ("learn", "--fn", "majority:n=3", "--d", "1", "--bogus"),
    ("learn", "--fn", "majority:n=3", "--d", "1", "--epsilon", "0.01"),
    ("learn", "--fn", "majority:n=3", "--d", "1", "--seed", "4"),
    ("no-such-command",),
    (),
], ids=["missing-d", "non-integer-d", "unknown-flag", "epsilon-removed",
        "seed-without-m", "unknown-subcommand", "no-subcommand"])
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "precondition"


@pytest.mark.parametrize("argv, code, detail", [
    (("stats", "--fn", "majority:n=3", "--format", "csv"), 1, "this subcommand has no CSV form"),
    (("ft-stats", "--n", "9", "--t", "0", "--format", "csv"), 1,
     "ft-stats writes CSV rows only for t > 0: at t = 0 there is no sandwich"),
    (("cyclerun-build", "--n", "9", "--c1", "1e-6"), 2,
     "|Sbar| = 2 exceeded budget 0.0 with sigma 1188"),
    (("witness", "--fn", "dictator:n=3,i=1", "--d", "1", "--tau", "0.5"), 1,
     "f itself has degree <= 1; no witness direction"),
    (("witness", "--fn", "majority:n=5", "--d", "5", "--tau", "0.5"), 1,
     "f itself has degree <= 5; no witness direction"),
    (("witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.1,,0.2"), 1,
     "--tau: '' is not a number"),
    (("witness", "--fn", "tribes:w=2,s=3", "--d", "1", "--tau", "0.1,x"), 1,
     "--tau: 'x' is not a number"),
    (("learn", "--fn", "majority:n=5", "--d", "1", "--m", "5", "--seed", "-1"), 1,
     "sample seed must be non-negative, got -1"),
], ids=["csv-without-csv-form", "ft-stats-csv-at-t-0", "cyclerun-build-budget-exhausted",
        "witness-of-a-dictator-at-d-1", "witness-at-d-equal-n", "witness-empty-tau-token",
        "witness-non-numeric-tau-token", "learn-negative-seed"])
def test_command_errors_report_their_exit_code_and_detail(capsys, argv, code, detail):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    kind = "precondition" if code == 1 else "invariant-violation"
    assert json.loads(err) == {"error": kind, "detail": detail}


def test_amplify_depth_is_capped_where_the_arity_guard_cannot_fire(capsys):
    # at n = 1 the arity 1^(k+1) has one digit at every depth k
    argv = ("amplify", "--fn", "majority:n=1", "--d", "0", "--k")
    code, out, _ = run_cli(capsys, *argv, str(amplify.MAX_DEPTH))
    assert code == 0
    assert json.loads(out)["k"] == amplify.MAX_DEPTH
    code, out, err = run_cli(capsys, *argv, str(amplify.MAX_DEPTH + 1))
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "precondition",
        "detail": f"amplification depth k={amplify.MAX_DEPTH + 1} exceeds "
                  f"MAX_DEPTH = {amplify.MAX_DEPTH}",
    }


@pytest.mark.parametrize("spec, balanced", [
    ("tribes:w=2,s=3", False),
    ("random:n=8,seed=3", False),
    ("random:n=8,seed=3,balanced=1", True),
    ("majority:n=7", True),
])
def test_resilience_duality_and_amplify_read_one_certificate(capsys, spec, balanced):
    artifacts = []
    for command in ("resilience", "duality"):
        code, out, _ = run_cli(capsys, command, "--fn", spec, "--d", "1")
        assert code == 0
        artifacts.append(json.loads(out))
    res, dual = artifacts
    assert res["alpha"] == dual["alpha"]
    assert (np.array(res["witness_table"], dtype=np.float64).tobytes()
            == np.array(dual["witness_table"], dtype=np.float64).tobytes())
    code, out, err = run_cli(capsys, "amplify", "--fn", spec, "--d", "1", "--k", "1")
    if balanced:
        assert code == 0
        assert json.loads(out)["dist_base"] == res["alpha"] / 2
    else:  # amplify solves the same LP, then rejects f as unbalanced
        assert (code, json.loads(err)["detail"]) == (
            1, "amplification needs balanced (mean-zero) inputs"
        )


@pytest.mark.parametrize("argv", [("--version",), ("--help",), ("learn", "--help")])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_amplify_help_hides_the_ignored_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["amplify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--k" in out
    assert "--m" not in out and "--seed" not in out
