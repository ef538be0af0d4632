import dataclasses
import json

import pytest

from boolres import cli
from boolres.cli import main, parse_function_spec
from boolres.hypercube import write_truth_table
from boolres.zoo import majority, tribes


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


def test_learn_cli_rejects_zero_samples(capsys):
    code, _, err = run_cli(
        capsys, "learn", "--fn", "dictator:n=4,i=1", "--d", "1", "--m", "0", "--seed", "9"
    )
    assert code == 1
    assert "m must be positive" in err


def test_ft_stats_cli(capsys):
    code, out, _ = run_cli(capsys, "ft-stats", "--n", "1000", "--t", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["sandwich"]["standard_phi"]["influence_pass"] is True
    assert payload["sandwich"]["printed_phi"]["influence_pass"] is False


def test_amplify_cli(capsys):
    code, out, _ = run_cli(capsys, "amplify", "--fn", "majority:n=3", "--d", "1", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["dist_measured"] <= payload["cor2_bound"] + 1e-9


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
    real = cli.duality_certificate
    monkeypatch.setattr(
        cli, "duality_certificate",
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
