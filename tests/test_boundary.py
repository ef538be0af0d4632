"""Inputs rejected at the boundary: non-finite tables and bounded targets
where the resilience identities need a +-1 function."""

import json

import numpy as np
import pytest

from boolres.cli import main
from boolres.duality import distance_to_resilience, l1_poly_distance
from boolres.hypercube import BoundedFunction
from boolres.witness import build_witness
from reference import SymmetricFunction, poly_table

NAN_TABLE = "n=2\nnan 0.5 0.1 1.0\n"


def _bounded(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return BoundedFunction(n, rng.uniform(-1.0, 1.0, 1 << n))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bounded_function_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        BoundedFunction(2, np.array([bad, 0.5, 0.1, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symmetric_function_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        SymmetricFunction(3, np.array([0.0, bad, 0.0, 0.0]))


def test_alpha_side_rejects_bounded_targets():
    f = _bounded()
    with pytest.raises(ValueError, match="Boolean"):
        distance_to_resilience(f, 1)
    with pytest.raises(ValueError, match="Boolean"):
        build_witness(f, 1, 0.1)


def test_l1_poly_distance_accepts_bounded_targets():
    for seed in range(5):
        f = _bounded(seed=seed)
        out = l1_poly_distance(f, 1)
        p = poly_table(out.poly, f.n)
        recomputed = float(np.mean(np.abs(f.table - p)))
        assert out.delta == pytest.approx(recomputed, abs=1e-12)


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


@pytest.mark.parametrize("command", [["stats"], ["learn", "--d", "1"]])
def test_cli_nan_table_is_a_precondition_failure(capsys, tmp_path, command):
    path = tmp_path / "nan.tt"
    path.write_text(NAN_TABLE)
    code, captured = _run(capsys, command[0], "--fn", f"file:path={path}", *command[1:])
    assert code == 1
    assert json.loads(captured.err)["error"] == "precondition"


@pytest.mark.parametrize(
    "command",
    [["resilience", "--d", "1"], ["duality", "--d", "1"], ["witness", "--d", "1", "--tau", "0.1"]],
)
def test_cli_bounded_target_is_a_precondition_failure(capsys, tmp_path, command):
    path = tmp_path / "bounded.tt"
    path.write_text("n=2\n0.5 -0.25 1.0 -1.0\n")
    code, captured = _run(capsys, command[0], "--fn", f"file:path={path}", *command[1:])
    assert code == 1
    assert json.loads(captured.err)["error"] == "precondition"


def test_cli_l1approx_on_bounded_target_succeeds(capsys, tmp_path):
    path = tmp_path / "bounded.tt"
    path.write_text("n=2\n0.5 -0.25 1.0 -1.0\n")
    code, captured = _run(capsys, "l1approx", "--fn", f"file:path={path}", "--d", "1")
    assert code == 0
    assert 0.0 <= json.loads(captured.out)["delta"] <= 2.0
