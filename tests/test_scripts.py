"""The command-line scripts under scripts/ run against the current API."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_script_runs(capsys):
    calib = load("estimator_calibration")
    assert calib.main(["--seeds", "5", "--epsilon", "0.2", "--delta-fail", "0.3"]) == 0
    # ceil(2 ln(2 / 0.15) / 0.2^2) samples for the positive calibration
    # circuit, under one block, so seed 0 draws the whole plan
    assert "# plan: 130 samples per seed, 130 drawn at seed 0 (M = 1.000000)" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--seeds"])
@pytest.mark.parametrize("value", ["0", "-2", "1.5"])
def test_calibration_script_refuses_counts_below_one(flag, value):
    with pytest.raises(SystemExit) as exc:
        load("estimator_calibration").main([flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--epsilon", "--delta-fail"])
@pytest.mark.parametrize("value", ["2", "1", "0", "-0.1", "nan"])
def test_calibration_script_refuses_rates_outside_the_open_unit_interval(flag, value, capsys):
    # exit 1 means a failure rate above the bound, so a bad rate must not end there
    with pytest.raises(SystemExit) as exc:
        load("estimator_calibration").main([flag, value])
    assert exc.value.code == 2
    assert f"{flag}: must lie in (0, 1)" in capsys.readouterr().err


def test_paper_regime_script_writes_a_circuit_that_parses(tmp_path):
    from zakgross.circuit_io import parse_circuit
    from zakgross.wigner import RealisticFactor

    out = tmp_path / "circuit.json"
    assert load("paper_regime").main(["--out", str(out)]) == 0
    spec = parse_circuit(out.read_text())
    assert spec.params.n == 50 and len(spec.ops) == 500
    assert all(isinstance(f, RealisticFactor) for f in spec.inputs)
    assert [f.state.delta for f in spec.inputs] == [0.01] * 50
    assert spec.measurement.measured_modes == (0, 1, 2) and spec.measurement.K == 3
    assert spec.estimator == {"epsilon": 0.02, "delta_fail": 0.05, "seed": 1}
