import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zakgross.cli import main, write_atomic
from zakgross.measure import MeasurementSpec, quadrature_probabilities
from zakgross.qudit import CodeParams, Gate
from zakgross.theta import CodeState
from zakgross.wigner import realistic_input


def circuit_file(tmp_path, **overrides):
    base = {
        "format": "zakgross-circuit/1",
        "d": 3,
        "n": 1,
        "inputs": [{"ideal_logical": 0}],
        "ops": [],
        "measurement": {"modes": [0], "K": 3},
    }
    base.update(overrides)
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(base))
    return str(path)


def test_run_exact_to_file(tmp_path):
    cpath = circuit_file(tmp_path)
    out = tmp_path / "result.json"
    rc = main(["run", cpath, "--mode", "exact", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["probabilities"] == [1.0, 0.0, 0.0]


def test_schema_error_exit_code(tmp_path, capsys):
    cpath = circuit_file(tmp_path, d=4)
    rc = main(["run", cpath])
    assert rc == 2
    assert "d must be odd" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_infeasible_plan_exit_code(tmp_path, capsys):
    cpath = circuit_file(
        tmp_path, estimator={"epsilon": 1e-5, "delta_fail": 0.05, "seed": 0}
    )
    rc = main(["run", cpath, "--mode", "estimate"])
    assert rc == 4
    assert "exceeds the cap" in capsys.readouterr().err


def test_non_lattice_displacement_exact_on_ideal_state(tmp_path):
    cpath = circuit_file(tmp_path, ops=[{"gate": "displace", "c": [0.3, 0.0]}])
    out = tmp_path / "result.json"
    rc = main(["run", cpath, "--mode", "exact", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["probabilities"] == [1.0, 0.0, 0.0]


def test_sample_mode_positivity_requirement(tmp_path, capsys):
    ket = np.array([1, 1, -1]) / np.sqrt(3)
    rho = np.outer(ket, ket)
    cpath = circuit_file(tmp_path, inputs=[{"ideal_table": rho.tolist()}])
    rc = main(["run", cpath, "--mode", "sample"])
    assert rc == 2
    assert "positive Wigner" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, literal", [
    ({"inputs": [{"ideal_table": [[0.5, 0, 0], [0, 0, 0], [0, 0, 1]]}]}, "NaN"),
    ({"ops": [{"gate": "displace", "c": [0.5, 0]}]}, "Infinity"),
    ({"ops": [{"gate": "displace", "c": [0.5, 0]}]}, "NaN"),
    ({"ops": [{"gate": "displace", "c": [0.5, 0]}]}, "1e400"),
    ({"ops": [{"gate": "displace", "c": [0.5, 0]}]}, "-1e400"),
], ids=["ideal_table_nan", "displace_inf", "displace_nan", "displace_overflow",
        "displace_negative_overflow"])
def test_non_finite_number_is_schema_error(tmp_path, capsys, overrides, literal):
    path = Path(circuit_file(tmp_path, **overrides))
    # the 0.5 placeholder becomes a literal json.dumps cannot write (1e400)
    path.write_text(path.read_text().replace("0.5", literal))
    rc = main(["run", str(path)])
    assert rc == 2
    assert "schema error: at $" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_tol_must_be_positive_and_finite(tol, capsys):
    # a usage error before any work, not a numeric failure after the escalation
    with pytest.raises(SystemExit) as exc:
        main(["negativity", "--deltas", "0.5", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol: must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "c.json", "--tol", "1e-6"],
    ["wigner", "--delta", "0.5", "--tol", "1e-6"],
    ["decompose", "m.json", "--tol", "1e-6"],
    ["verify", "--tol", "1e-6"],
    ["wigner", "--delta", "0.5", "--seed", "1"],
    ["negativity", "--deltas", "0.5", "--seed", "1"],
    ["decompose", "m.json", "--seed", "1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flags_a_command_ignores_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["wigner", "--delta", "0.5", "--grid", "0"], "--grid: must be an integer >= 1"),
    (["wigner", "--delta", "0.5", "--grid", "-4"], "--grid: must be an integer >= 1"),
    (["run", "c.json", "--seed", "-2"], "--seed: must be an integer >= 0"),
    (["verify", "--seed", "-2"], "--seed: must be an integer >= 0"),
    (["run", "c.json", "--threads", "0"], "--threads: must be an integer >= 1"),
    (["run", "c.json", "--threads", "two"], "--threads: must be an integer >= 1"),
], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
def test_out_of_range_integer_flags_are_usage_errors(argv, message, capsys):
    # refused before any work; a grid of 0 would otherwise write a header-only CSV
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_negative_schema_seed_exit_code(tmp_path, capsys):
    cpath = circuit_file(tmp_path, estimator={"epsilon": 0.1, "delta_fail": 0.1, "seed": -3})
    assert main(["run", cpath, "--mode", "estimate"]) == 2
    assert "schema error: at $.estimator.seed: must be a non-negative" in capsys.readouterr().err


def test_tiny_delta_is_a_numeric_failure(capsys):
    assert main(["wigner", "--delta", "1e-5", "--grid", "3"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_imaginary_series_residue_is_a_numeric_failure(monkeypatch, capsys):
    from zakgross import theta

    original = theta._class_weights

    def skewed(*args, **kwargs):
        return original(*args, **kwargs) * (1 + 0.1j)

    theta._series.cache_clear()
    monkeypatch.setattr(theta, "_class_weights", skewed)
    assert main(["wigner", "--delta", "0.3", "--grid", "3"]) == 3
    assert "numeric failure: Wigner series has imaginary residue" in capsys.readouterr().err


def test_sample_huge_lattice_entries_exit_code(tmp_path):
    a = 10**9
    matrix = [[1, a, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -a, 1]]
    cpath = circuit_file(
        tmp_path, n=2, inputs=[{"ideal_logical": 1}, {"ideal_logical": 2}],
        ops=[{"gate": "symplectic", "matrix": matrix}],
    )
    out = tmp_path / "result.json"
    rc = main(["run", cpath, "--mode", "sample", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["frequencies"] == [0.0, 0.0, 1.0]


def test_imprecise_realistic_push_is_a_numeric_failure(tmp_path, capsys):
    a = 10**12
    matrix = [[1, a, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -a, 1]]
    cpath = circuit_file(
        tmp_path, n=2,
        inputs=[{"ideal_logical": 1}, {"realistic": {"kind": "logical", "j": 0, "delta": 0.5}}],
        ops=[{"gate": "symplectic", "matrix": matrix}],
        estimator={"epsilon": 0.1, "delta_fail": 0.1, "seed": 1},
    )
    assert main(["run", cpath, "--mode", "estimate"]) == 3
    assert "numeric failure: float push of realistic columns" in capsys.readouterr().err


def test_decompose_refuses_booleans(tmp_path, capsys):
    mpath = tmp_path / "mat.json"
    mpath.write_text(json.dumps({"matrix": [[True, 0], [0, 1]]}))
    assert main(["decompose", str(mpath)]) == 2
    assert "not an integer" in capsys.readouterr().err


def test_negativity_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "negativity", "--d", "3", "--kind", "logical_0",
        "--deltas", "0.4,0.35", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "delta,negativity,log_negativity"
    assert len(lines) == 3


def test_decompose_roundtrip_via_cli(tmp_path):
    mat = [[1, 0, 0, 0], [2, 1, 0, 3], [3, 0, 1, -2], [0, 0, 0, 1]]
    mpath = tmp_path / "mat.json"
    mpath.write_text(json.dumps({"matrix": mat}))
    out = tmp_path / "word.json"
    rc = main(["decompose", str(mpath), "--out", str(out)])
    assert rc == 0
    word = json.loads(out.read_text())
    assert word["format"] == "zakgross-word/1"
    assert word["length"] == len(word["gates"])
    # recompose and compare
    from zakgross.qudit import CodeParams, Gate
    from zakgross.symplectic import word_symplectic

    gates = [Gate(g["gate"], tuple(g["modes"])) for g in word["gates"]]
    s = word_symplectic(gates, CodeParams(3, 2))
    assert np.array_equal(s.mat.astype(int), np.array(mat))


def test_decompose_rejects_non_symplectic(tmp_path, capsys):
    mpath = tmp_path / "mat.json"
    mpath.write_text(json.dumps({"matrix": [[1, 1], [1, 1]]}))
    rc = main(["decompose", str(mpath)])
    assert rc == 2
    assert "matrix" in capsys.readouterr().err


def test_wigner_csv_shape(tmp_path):
    out = tmp_path / "w.csv"
    rc = main([
        "wigner", "--d", "3", "--kind", "phase_state", "--delta", "0.4",
        "--grid", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "eta_x,eta_z,wigner"
    assert len(lines) == 26
    vals = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert (vals < 0).any()  # phase state shows negativity somewhere


def test_write_atomic_no_partial(tmp_path):
    target = tmp_path / "x.txt"
    write_atomic(str(target), "hello")
    assert target.read_text() == "hello"
    write_atomic(str(target), "replaced")
    assert target.read_text() == "replaced"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_verify_passes(capsys):
    rc = main(["verify", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 6
    assert "FAIL" not in out


def test_verify_writes_out_file(tmp_path):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert sum(line.startswith("[PASS]") for line in lines) == 6


def fresh_python(code):
    """Stdout of `code` run in a new interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_runtime_imports_no_oracles():
    # the CLI and every runtime module load without the brute-force oracles
    code = (
        "import importlib, pkgutil, sys, zakgross, zakgross.cli\n"
        "for mod in pkgutil.iter_modules(zakgross.__path__):\n"
        "    if mod.name != 'oracles':\n"
        "        importlib.import_module('zakgross.' + mod.name)\n"
        "print('zakgross.oracles' in sys.modules)\n"
    )
    assert fresh_python(code) == "False"


def test_cli_import_leaves_quadrature_unloaded():
    code = "import sys, zakgross.cli\nprint('zakgross.quadrature' in sys.modules)\n"
    assert fresh_python(code) == "False"


def test_estimate_threads_agree(tmp_path):
    ideal = [{"ideal_logical": 0}, {"ideal_logical": 1}]
    realistic = [{"realistic": {"kind": "phase_state", "delta": 0.5}}, {"ideal_logical": 1}]
    # each epsilon is small enough that the plan spans several sample streams
    for inputs, epsilon in ((ideal, 0.005), (realistic, 0.008)):
        cpath = circuit_file(
            tmp_path,
            n=2,
            inputs=inputs,
            ops=[{"gate": "F", "modes": [0]}, {"gate": "CZ", "modes": [0, 1]}],
            measurement={"modes": [0, 1], "K": 3},
            estimator={"epsilon": epsilon, "delta_fail": 0.2, "seed": 8},
        )
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["run", cpath, "--mode", "estimate", "--out", str(out1)]) == 0
        assert main([
            "run", cpath, "--mode", "estimate", "--threads", "4", "--out", str(out2),
        ]) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["n_samples"] > 100_000
        assert r1["probabilities"] == r2["probabilities"]


def test_sample_threads_agree(tmp_path):
    # 200,001 draws span three seed streams, so --threads 2 runs a pool
    cpath = circuit_file(
        tmp_path,
        n=2,
        inputs=[{"ideal_logical": 0}, {"ideal_logical": 1}],
        ops=[{"gate": "F", "modes": [0]}, {"gate": "SUM", "modes": [0, 1]}],
        measurement={"modes": [0, 1], "K": 3},
    )
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"s{threads}.json"
        assert main([
            "run", cpath, "--mode", "sample", "--samples", "200001", "--seed", "5",
            "--threads", threads, "--out", str(out),
        ]) == 0
        docs.append(out.read_text())
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["n_samples"] == 200_001


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sharp_phase_state_estimate_after_fourier(tmp_path, seed):
    # F acts on the phase state at delta = 0.05 as the qudit DFT of its
    # coefficients, up to terms of order exp(-1 / delta^2): the estimate's
    # closed-form table is the DFT state's position marginal
    d, delta = 3, 0.05
    cpath = circuit_file(
        tmp_path,
        inputs=[{"realistic": {"kind": "phase_state", "delta": delta}}],
        ops=[{"gate": "F", "modes": [0]}],
        estimator={"epsilon": 0.1, "delta_fail": 0.2, "seed": seed},
    )
    out = tmp_path / "r.json"
    assert main(["run", cpath, "--mode", "estimate", "--out", str(out)]) == 0
    phase = CodeState.phase_state(d, delta)
    dft = np.exp(2j * np.pi * np.outer(range(d), range(d)) / d) / np.sqrt(d) @ np.array(phase.eps)
    rotated = realistic_input(CodeParams(d, 1), [phase]).apply_gate(Gate("F", (0,)))
    fourier = realistic_input(CodeParams(d, 1), [CodeState(d, delta, tuple(dft))])
    eta = np.random.default_rng(0).random((2000, 2)) * d * phase.ell
    assert np.allclose(rotated.evaluate(eta), fourier.evaluate(eta), rtol=0, atol=1e-9)
    spec = MeasurementSpec((0,), 3)
    table = quadrature_probabilities(fourier, spec)
    got = np.array(json.loads(out.read_text())["probabilities"])
    assert np.abs(got - table).max() <= 0.1
