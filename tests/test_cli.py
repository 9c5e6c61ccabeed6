import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zakgross import cli
from zakgross.cli import COMMANDS, main, parse_args, write_atomic
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


def test_run_exact_at_200_modes_reads_the_closed_form(tmp_path):
    # F(0) then SUM(0, i) for every i makes the GHZ state sum_j |j...j> / sqrt 3:
    # every measured triple agrees, each value with chance 1/3
    n = 200
    ops = [{"gate": "F", "modes": [0]}]
    ops += [{"gate": "SUM", "modes": [0, i]} for i in range(1, n)]
    cpath = circuit_file(tmp_path, n=n, inputs=[{"ideal_logical": 0}] * n, ops=ops,
                         measurement={"modes": [0, 57, 199], "K": 3})
    out = tmp_path / "result.json"
    assert main(["run", cpath, "--mode", "exact", "--out", str(out)]) == 0
    table = np.array(json.loads(out.read_text())["probabilities"])
    want = np.zeros((3, 3, 3))
    for j in range(3):
        want[j, j, j] = 1 / 3
    assert np.max(np.abs(table - want)) <= 1e-12


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


@pytest.mark.parametrize("mode", ["exact", "sample", "estimate"])
def test_density_with_a_negative_eigenvalue_is_a_schema_error(tmp_path, capsys, mode):
    rho = np.diag([1.5, -0.5, 0.0])  # Hermitian, unit trace, not positive
    cpath = circuit_file(tmp_path, inputs=[{"ideal_table": rho.tolist()}],
                         estimator={"epsilon": 0.1, "delta_fail": 0.1, "seed": 0})
    out = tmp_path / "result.json"
    assert main(["run", cpath, "--mode", mode, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "schema error: at $.inputs[0].ideal_table: rho is not positive semidefinite" in err
    assert not out.exists()


@pytest.mark.parametrize("gate, code", [("CZ", 0), ("F", 2)])
def test_exact_mode_on_a_realistic_circuit_needs_the_measured_positions_unmoved(
        tmp_path, capsys, gate, code):
    # CZ moves no position, so its exact table is the displacement-only one;
    # F on a measured squeezed mode refuses with the estimator hint
    inputs = [{"realistic": {"kind": "logical", "j": 0, "delta": 0.3}}] * 2
    ops = [{"gate": gate, "modes": [0, 1] if gate == "CZ" else [0]},
           {"gate": "displace", "c": [1, 0, 0, 0]}]
    cpath = circuit_file(tmp_path, n=2, inputs=inputs, ops=ops,
                         measurement={"modes": [0, 1], "K": 3})
    out = tmp_path / "result.json"
    assert main(["run", cpath, "--mode", "exact", "--out", str(out)]) == code
    if code:
        assert "estimator" in capsys.readouterr().err and not out.exists()
        return
    state = realistic_input(CodeParams(3, 2), [CodeState.logical(3, 0, 0.3)] * 2)
    want = quadrature_probabilities(state.apply_ops([(1, 0, 0, 0)]), MeasurementSpec((0, 1), 3))
    assert np.array_equal(np.array(json.loads(out.read_text())["probabilities"]), want)


def test_table_too_large_to_allocate_is_a_numeric_failure(tmp_path, capsys):
    cpath = circuit_file(tmp_path, n=2, inputs=[{"ideal_logical": 0}] * 2,
                         measurement={"modes": [0, 1], "K": 10 ** 8})
    out = tmp_path / "result.json"
    assert main(["run", cpath, "--mode", "exact", "--out", str(out)]) == 3
    assert "numeric failure: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, mode", [("ideal", "exact"), ("ideal", "sample"),
                                        ("ideal", "estimate"), ("realistic", "exact"),
                                        ("realistic", "estimate")])
def test_table_numpy_cannot_index_is_a_numeric_failure(tmp_path, capsys, kind, mode):
    # 1000^10 bins lie beyond numpy's largest array: refused before any table
    # is built (sample mode refuses a realistic input first, for its negativity)
    entry = {"ideal_logical": 0} if kind == "ideal" else {
        "realistic": {"kind": "logical", "j": 0, "delta": 0.5}}
    cpath = circuit_file(tmp_path, n=10, inputs=[entry] * 10,
                         measurement={"modes": list(range(10)), "K": 1000},
                         estimator={"epsilon": 0.1, "delta_fail": 0.1, "seed": 0})
    out = tmp_path / "result.json"
    assert main(["run", cpath, "--mode", mode, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: an outcome table of 1000^10 bins is too large to allocate" in err
    assert not out.exists()


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
    (["run", "c.json", "--seed", str(2 ** 64)], "--seed: must be an integer >= 0 and below 2^64"),
    (["run", "c.json", "--threads", "0"], "--threads: must be an integer >= 1"),
    (["run", "c.json", "--threads", "two"], "--threads: must be an integer >= 1"),
    (["run", "c.json", "--samples", "0"], "--samples: must be an integer >= 1"),
    (["run", "c.json", "--samples", "-3"], "--samples: must be an integer >= 1"),
], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
def test_out_of_range_integer_flags_are_usage_errors(argv, message, capsys):
    # refused before any work; a grid of 0 would otherwise write a header-only CSV
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("deltas", [",", " "])
def test_empty_delta_list_is_a_usage_error(deltas, capsys):
    # refused before any work, not a header-only CSV and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["negativity", "--deltas", deltas])
    assert exc.value.code == 2
    assert "--deltas: must list at least one value" in capsys.readouterr().err


def test_negative_schema_seed_exit_code(tmp_path, capsys):
    cpath = circuit_file(tmp_path, estimator={"epsilon": 0.1, "delta_fail": 0.1, "seed": -3})
    assert main(["run", cpath, "--mode", "estimate"]) == 2
    assert "schema error: at $.estimator.seed: must be a non-negative" in capsys.readouterr().err


def test_schema_seed_the_stream_cannot_key_exit_code(tmp_path, capsys):
    cpath = circuit_file(tmp_path, estimator={"epsilon": 0.1, "delta_fail": 0.1, "seed": 2 ** 64})
    assert main(["run", cpath, "--mode", "estimate"]) == 2
    err = capsys.readouterr().err
    assert "schema error: at $.estimator.seed: must be a non-negative integer below 2^64" in err


@pytest.mark.parametrize("j", ["7", "-1"])
def test_wigner_logical_index_out_of_range_exit_code(j, capsys):
    assert main(["wigner", "--delta", "0.5", "--j", j, "--grid", "3"]) == 2
    assert "logical index must be an integer in [0, 3)" in capsys.readouterr().err


def test_wigner_logical_index_with_the_phase_state_is_a_usage_error(tmp_path, capsys):
    for j in ("7", "0"):
        assert main(["wigner", "--kind", "phase_state", "--delta", "0.5", "--j", j,
                     "--grid", "3"]) == 2
        assert "--j applies only to --kind logical" in capsys.readouterr().err
    # logical without --j keeps j = 0
    outs = [tmp_path / "default.csv", tmp_path / "j0.csv"]
    for out, extra in zip(outs, ([], ["--j", "0"])):
        assert main(["wigner", "--delta", "0.5", "--grid", "3", "--out", str(out)] + extra) == 0
    assert outs[0].read_text() == outs[1].read_text()


def test_tiny_delta_is_a_numeric_failure(capsys):
    assert main(["wigner", "--delta", "1e-5", "--grid", "3"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_schema_error_outranks_a_series_overflow(tmp_path, capsys):
    tiny = {"realistic": {"kind": "logical", "j": 0, "delta": 0.001}}
    assert main(["run", circuit_file(tmp_path, inputs=[tiny])]) == 3
    assert "numeric failure" in capsys.readouterr().err
    bad = circuit_file(tmp_path, inputs=[tiny], measurement={"modes": [5], "K": 3})
    assert main(["run", bad]) == 2
    assert "schema error: at $.measurement.modes" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["negativity", "--d", "0", "--kind", "phase_state", "--deltas", "0.5"],
    ["wigner", "--d", "0", "--kind", "phase_state", "--delta", "0.5"],
    ["negativity", "--d", "-1", "--kind", "phase_state", "--deltas", "0.5"],
    ["wigner", "--d", "-1", "--kind", "phase_state", "--delta", "0.5"],
    ["negativity", "--d", "0", "--kind", "logical_0", "--deltas", "0.5"],
    ["wigner", "--d", "-1", "--kind", "logical", "--delta", "0.5"],
    ["negativity", "--d", "4", "--kind", "logical_0", "--deltas", "0.5"],
])
def test_bad_d_is_a_usage_error(argv, capsys):
    # checked before the state's coefficients are built from d
    assert main(argv) == 2
    assert "d must be odd and >= 3" in capsys.readouterr().err


def test_negativity_sweep_takes_every_delta_a_state_takes(capsys):
    # the sweep admits what CodeState and the schema admit, (0, 2)
    assert main(["negativity", "--d", "5", "--kind", "phase_state", "--deltas", "1.2,1.99"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["1.2", "1.99"]
    assert all(float(row[1]) > 1.0 for row in rows)
    assert main(["negativity", "--d", "5", "--deltas", "2"]) == 2
    assert "delta must lie in (0, 2)" in capsys.readouterr().err


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


def test_output_files_get_the_mode_open_would_leave(tmp_path):
    # an --out file gets the mode open(path, "w") would leave: a new one
    # 0o666 less the umask, a rewritten one its own permission bits
    def mode(path):
        return os.stat(path).st_mode & 0o777

    old = os.umask(0o022)
    try:
        out = tmp_path / "w.csv"
        assert main(["wigner", "--d", "3", "--kind", "logical", "--delta", "0.5",
                     "--grid", "3", "--out", str(out)]) == 0
        assert mode(out) == 0o644
        write_atomic(str(out), "again")
        assert mode(out) == 0o644 and out.read_text() == "again"
        out.chmod(0o600)
        write_atomic(str(out), "private")
        assert mode(out) == 0o600 and out.read_text() == "private"
        os.umask(0o077)
        shared = tmp_path / "shared.csv"
        shared.write_text("")
        shared.chmod(0o640)
        write_atomic(str(shared), "kept")
        assert mode(shared) == 0o640
        fresh = tmp_path / "fresh.csv"
        write_atomic(str(fresh), "new")
        assert mode(fresh) == 0o600
        long_name = tmp_path / ("x" * 240 + ".csv")  # the temp name does not grow with it
        write_atomic(str(long_name), "long")
        assert long_name.read_text() == "long"
        with pytest.raises(TypeError):
            write_atomic(str(out), None)  # fails mid-write: the target stays whole
        assert out.read_text() == "private"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(["w.csv", "shared.csv", "fresh.csv", long_name.name])
    finally:
        os.umask(old)


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


def test_cli_import_leaves_out_the_thread_pool(tmp_path):
    # concurrent.futures loads logging; no import and no run needs it, not
    # even a sample run of 200001 draws that asks for two threads
    code = "import sys, zakgross.cli\nprint('concurrent.futures' in sys.modules)\n"
    assert fresh_python(code) == "False"
    cpath = circuit_file(tmp_path)
    code = (
        "import sys, zakgross.cli\n"
        f"code = zakgross.cli.main(['run', {cpath!r}, '--mode', 'sample', '--samples', "
        f"'200001', '--threads', '2', '--out', {str(tmp_path / 's.json')!r}])\n"
        "print(code, 'concurrent.futures' in sys.modules)\n"
    )
    assert fresh_python(code) == "0 False"


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


def test_cli_import_leaves_numpy_random_unloaded(tmp_path):
    # importing numpy.random takes 10-16 ms, and no run needs it: every draw is SplitMix64's
    code = "import sys, zakgross.cli\nprint('numpy.random' in sys.modules)\n"
    assert fresh_python(code) == "False"
    squeezed = {"inputs": [{"realistic": {"kind": "phase_state", "delta": 0.5}}],
                "estimator": {"epsilon": 0.1, "delta_fail": 0.1, "seed": 3}}
    for mode, overrides in (("estimate", squeezed), ("sample", {})):
        cpath = circuit_file(tmp_path, **overrides)
        code = (
            "import sys, zakgross.cli\n"
            f"code = zakgross.cli.main(['run', {cpath!r}, '--mode', {mode!r}, "
            f"'--out', {str(tmp_path / (mode + '.json'))!r}])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        assert fresh_python(code) == "0 False", mode


def test_a_run_loads_no_argument_parser(tmp_path):
    # argparse and the gettext and locale modules it pulls in cost more than
    # a small exact run
    cpath = circuit_file(tmp_path)
    code = (
        "import sys, zakgross.cli\n"
        f"code = zakgross.cli.main(['run', {cpath!r}, '--mode', 'exact', "
        f"'--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n"
    )
    assert fresh_python(code) == "0 []"


def test_main_calls_the_command_the_module_holds_at_call_time(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_run", lambda args: seen.append(args.circuit) or 7)
    assert main(["run", "c.json"]) == 7
    assert seen == ["c.json"]


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_exits_zero_and_lists_every_flag(command, capsys):
    argv = ["-h"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: zakgross")
    names = COMMANDS if command is None else [*COMMANDS[command][1], *COMMANDS[command][2]]
    assert all(name in out for name in names)


@pytest.mark.parametrize("argv", [[], ["simulate"], ["run", "c.json", "--quiet"],
                                  ["run", "c.json", "extra.json"], ["wigner"],
                                  ["negativity", "--t", "1", "--deltas", "0.5"],
                                  ["run", "c.json", "--mode"], ["run", "c.json", "--mode", "fast"]],
                         ids=["empty", "command", "flag", "positional", "required", "ambiguous",
                              "value", "choice"])
def test_usage_errors_exit_two_with_a_usage_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: zakgross") and "error: " in err


def test_flag_forms_parse_as_argparse_did():
    assert parse_args(["run", "c.json", "--samples=5"]).samples == 5
    assert parse_args(["run", "--mode", "sample", "c.json", "--seed", "3"]).seed == 3
    # an exact match wins over a longer flag; a unique prefix names its flag
    wig = parse_args(["wigner", "--d", "5", "--del", "0.5"])
    assert (wig.d, wig.delta, wig.j, wig.grid) == (5, 0.5, None, 81)
    assert parse_args(["negativity", "--delta", "0.5,0.3"]).deltas == [0.5, 0.3]
    # a negative number is a value, and the last of repeated flags wins
    assert parse_args(["wigner", "--delta", "0.5", "--j", "-1", "--j", "2"]).j == 2


@pytest.mark.parametrize("raised, code", [(None, 0), (RuntimeError, 3), (KeyError, None)])
def test_main_leaves_the_collector_unfrozen(monkeypatch, raised, code):
    frozen = []

    def command(args):
        frozen.append(gc.get_freeze_count())
        if raised is not None:
            raise raised("boom")
        return 0

    monkeypatch.setattr(cli, "_cmd_verify", command)
    if code is None:
        with pytest.raises(raised):
            main(["verify"])
    else:
        assert main(["verify"]) == code
    assert frozen[0] > 0
    assert gc.isenabled() and gc.get_freeze_count() == 0


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
        assert r1["planned_samples"] > 100_000
        assert r1["probabilities"] == r2["probabilities"]
        assert r1["n_samples"] == r2["n_samples"]


def test_sample_threads_agree(tmp_path):
    # 200,001 draws span three seed streams; --threads selects nothing, so
    # both runs draw them in order in one thread
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
    rotated = realistic_input(CodeParams(d, 1), [phase]).apply_ops([Gate("F", (0,))])
    fourier = realistic_input(CodeParams(d, 1), [CodeState(d, delta, tuple(dft))])
    eta = np.random.default_rng(0).random((2000, 2)) * d * phase.ell
    assert np.allclose(rotated.evaluate(eta), fourier.evaluate(eta), rtol=0, atol=1e-9)
    spec = MeasurementSpec((0,), 3)
    table = quadrature_probabilities(fourier, spec)
    got = np.array(json.loads(out.read_text())["probabilities"])
    assert np.abs(got - table).max() <= 0.1
