"""Tests of the benchmark itself: generators, output checks and tracing.

    python3 -m pytest -q perfbench/tests
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def test_generators_are_deterministic_per_seed(tmp_path):
    assert wl.ideal_circuit(5) == wl.ideal_circuit(5)
    assert wl.ideal_circuit(5) != wl.ideal_circuit(6)
    assert wl.op_seed(3, 1) == wl.op_seed(3, 1)
    assert len({wl.op_seed(s, i) for s in range(3) for i in range(3)}) == 9
    assert [wl.ideal_variant(5, i) for i in range(5)] == [1, 2, 3, 0, 1]
    for workload in wl.WORKLOADS:
        texts = []
        for run in ("a", "b"):
            work = tmp_path / f"{workload}-{run}"
            work.mkdir()
            calls = wl.op_invocations(workload, 7, 2, str(work))
            texts.append([[p.name, p.read_text()] for p in sorted(work.iterdir())]
                         + [[str(a).replace(str(work), "") for a in argv] for argv, _ in calls])
        assert texts[0] == texts[1]


def test_ideal_circuit_shape():
    doc = wl.ideal_circuit(11)
    gates = [op for op in doc["ops"] if op["gate"] != "symplectic"]
    (sym,) = [op for op in doc["ops"] if op["gate"] == "symplectic"]
    assert len(gates) == wl.IDEAL_GATES and {op["gate"] for op in gates} <= set(wl.IDEAL_TAGS)
    s = np.array(sym["matrix"], dtype=object)
    n = wl.IDEAL_N
    omega = np.zeros((2 * n, 2 * n), dtype=object)
    omega[:n, n:] = np.eye(n, dtype=int)
    omega[n:, :n] = -np.eye(n, dtype=int)
    assert (s.T @ omega @ s == omega).all()
    twin = wl.twin_circuit(11)
    assert twin["n"] == wl.TWIN_N and len(twin["ops"]) == wl.TWIN_GATES
    long = wl.ideal_circuit(11, n=wl.TWIN_N, with_symplectic=False)
    assert twin["ops"] == long["ops"][:wl.TWIN_GATES] and twin["inputs"] == long["inputs"]


def test_ideal_check_rejects_corrupted_tables():
    recorded = np.full((3, 3, 3), 1 / 27)
    assert checks.check_ideal_table(recorded.copy(), recorded)[0]
    moved = recorded.copy()
    moved[0, 0, 0] += 1e-3
    moved[0, 0, 1] -= 1e-3
    assert not checks.check_ideal_table(moved, recorded)[0]
    negative = np.zeros((3, 3, 3))
    negative[0, 0, 0], negative[0, 0, 1] = 1.5, -0.5
    assert not checks.check_ideal_table(negative, negative)[0]
    assert not checks.check_ideal_table(recorded * 1.001, recorded * 1.001)[0]
    assert not checks.check_ideal_table(recorded, None)[0]


def test_twin_oracle_tables_are_not_uniform():
    # a uniform table is what a wrong gate or composition gives too
    for variant in range(wl.VARIANTS):
        oracle = checks.twin_oracle(variant)
        assert np.isclose(oracle.sum(), 1.0)
        assert np.count_nonzero(oracle > 1e-9) < oracle.size


def test_twin_check_rejects_a_wrong_table():
    for variant in range(wl.VARIANTS):
        oracle = checks.twin_oracle(variant)
        assert checks.check_twin(oracle.copy(), oracle)[0]
        # shifting one mode's outcome, as a wrong X or SUM would, moves the table
        moved = [np.roll(oracle, 1, axis=axis) for axis in range(oracle.ndim)]
        moved = [table for table in moved if not np.allclose(table, oracle)]
        assert moved and not any(checks.check_twin(table, oracle)[0] for table in moved)


def test_estimate_check_rejects_errors_beyond_epsilon():
    ref = np.full((3, 3, 3), 1 / 27)
    near = ref.copy()
    near[1, 2, 0] += 0.9 * wl.EPSILON
    assert checks.check_estimate(near, ref)[0]
    far = ref.copy()
    far[1, 2, 0] += 1.1 * wl.EPSILON
    assert not checks.check_estimate(far, ref)[0]


def test_sweep_check_rejects_corrupted_rows():
    recorded = checks.load_reference()["negativity-sweep"]
    assert checks.check_sweep(recorded, recorded)[0]

    def corrupt(kind, row, col, value):
        rows = json.loads(json.dumps(recorded))
        rows[kind][row][col] = value
        return rows

    last = len(recorded["logical_0"]) - 1
    assert not checks.check_sweep(corrupt("logical_0", last, 2, 3.2e-4), recorded)[0]
    assert not checks.check_sweep(corrupt("phase_state", last, 2, 0.385), recorded)[0]
    m = recorded["phase_state"][0][1]
    assert not checks.check_sweep(corrupt("phase_state", 0, 1, m + 1e-5), recorded)[0]
    assert not checks.check_sweep({"logical_0": recorded["logical_0"]}, recorded)[0]


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "name": "estimator.estimate", "start": 0.0, "end": 10.0,
         "samples": 100},
        {"id": 1, "parent": 0, "name": "wigner.sampler", "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "name": "wigner.draw", "start": 4.0, "end": 8.0,
         "accepted": 200, "factors": 2},
        {"id": 3, "parent": 2, "name": "wigner.factor_wigner", "start": 4.0, "end": 5.0,
         "points": 400},
    ]
    m = tracer.layer_metrics(spans)
    assert m["estimator.self_s"] == pytest.approx(4.0)
    assert m["estimator.samples_per_s"] == pytest.approx(10.0)
    assert m["wigner.acceptance"] == pytest.approx(0.5)
    assert m["wigner.accepted_per_s_per_factor"] == pytest.approx(25.0)
    assert m["theta.grid_points_per_s"] == 0.0


def test_traced_child_records_spans(tmp_path):
    doc = wl.ideal_circuit(2, n=3, with_symplectic=True)
    circ, out, spans = tmp_path / "c.json", tmp_path / "o.json", tmp_path / "s.jsonl"
    circ.write_text(json.dumps(doc))
    argv = ["run", str(circ), "--mode", "exact", "--out", str(out)]
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), ROOT,
                           json.dumps(argv), "op0", str(spans)],
                          capture_output=True, text=True, timeout=120)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["exit"] == 0 and record["s_entry_bits"] >= 1
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    metrics = tracer.layer_metrics(rows, record["s_entry_bits"])
    assert metrics["symplectic.gates"] == len(doc["ops"])
    assert metrics["wigner.support_points"] == 3 ** 3
    assert 0 < metrics["measure.exact_self_s"] < metrics["measure.exact_s"]
    assert metrics["cli.write_s"] > 0
    assert np.isclose(checks.read_table(str(out)).sum(), 1.0)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    ops = [{"traced": True, "exit": 0, "op_s": 1.0, "peak_rss_mb": 1.0,
            "calls": [{"spans": [], "s_entry_bits": 0}]}]
    for key, metrics in (("per_layer", run.per_layer(ops, [])),
                         ("end_to_end", run.end_to_end(ops, [0.1]))):
        assert sorted(m["name"] for m in spec[key]) == sorted(metrics)


def _op(exit_code=0, ok=True, traced=False, error_class=None, error=None):
    op = {"traced": traced, "exit": exit_code, "error_class": error_class, "error": error}
    if exit_code == 0:
        op["check"] = (ok, "")
    return op


ENVELOPE = dict(exit_code=3, error_class="RuntimeError",
                error="numeric failure: envelope violated by factor 1.054; increase the headroom")


def test_correctness_gate():
    assert run.is_correct("ideal-exact", [_op(), _op()], trace=False)
    assert not run.is_correct("ideal-exact", [_op(), _op(ok=False)], trace=False)
    assert not run.is_correct("ideal-exact", [_op(), _op(2, error_class="CircuitError")], False)
    assert not run.is_correct("negativity-sweep", [_op(), _op(**ENVELOPE)], trace=False)
    assert run.is_correct("realistic-estimate", [_op(), _op(**ENVELOPE)], trace=False)
    other = dict(ENVELOPE, error_class="TruncationOverflow", error="theta truncation overflow")
    assert not run.is_correct("realistic-estimate", [_op(), _op(**other)], trace=False)
    assert not run.is_correct("realistic-estimate", [_op(**ENVELOPE)], trace=False)
    assert not run.is_correct("ideal-exact", [], trace=False)
    assert not run.is_correct("ideal-exact", [_op(traced=True), _op(-1)], trace=True)
    assert run.is_correct("ideal-exact", [_op(traced=True), _op()], trace=True)


def test_a_seed_always_runs_the_same_ops(monkeypatch):
    # the op count is fixed in advance, so a slow or fast machine runs the
    # same ops and a seed's failed ops repeat
    def op(workload, seed, index, work, traced, wall):
        fails = workload == "realistic-estimate" and index == 1
        return {"index": index, "traced": traced, "exit": 3 if fails else 0, "wall_s": wall}

    for workload in wl.WORKLOADS:
        assert wl.op_count(workload, 0.0) == 2
        counts = set()
        for wall in (0.01, 1.0, 100.0):
            monkeypatch.setattr(run, "run_op", lambda *a, wall=wall, **k: op(*a, **k, wall=wall))
            for trace in (False, True):
                ops = run.timed_ops(workload, 1, 40.0, trace, "")
                counts.add((trace, len(ops)))
        # one count per trace setting, whatever the ops took; a traced run
        # may go on past op_count only to get a successful plain op
        assert len(counts) == 2 and (False, wl.op_count(workload, 40.0)) in counts


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_a_run_whose_ops_all_fail_is_incorrect(workload, tmp_path, monkeypatch):
    def crashed(extra):
        if not extra:
            return {"setup_s": 0.1, "maxrss_mb": 50.0}
        return {"setup_s": 0.1, "main_s": 0.5, "maxrss_mb": 50.0, "exit": 2,
                "error_class": "CircuitError", "error": "rejected"}

    monkeypatch.setattr(run, "run_child", crashed)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    units = run.metric_units()
    result = run.run_workload(workload, 1, 0.0, False, {}, checks.load_reference(), units, None)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == run.MAX_OPS_FOR_COVERAGE
    assert result["metrics"]["op_s"]["value"] == 0.0  # failed ops supply no timing
