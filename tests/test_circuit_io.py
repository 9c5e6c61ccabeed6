import json

import numpy as np
import pytest

from zakgross import circuit_io, wigner
from zakgross.circuit_io import (
    SchemaError,
    build_state,
    negativity_sweep,
    parse_circuit,
    run,
    sweep_csv,
)
from zakgross.estimator import MAX_SAMPLES, InfeasiblePlan
from zakgross.measure import ImprecisePush, exact_probabilities
from zakgross.qudit import CodeParams, Gate, clifford_oracle_probabilities
from zakgross.symplectic import IntSymplectic
from zakgross.theta import CodeState, TruncationOverflow
from zakgross.wigner import IdealFactor, RealisticFactor


def doc(**overrides):
    base = {
        "format": "zakgross-circuit/1",
        "d": 3,
        "n": 1,
        "inputs": [{"ideal_logical": 0}],
        "ops": [],
        "measurement": {"modes": [0], "K": 3},
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_minimal():
    spec = parse_circuit(doc())
    assert spec.params.d == 3 and spec.params.n == 1
    (factor,) = spec.inputs
    assert np.array_equal(factor.table, IdealFactor.logical(3, 0).table)
    assert spec.measurement.K == 3
    assert spec.estimator is None


def test_even_d_message():
    with pytest.raises(SchemaError) as exc:
        parse_circuit(doc(d=4))
    assert any("d must be odd" in e for e in exc.value.errors)


def test_non_symplectic_matrix_reports_path():
    bad = doc(ops=[{"gate": "symplectic", "matrix": [[1, 1], [1, 1]]}])
    with pytest.raises(SchemaError) as exc:
        parse_circuit(bad)
    assert any("$.ops[0].matrix" in e for e in exc.value.errors)


@pytest.mark.parametrize("modes", [[0, 0], [0], [-1, 1], [0, 2], "01", None],
                         ids=["repeated", "count", "negative", "range", "string", "missing"])
def test_every_gate_mode_error_is_reported_at_the_modes(modes):
    bad = doc(n=2, inputs=[{"ideal_logical": 0}] * 2, ops=[{"gate": "SUM", "modes": modes}])
    with pytest.raises(SchemaError) as info:
        parse_circuit(bad)
    assert [e.split(":")[0] for e in info.value.errors] == ["at $.ops[0].modes"]


def test_a_repeated_gate_is_one_object_and_true_is_not_a_mode():
    # each distinct (tag, modes) is validated once; [true] equals [1] in
    # Python but is no mode, and is refused where it occurs
    ops = [{"gate": "F", "modes": [1]}, {"gate": "SUM", "modes": [0, 1]},
           {"gate": "F", "modes": [1]}, {"gate": "F", "modes": [True]},
           {"gate": "F", "modes": [1]}]
    two = dict(n=2, inputs=[{"ideal_logical": 0}] * 2)
    spec = parse_circuit(doc(**two, ops=ops[:3] + ops[4:]))
    assert spec.ops[0] is spec.ops[2] is spec.ops[3] == Gate("F", (1,))
    with pytest.raises(SchemaError) as info:
        parse_circuit(doc(**two, ops=ops))
    assert [e.split(":")[0] for e in info.value.errors] == ["at $.ops[3].modes"]


def test_a_repeated_out_of_range_gate_is_reported_at_every_occurrence():
    ops = [{"gate": "F", "modes": [4]}, {"gate": "F", "modes": [0]},
           {"gate": "F", "modes": [4]}, {"gate": "F", "modes": [4]}]
    with pytest.raises(SchemaError) as info:
        parse_circuit(doc(ops=ops))
    assert [e.split(":")[0] for e in info.value.errors] == [
        "at $.ops[0].modes", "at $.ops[2].modes", "at $.ops[3].modes"]


def test_multiple_errors_collected():
    bad = doc(d=4, ops=[{"gate": "Q", "modes": [0]}], measurement={"modes": [5], "K": 3})
    with pytest.raises(SchemaError) as exc:
        parse_circuit(bad)
    text = "\n".join(exc.value.errors)
    assert "d must be odd" in text
    assert "unknown gate tag 'Q'" in text
    assert "$.measurement.modes" in text


UNKNOWN_KEY_CASES = {
    "top": ({"comment": "x"}, "$.comment"),
    "realistic": ({"inputs": [{"realistic": {"kind": "phase_state", "delta": 0.5, "eps": 0.1}}]},
                  "$.inputs[0].realistic.eps"),
    "op": ({"ops": [{"gate": "F", "modes": [0], "power": 2}]}, "$.ops[0].power"),
    # each op tag takes one field besides gate: another tag's field is unknown
    "op-field": ({"ops": [{"gate": "displace", "c": [0, 0], "modes": [0]}]}, "$.ops[0].modes"),
    "measurement": ({"measurement": {"modes": [0], "K": 3, "basis": "z"}}, "$.measurement.basis"),
    "estimator": ({"estimator": {"epsilon": 0.05, "delta_fail": 0.1, "sed": 7}},
                  "$.estimator.sed"),
}


@pytest.mark.parametrize("overrides, path", UNKNOWN_KEY_CASES.values(), ids=UNKNOWN_KEY_CASES)
def test_an_unknown_key_is_reported_at_its_path(overrides, path):
    with pytest.raises(SchemaError) as info:
        parse_circuit(doc(**overrides))
    assert [e.split(":")[0] for e in info.value.errors] == [f"at {path}"]
    assert "unknown key" in info.value.errors[0]


def test_a_gate_tag_that_is_not_a_string_is_a_schema_error():
    with pytest.raises(SchemaError, match=r"at \$\.ops\[0\]\.gate: must be a string"):
        parse_circuit(doc(ops=[{"gate": ["F"], "modes": [0]}]))


def test_invalid_json_reports_position():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_circuit("{nope")


def test_ideal_table_input_roundtrips():
    rho = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    spec = parse_circuit(doc(inputs=[{"ideal_table": rho}]))
    state = build_state(spec)
    p = exact_probabilities(state, spec.measurement)
    assert np.allclose(p, [0, 1, 0], atol=1e-12)


def test_ideal_table_rejects_non_density():
    rho = [[1, 1, 0], [0, 0, 0], [0, 0, 0]]  # not hermitian
    with pytest.raises(SchemaError, match="ideal_table"):
        parse_circuit(doc(inputs=[{"ideal_table": rho}]))


def test_complex_entries_as_pairs():
    rho = [
        [0.5, [0, -0.5], 0],
        [[0, 0.5], 0.5, 0],
        [0, 0, 0],
    ]
    spec = parse_circuit(doc(inputs=[{"ideal_table": rho}]))
    (factor,) = spec.inputs
    want = np.array([[0.5, -0.5j, 0], [0.5j, 0.5, 0], [0, 0, 0]])
    assert np.array_equal(
        factor.table, IdealFactor.from_density_matrix(CodeParams(3, 1), want).table
    )


def test_realistic_inputs_parse():
    spec = parse_circuit(
        doc(
            n=2,
            inputs=[
                {"realistic": {"kind": "logical", "j": 1, "delta": 0.3}},
                {"realistic": {"kind": "phase_state", "delta": 0.25}},
            ],
            measurement={"modes": [0, 1], "K": 3},
        )
    )
    assert all(isinstance(f, RealisticFactor) for f in spec.inputs)
    assert spec.inputs[0].state == CodeState.logical(3, 1, 0.3)
    assert spec.inputs[1].state == CodeState.phase_state(3, 0.25)


def test_realistic_validation():
    with pytest.raises(SchemaError, match="delta"):
        parse_circuit(doc(inputs=[{"realistic": {"kind": "logical", "j": 0, "delta": 3}}]))
    with pytest.raises(SchemaError, match="kind"):
        parse_circuit(doc(inputs=[{"realistic": {"kind": "magic", "delta": 0.3}}]))
    with pytest.raises(SchemaError, match=r"\.j"):
        parse_circuit(doc(inputs=[{"realistic": {"kind": "logical", "j": 7, "delta": 0.3}}]))


@pytest.mark.parametrize("j", [2, 0])
def test_phase_state_refuses_a_logical_index(j):
    bad = {"realistic": {"kind": "phase_state", "delta": 0.3, "j": j}}
    with pytest.raises(SchemaError) as info:
        parse_circuit(doc(inputs=[bad]))
    assert info.value.errors == ["at $.inputs[0].realistic.j: applies only to kind 'logical'"]


def test_ideal_table_builds_its_wigner_table_once(monkeypatch):
    calls = []
    real = wigner.gross_wigner_table

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wigner, "gross_wigner_table", counted)
    rho = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    build_state(parse_circuit(doc(inputs=[{"ideal_table": rho}])))
    assert len(calls) == 1


def test_no_series_is_built_before_the_document_is_valid():
    tiny = {"realistic": {"kind": "logical", "j": 0, "delta": 0.001}}
    with pytest.raises(TruncationOverflow):
        RealisticFactor(CodeState.logical(3, 0, 0.001))
    with pytest.raises(TruncationOverflow):
        parse_circuit(doc(inputs=[tiny]))
    with pytest.raises(SchemaError) as info:
        parse_circuit(doc(inputs=[tiny], measurement={"modes": [5], "K": 3}))
    assert info.value.errors == ["at $.measurement.modes: mode indices must lie in [0, 1)"]


def test_roundtrip_full_document():
    text = doc(
        n=2,
        inputs=[{"ideal_logical": 2}, {"ideal_logical": 0}],
        ops=[
            {"gate": "F", "modes": [0]},
            {"gate": "SUM", "modes": [0, 1]},
            {"gate": "symplectic", "matrix": np.eye(4, dtype=int).tolist()},
            {"gate": "displace", "c": [1, 0, 0.5, 2]},
        ],
        measurement={"modes": [0, 1], "K": 6},
        estimator={"epsilon": 0.05, "delta_fail": 0.1, "seed": 9},
    )
    spec = parse_circuit(text)
    assert [type(op) for op in spec.ops] == [Gate, Gate, IntSymplectic, tuple]
    assert spec.ops[3] == (1, 0, 0.5, 2)
    assert spec.measurement.K == 6
    assert spec.estimator == {"epsilon": 0.05, "delta_fail": 0.1, "seed": 9}


def test_run_exact_matches_oracle():
    text = doc(
        n=2,
        inputs=[{"ideal_logical": 0}, {"ideal_logical": 0}],
        ops=[{"gate": "F", "modes": [0]}, {"gate": "SUM", "modes": [0, 1]}],
        measurement={"modes": [0, 1], "K": 3},
    )
    result = run(parse_circuit(text), "exact")
    params = CodeParams(3, 2)
    oracle = clifford_oracle_probabilities(
        params, [0, 0], [Gate("F", (0,)), Gate("SUM", (0, 1))], (0, 1)
    )
    assert np.max(np.abs(np.array(result["probabilities"]) - oracle)) < 1e-12
    assert result["mode"] == "exact" and result["format"] == "zakgross-result/1"


def test_run_sample_frequencies_near_exact():
    text = doc(
        n=2,
        inputs=[{"ideal_logical": 0}, {"ideal_logical": 0}],
        ops=[{"gate": "F", "modes": [0]}, {"gate": "SUM", "modes": [0, 1]}],
        measurement={"modes": [0, 1], "K": 3},
    )
    spec = parse_circuit(text)
    result = run(spec, "sample", seed=4, n_samples=10_000)
    freqs = np.array(result["frequencies"])
    exact = exact_probabilities(build_state(spec), spec.measurement)
    sigma = np.sqrt(exact * (1 - exact) / 10_000)
    assert np.all(np.abs(freqs - exact) <= 3.5 * sigma + 1e-9)
    assert len(result["outcomes"]) == 10_000


def test_run_sample_rejects_negative_input():
    ket = np.array([1, 1, -1]) / np.sqrt(3)
    rho = np.outer(ket, ket)
    text = doc(inputs=[{"ideal_table": rho.tolist()}])
    with pytest.raises(ValueError, match="positive Wigner"):
        run(parse_circuit(text), "sample")


def test_run_estimate_uses_plan():
    text = doc(estimator={"epsilon": 0.1, "delta_fail": 0.2, "seed": 5})
    result = run(parse_circuit(text), "estimate")
    # ceil(200 ln 20), under one block, so the whole plan is drawn
    assert result["n_samples"] == result["planned_samples"] == 600
    assert abs(result["probabilities"][0] - 1.0) <= 0.1
    assert result["seed"] == 5


def test_run_estimate_needs_estimator_section():
    with pytest.raises(ValueError, match="estimator"):
        run(parse_circuit(doc()), "estimate")


def test_run_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        run(parse_circuit(doc()), "weak")


def test_displacement_op_applies():
    text = doc(
        inputs=[{"ideal_logical": 1}],
        ops=[{"gate": "displace", "c": [1, 0]}],
    )
    result = run(parse_circuit(text), "exact")
    assert np.allclose(result["probabilities"], [0, 0, 1], atol=1e-12)


def test_negativity_sweep_rows_and_csv():
    rows = negativity_sweep("logical_0", [0.4, 0.3], 3)
    assert len(rows) == 2
    assert rows[0][0] == 0.4
    assert rows[0][1] > rows[1][1] > 1.0  # less squeezing, more negativity
    csv = sweep_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "delta,negativity,log_negativity"
    assert len(lines) == 3
    with pytest.raises(ValueError, match="kind"):
        negativity_sweep("vacuum", [0.3], 3)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 2\)"):  # CodeState's range
        negativity_sweep("logical_0", [2.0], 3)


# d=3, K=3, mode 0: this word lands every lattice draw on a multiple of the
# period, the edge that opens bin 0, and one in nine a rounding error
# (-4.4e-16) below it
EDGE_INPUTS = [{"ideal_logical": 1}, {"ideal_logical": 2}]
EDGE_OPS = [
    {"gate": g, "modes": m}
    for g, m in (("SUM", [1, 0]), ("F", [1]), ("SUM", [1, 0]), ("P", [0]),
                 ("SUM", [0, 1]), ("SUM", [1, 0]))
]


def shear_doc(a):
    matrix = [[1, a, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -a, 1]]
    return doc(n=2, inputs=EDGE_INPUTS, ops=[{"gate": "symplectic", "matrix": matrix}])


def test_sample_mode_bins_edge_points_exactly():
    spec = parse_circuit(doc(n=2, inputs=EDGE_INPUTS, ops=EDGE_OPS))
    assert run(spec, "exact")["probabilities"] == pytest.approx([1, 0, 0], abs=1e-12)
    result = run(spec, "sample", seed=3, n_samples=20_000)
    assert result["frequencies"] == [1.0, 0.0, 0.0]


def test_mixed_estimate_bins_edge_points_exactly():
    squeezed = {"realistic": {"kind": "logical", "j": 0, "delta": 0.5}}
    est = {"epsilon": 0.01, "delta_fail": 0.1, "seed": 1}
    spec = parse_circuit(
        doc(n=3, inputs=EDGE_INPUTS + [squeezed], ops=EDGE_OPS, estimator=est)
    )
    result = run(spec, "estimate")
    assert (result["n_samples"], result["planned_samples"]) == (36_864, 98_466)
    assert np.max(np.abs(np.array(result["probabilities"]) - [1, 0, 0])) <= 0.01


def test_sample_mode_refuses_an_infeasible_count_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("sample_blocks was called")

    monkeypatch.setattr(circuit_io, "sample_blocks", no_draws)
    with pytest.raises(InfeasiblePlan, match=f"exceeds the cap {MAX_SAMPLES}"):
        run(parse_circuit(doc()), "sample", n_samples=MAX_SAMPLES + 1)


def test_sample_mode_large_entries_bin_within_tolerance():
    spec = parse_circuit(shear_doc(10**5))
    assert run(spec, "exact")["probabilities"] == pytest.approx([0, 0, 1], abs=1e-12)
    result = run(spec, "sample", seed=3, n_samples=20_000)
    assert result["frequencies"] == [0.0, 0.0, 1.0]


def test_sample_mode_bins_huge_lattice_entries_exactly():
    spec = parse_circuit(shear_doc(10**9))
    assert run(spec, "exact")["probabilities"] == pytest.approx([0, 0, 1], abs=1e-12)
    result = run(spec, "sample", seed=3, n_samples=1_000)
    assert result["frequencies"] == [0.0, 0.0, 1.0]


def test_estimate_bins_huge_lattice_entries_exactly():
    a = 10**9
    matrix = np.eye(6, dtype=int)
    matrix[0, 1], matrix[4, 3] = a, -a
    squeezed = {"realistic": {"kind": "logical", "j": 0, "delta": 0.5}}
    est = {"epsilon": 0.01, "delta_fail": 0.1, "seed": 1}
    spec = parse_circuit(
        doc(
            n=3,
            inputs=EDGE_INPUTS + [squeezed],
            ops=[{"gate": "symplectic", "matrix": matrix.tolist()}],
            estimator=est,
        )
    )

    result = run(spec, "estimate")
    assert np.max(np.abs(np.array(result["probabilities"]) - [0, 0, 1])) <= 0.01


def test_mixed_row_with_huge_lattice_entry_bins_exactly():
    # the shear adds a * (ideal x1) to the squeezed x0; a = 1e15 and 4e15 are
    # 1 mod 3 like a = 1, so all three give the same true table
    tables = []
    for a in (1, 10**15, 4 * 10**15):
        matrix = [[1, a, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -a, 1]]
        spec = parse_circuit(doc(
            n=2,
            inputs=[{"realistic": {"kind": "logical", "j": 0, "delta": 0.5}},
                    {"ideal_logical": 1}],
            ops=[{"gate": "symplectic", "matrix": matrix}],
            estimator={"epsilon": 0.02, "delta_fail": 0.1, "seed": 1},
        ))
        tables.append(run(spec, "estimate")["probabilities"])
    assert tables[1] == tables[0] and tables[2] == tables[0]


def _swapped_shear(a):
    # the shear adds -a * (squeezed x1) to the measured ideal x0: a realistic
    # column entry of size a in the measured row of S^-1
    matrix = [[1, a, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -a, 1]]
    return parse_circuit(doc(
        n=2,
        inputs=[{"ideal_logical": 1},
                {"realistic": {"kind": "logical", "j": 0, "delta": 0.5}}],
        ops=[{"gate": "symplectic", "matrix": matrix}],
        estimator={"epsilon": 0.1, "delta_fail": 0.1, "seed": 1},
    ))


def test_huge_realistic_column_entry_refuses_the_float_push():
    with pytest.raises(ImprecisePush, match="may err by"):
        run(_swapped_shear(10**12), "estimate")


def test_moderate_realistic_column_entry_runs():
    result = run(_swapped_shear(10**3), "estimate")
    assert len(result["probabilities"]) == 3
    assert sum(result["probabilities"]) == pytest.approx(1.0, abs=0.1)


def test_million_realistic_column_entry_runs():
    # rounding errs by about 1e-9 bins here: far inside epsilon, so no refusal
    result = run(_swapped_shear(10**6), "estimate")
    assert sum(result["probabilities"]) == pytest.approx(1.0, abs=0.1)
    assert all(abs(p - 1 / 3) < 0.1 for p in result["probabilities"])


REALISTIC = {"realistic": {"kind": "logical", "j": 0, "delta": 0.5}}
BOOLEAN_CASES = {
    "n": ({"n": True}, "$.n"),
    "ideal_logical": ({"inputs": [{"ideal_logical": True}]}, "$.inputs[0].ideal_logical"),
    "ideal_table_entry": (
        {"inputs": [{"ideal_table": [[True, 0, 0], [0, 0, 0], [0, 0, 0]]}]},
        "$.inputs[0].ideal_table[0][0]",
    ),
    "ideal_table_pair": (
        {"inputs": [{"ideal_table": [[[1, False], 0, 0], [0, 0, 0], [0, 0, 0]]}]},
        "$.inputs[0].ideal_table[0][0]",
    ),
    "realistic_delta": (
        {"inputs": [{"realistic": {"kind": "phase_state", "delta": True}}]},
        "$.inputs[0].realistic.delta",
    ),
    "realistic_j": (
        {"inputs": [{"realistic": {"kind": "logical", "j": True, "delta": 0.5}}]},
        "$.inputs[0].realistic.j",
    ),
    "gate_modes": (
        {"n": 2, "inputs": [REALISTIC, REALISTIC],
         "ops": [{"gate": "SUM", "modes": [True, False]}]},
        "$.ops[0].modes",
    ),
    "symplectic": (
        {"ops": [{"gate": "symplectic", "matrix": [[True, 0], [0, 1]]}]},
        "$.ops[0].matrix",
    ),
    "displace": ({"ops": [{"gate": "displace", "c": [True, 0]}]}, "$.ops[0].c"),
    "measured_modes": ({"measurement": {"modes": [False], "K": 3}}, "$.measurement.modes"),
    "K": ({"measurement": {"modes": [0], "K": True}}, "$.measurement.K"),
    "seed": (
        {"estimator": {"epsilon": 0.1, "delta_fail": 0.1, "seed": True}},
        "$.estimator.seed",
    ),
}


@pytest.mark.parametrize("overrides, path", BOOLEAN_CASES.values(), ids=BOOLEAN_CASES)
def test_booleans_are_not_numbers(overrides, path):
    with pytest.raises(SchemaError) as info:
        parse_circuit(doc(**overrides))
    assert any(e.startswith(f"at {path}:") for e in info.value.errors), info.value.errors
