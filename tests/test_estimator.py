import math
import tracemalloc

import numpy as np
import pytest

from zakgross.estimator import InfeasiblePlan, estimate, sample_count, stopping_rule
from zakgross.measure import (
    MeasurementSpec, bin_of_position, exact_probabilities, quadrature_probabilities,
)
from zakgross.qudit import CodeParams, Gate
from zakgross.theta import CodeState
from zakgross.wigner import BLOCK, WignerState, ideal_input, realistic_input, sample_abs


def bell_state():
    params = CodeParams(3, 2)
    word = [Gate("F", (0,)), Gate("SUM", (0, 1))]
    return params, ideal_input(params, [0, 0]).apply_ops(word)


def test_plan_reference_count():
    assert sample_count(0.01, 0.05, 1.0) == 73778


def test_plan_scales_with_negativity_squared():
    m = math.exp(3e-4)
    n1 = sample_count(0.01, 0.05, 1.0)
    nm = sample_count(0.01, 0.05, m)
    assert abs(nm / n1 - m ** 2) < 1e-4


def test_plan_monotone_in_delta():
    counts = [sample_count(0.05, d, 1.0) for d in (0.01, 0.05, 0.2, 0.9)]
    assert counts == sorted(counts, reverse=True)


def test_plan_cap_error_names_requirement():
    with pytest.raises(InfeasiblePlan, match="exceeds the cap 200000000"):
        sample_count(0.0001, 0.01, 5.0)


def test_plan_validation():
    for eps, dl, m in ((0.0, 0.1, 1.0), (0.1, 1.0, 1.0), (0.1, 0.1, 0.5)):
        with pytest.raises(ValueError):
            sample_count(eps, dl, m)


def test_estimate_deterministic_per_seed():
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    eps, dl = 0.1, 0.2
    r1 = estimate(st, spec, eps, dl, seed=42)
    r2 = estimate(st, spec, eps, dl, seed=42)
    assert np.array_equal(r1.probabilities, r2.probabilities)
    assert np.array_equal(r1.std_errors, r2.std_errors)
    r3 = estimate(st, spec, eps, dl, seed=43)
    assert not np.array_equal(r1.probabilities, r3.probabilities)


def test_single_sample_contributions_are_quantized():
    # N * p_hat / M must recover integer signed counts exactly
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    rep = estimate(st, spec, 0.1, 0.2, seed=5)
    counts = rep.probabilities * rep.n_samples / rep.negativity
    assert np.max(np.abs(counts - np.rint(counts))) < 1e-9


def test_ideal_estimate_matches_exact_within_errors():
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    exact = exact_probabilities(st, spec)
    eps, dl = 0.05, 0.1
    rep = estimate(st, spec, eps, dl, seed=11)
    assert np.max(np.abs(rep.probabilities - exact)) <= eps
    # diagonal bins carry 1/3 each; standard errors should cover the residual
    resid = np.abs(rep.probabilities - exact)
    assert np.all(resid <= 5 * rep.std_errors + 1e-12)


def test_ideal_estimate_draws_per_mode_without_the_support(monkeypatch):
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    exact = exact_probabilities(st, spec)

    def no_support(self):
        raise AssertionError("enumerated the lattice support")

    monkeypatch.setattr(WignerState, "lattice_support", no_support)
    eps, dl = 0.05, 0.1
    rep = estimate(st, spec, eps, dl, seed=11)
    assert np.max(np.abs(rep.probabilities - exact)) <= eps


def test_calibration_smoke():
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    exact = exact_probabilities(st, spec)
    eps, dl = 0.1, 0.2
    fails = 0
    acc = np.zeros_like(exact)
    for seed in range(30):
        rep = estimate(st, spec, eps, dl, seed=seed)
        acc += rep.probabilities
        if np.max(np.abs(rep.probabilities - exact)) > eps:
            fails += 1
    assert fails <= 6  # far looser than delta_fail; the bound is not tight
    mean_err = np.max(np.abs(acc / 30 - exact))
    assert mean_err < 0.02


def test_realistic_estimate_matches_quadrature():
    params = CodeParams(3, 1)
    st = realistic_input(params, [CodeState.logical(3, 0, 0.3)])
    spec = MeasurementSpec((0,), 3)
    exact = exact_probabilities(st, spec)
    eps, dl = 0.05, 0.1
    rep = estimate(st, spec, eps, dl, seed=17)
    assert np.max(np.abs(rep.probabilities - exact)) <= eps


def test_entangling_realistic_estimate_matches_its_exact_table():
    # P, CZ and P_inv move no measured position, so the exact table of the
    # entangled circuit is the displacement-only one, and the estimate on it
    # (negative phase-state draws included) lies within epsilon of that table
    st = realistic_input(CodeParams(3, 3), [
        CodeState.phase_state(3, 0.5), CodeState.logical(3, 0, 0.25), CodeState.logical(3, 0, 0.25),
    ])
    disp = (1, 0, 2, 0, 0, 0)
    circuit = st.apply_ops([Gate("P", (0,)), Gate("CZ", (0, 1)), Gate("CZ", (1, 2)),
                            Gate("P_inv", (2,)), disp])
    spec = MeasurementSpec((0, 1, 2), 3)
    exact = exact_probabilities(circuit, spec)
    assert np.array_equal(exact, exact_probabilities(st.apply_ops([disp]), spec))
    eps = 0.04
    for seed in range(3):
        rep = estimate(circuit, spec, eps, 0.1, seed=seed)
        assert np.max(np.abs(rep.probabilities - exact)) <= eps


def three_entangled_modes():
    return realistic_input(CodeParams(3, 3), [
        CodeState.logical(3, 0, 0.3), CodeState.phase_state(3, 0.4), CodeState.logical(3, 1, 0.3),
    ]).apply_ops([Gate("F", (0,)), Gate("SUM", (0, 1)), Gate("CZ", (1, 2)), Gate("P", (2,)),
                  Gate("SUM", (2, 0))])


def test_realistic_estimate_is_signed_count_of_sample_abs_draws():
    # estimate and sample_abs draw from the same seed streams, block by block:
    # one mode, and three entangled modes whose draws span several blocks
    one = realistic_input(CodeParams(3, 1), [CodeState.logical(3, 0, 0.3)])
    three = three_entangled_modes()
    # the estimate stops early, so its draws are a prefix of the planned ones
    for st, eps in ((one, 0.02), (three, 0.015)):
        n_modes = st.params.n
        spec = MeasurementSpec(tuple(range(n_modes)), 3)
        rep = estimate(st, spec, eps, 0.1, seed=9)
        m, n = rep.negativity, rep.n_samples
        pts, signs = sample_abs(st, 9, rep.planned_samples)
        pts, signs = pts[:n], signs[:n]
        bins = bin_of_position(pts[:, :n_modes], st.params.torus_period, spec.K)
        joint = np.ravel_multi_index(tuple(bins.T), spec.table_shape())
        signed = np.bincount(joint, weights=signs, minlength=spec.K ** n_modes)
        assert np.array_equal(rep.probabilities.ravel(), signed * m / n)
    assert n > 2 * BLOCK and (signs < 0).any()


@pytest.mark.parametrize("eps", [0.1, 0.015])
def test_estimate_stops_at_the_first_block_where_every_bin_clears(eps):
    st = three_entangled_modes()
    spec = MeasurementSpec((0, 1, 2), 3)
    rep = estimate(st, spec, eps, 0.1, seed=9)
    n, planned = rep.n_samples, rep.planned_samples
    pts, signs = sample_abs(st, 9, planned)
    joint = np.ravel_multi_index(
        tuple(bin_of_position(pts[:, :3], st.params.torus_period, 3).T), spec.table_shape())
    cleared = stopping_rule(eps, 0.1, rep.negativity)

    def clears_at(k):
        sign = signs[:k]
        pos = np.bincount(joint[:k][sign > 0], minlength=27)
        return cleared(pos, np.bincount(joint[:k][sign < 0], minlength=27), k)

    if eps == 0.1:
        assert n == planned < BLOCK  # a plan under one block is drawn whole
    else:
        assert BLOCK < n < planned and clears_at(n)
    assert not any(clears_at(k) for k in range(BLOCK, n, BLOCK))


@pytest.mark.parametrize("eps", [0.2, 0.02])
def test_estimate_draws_at_most_its_plan_and_repeats_per_seed(eps):
    st = realistic_input(CodeParams(3, 1), [CodeState.phase_state(3, 0.5)])
    spec = MeasurementSpec((0,), 3)
    for seed in range(4):
        docs = [estimate(st, spec, eps, 0.1, seed=seed).to_dict() for _ in range(2)]
        for doc in docs:
            del doc["wall_time_s"]
        assert docs[0] == docs[1]
        assert docs[0]["n_samples"] <= docs[0]["planned_samples"]


@pytest.mark.parametrize("delta", [0.5, 0.05])
def test_stopping_early_leaves_the_estimate_unbiased(delta):
    # the stop depends on the draws; over 200 seeds the mean must still sit
    # within 3 pooled standard errors of the closed-form table
    st = realistic_input(CodeParams(3, 1), [CodeState.phase_state(3, delta)])
    st = st.apply_ops([[0.3, 0.0]])
    spec = MeasurementSpec((0,), 6)
    exact = quadrature_probabilities(st, spec)
    reps = [estimate(st, spec, 0.05, 0.1, seed=seed) for seed in range(200)]
    assert max(r.n_samples for r in reps) < reps[0].planned_samples
    mean = np.mean([r.probabilities for r in reps], axis=0)
    pooled = np.sqrt(np.sum([r.std_errors ** 2 for r in reps], axis=0)) / len(reps)
    assert np.all(np.abs(mean - exact) <= 3 * pooled + 1e-12)


def test_estimate_memory_does_not_grow_with_the_mode_count():
    # each factor's draws go into the 3 measured positions a block at a time,
    # so 40 modes peak about as high as 4; a (draws, 2n) array of the
    # stream's input-frame draws made 40 modes about 10 times as costly
    peaks = {}
    for n_modes in (4, 40):
        st = realistic_input(CodeParams(3, n_modes), [CodeState.logical(3, 0, 0.25)] * n_modes)
        st = st.apply_ops([Gate("SUM", (i, i + 1)) for i in range(n_modes - 1)])
        spec = MeasurementSpec((0, 1, 2), 3)
        estimate(st, spec, 0.2, 0.1, seed=1)  # builds the negativity, the series and the envelope
        tracemalloc.start()
        try:
            rep = estimate(st, spec, 0.007, 0.1, seed=1)
            peaks[n_modes] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 45_000 < rep.n_samples < 55_000
    assert peaks[40] <= 1.5 * peaks[4], peaks


def test_report_serializes():
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    rep = estimate(st, spec, 0.2, 0.2, seed=1)
    d = rep.to_dict()
    # ceil(50 ln 20), under one block, so the whole plan is drawn
    assert d["n_samples"] == d["planned_samples"] == 150 and d["seed"] == 1
    assert np.asarray(d["probabilities"]).shape == (3, 3)


@pytest.mark.parametrize("kind", ["ideal", "realistic"])
def test_report_sample_count_is_the_hoeffding_count_at_the_states_negativity(kind):
    if kind == "ideal":
        params, st = bell_state()
    else:
        params = CodeParams(3, 1)
        st = realistic_input(params, [CodeState.phase_state(3, 0.5)])
    rep = estimate(st, MeasurementSpec((0,), 3), 0.1, 0.2, seed=2)
    assert rep.negativity == st.negativity()
    # planned at delta_fail / 2; a plan under one block is drawn whole
    assert rep.planned_samples == sample_count(rep.epsilon, rep.delta_fail / 2, rep.negativity)
    assert rep.n_samples == rep.planned_samples < BLOCK
    assert (rep.epsilon, rep.delta_fail) == (0.1, 0.2)


def test_estimate_rejects_bad_modes():
    params, st = bell_state()
    spec = MeasurementSpec((5,), 3)
    with pytest.raises(ValueError):
        estimate(st, spec, 0.2, 0.2, seed=0)

