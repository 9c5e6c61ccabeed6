import math

import numpy as np
import pytest

from zakgross.estimator import EstimatePlan, InfeasiblePlan, estimate, plan
from zakgross.measure import MeasurementSpec, bin_of_position, exact_probabilities
from zakgross.qudit import CodeParams, Gate
from zakgross.theta import CodeState
from zakgross.wigner import WignerState, ideal_input, realistic_input, sample_abs


def bell_state():
    params = CodeParams(3, 2)
    word = [Gate.fourier(0), Gate.sum_(0, 1)]
    return params, ideal_input(params, [0, 0]).apply_word(word)


def test_plan_reference_count():
    assert plan(0.01, 0.05, 1.0).n_samples == 73778


def test_plan_scales_with_negativity_squared():
    m = math.exp(3e-4)
    n1 = plan(0.01, 0.05, 1.0).n_samples
    nm = plan(0.01, 0.05, m).n_samples
    assert abs(nm / n1 - m ** 2) < 1e-4


def test_plan_monotone_in_delta():
    counts = [plan(0.05, d, 1.0).n_samples for d in (0.01, 0.05, 0.2, 0.9)]
    assert counts == sorted(counts, reverse=True)


def test_plan_cap_error_names_requirement():
    with pytest.raises(InfeasiblePlan, match="exceeds the cap 200000000"):
        plan(0.0001, 0.01, 5.0)


def test_plan_validation():
    for eps, dl, m in ((0.0, 0.1, 1.0), (0.1, 1.0, 1.0), (0.1, 0.1, 0.5)):
        with pytest.raises(ValueError):
            plan(eps, dl, m)


def test_estimate_deterministic_per_seed():
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    pl = plan(0.1, 0.2, st.negativity())
    r1 = estimate(st, spec, pl, seed=42)
    r2 = estimate(st, spec, pl, seed=42)
    assert np.array_equal(r1.probabilities, r2.probabilities)
    assert np.array_equal(r1.std_errors, r2.std_errors)
    r3 = estimate(st, spec, pl, seed=43)
    assert not np.array_equal(r1.probabilities, r3.probabilities)


def test_single_sample_contributions_are_quantized():
    # N * p_hat / M must recover integer signed counts exactly
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    pl = plan(0.1, 0.2, st.negativity())
    rep = estimate(st, spec, pl, seed=5)
    counts = rep.probabilities * rep.n_samples / rep.negativity
    assert np.max(np.abs(counts - np.rint(counts))) < 1e-9


def test_ideal_estimate_matches_exact_within_errors():
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    exact = exact_probabilities(st, spec)
    pl = plan(0.05, 0.1, st.negativity())
    rep = estimate(st, spec, pl, seed=11)
    assert np.max(np.abs(rep.probabilities - exact)) <= pl.epsilon
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
    pl = plan(0.05, 0.1, st.negativity())
    rep = estimate(st, spec, pl, seed=11)
    assert np.max(np.abs(rep.probabilities - exact)) <= pl.epsilon


def test_calibration_smoke():
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    exact = exact_probabilities(st, spec)
    pl = plan(0.1, 0.2, st.negativity())
    fails = 0
    acc = np.zeros_like(exact)
    for seed in range(30):
        rep = estimate(st, spec, pl, seed=seed)
        acc += rep.probabilities
        if np.max(np.abs(rep.probabilities - exact)) > pl.epsilon:
            fails += 1
    assert fails <= 6  # far looser than delta_fail; the bound is not tight
    mean_err = np.max(np.abs(acc / 30 - exact))
    assert mean_err < 0.02


def test_realistic_estimate_matches_quadrature():
    params = CodeParams(3, 1)
    st = realistic_input(params, [CodeState.logical(3, 0, 0.3)])
    spec = MeasurementSpec((0,), 3)
    exact = exact_probabilities(st, spec)
    pl = plan(0.05, 0.1, st.negativity())
    rep = estimate(st, spec, pl, seed=17)
    assert np.max(np.abs(rep.probabilities - exact)) <= pl.epsilon


def test_realistic_estimate_is_signed_count_of_sample_abs_draws():
    # estimate and sample_abs draw from the same seed streams
    params = CodeParams(3, 1)
    st = realistic_input(params, [CodeState.logical(3, 0, 0.3)])
    spec = MeasurementSpec((0,), 3)
    m, n = st.negativity(), 3000
    rep = estimate(st, spec, EstimatePlan(n, m, 0.1, 0.1), seed=9)
    pts, signs = sample_abs(st, 9, n)
    bins = bin_of_position(pts[:, 0], params.torus_period, spec.K)
    signed = np.bincount(bins, weights=signs, minlength=spec.K)
    assert np.array_equal(rep.probabilities, signed * m / n)


def test_report_serializes_and_clamps():
    params, st = bell_state()
    spec = MeasurementSpec((0, 1), 3)
    rep = estimate(st, spec, EstimatePlan(500, 1.0, 0.2, 0.2), seed=1)
    d = rep.to_dict()
    assert d["n_samples"] == 500 and d["seed"] == 1
    assert np.asarray(d["probabilities"]).shape == (3, 3)
    assert np.all(rep.clamped() >= 0.0) and np.all(rep.clamped() <= 1.0)


def test_estimate_rejects_bad_modes():
    params, st = bell_state()
    spec = MeasurementSpec((5,), 3)
    with pytest.raises(ValueError):
        estimate(st, spec, EstimatePlan(100, 1.0, 0.2, 0.2), seed=0)

