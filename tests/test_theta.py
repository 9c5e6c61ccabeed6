"""Lattice sums against independent references, and the two Wigner paths."""
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakgross import theta
from zakgross.estimator import estimate, plan
from zakgross.measure import MeasurementSpec, exact_probabilities
from zakgross.oracles import (
    dense_series_grid,
    dense_series_points,
    gaussian_wigner,
    overlap_norm,
    siegel_theta,
    sublattice_series,
    sublattice_theta_batch,
    wigner_oracle,
)
from zakgross.qudit import CodeParams
from zakgross.theta import (
    CodeState,
    NotPositiveDefinite,
    TruncationOverflow,
    code_state_norm,
    siegel_theta_batch,
    wigner_theta,
    wigner_theta_grid,
)
from zakgross.wigner import RealisticFactor, realistic_input

TWO_PI = 2.0 * math.pi


# ---- 1-D sums against mpmath jtheta --------------------------------------------

def _jtheta3(gamma_scalar, z_scalar):
    # theta(gamma, z) = theta3(pi z, q) with q = exp(i pi gamma)
    mpmath.mp.dps = 40
    q = mpmath.exp(1j * mpmath.pi * gamma_scalar)
    val = mpmath.jtheta(3, mpmath.pi * z_scalar, q)
    return complex(val)


def test_theta_reference_value():
    val, radius = siegel_theta(np.array([[1j]]), [0.0])
    assert abs(val - 1.0864348112133080) < 1e-12
    assert radius >= 2


@settings(max_examples=25, deadline=None)
@given(
    im_g=st.floats(0.25, 4.0),
    re_g=st.floats(-0.8, 0.8),
    re_z=st.floats(-1.5, 1.5),
    im_z=st.floats(-1.2, 1.2),
)
def test_theta_1d_matches_mpmath(im_g, re_g, re_z, im_z):
    gamma = np.array([[re_g + 1j * im_g]])
    z = np.array([re_z + 1j * im_z])
    val, _ = siegel_theta(gamma, z)
    ref = _jtheta3(re_g + 1j * im_g, re_z + 1j * im_z)
    assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


def test_theta_large_imaginary_argument_scaled():
    # magnitude ~ exp(pi w^2 / im_g) gets huge; the scaled form stays finite
    gamma = np.array([[0.3 + 0.5j]])
    w = 6.0
    vals, log_scale, _ = siegel_theta_batch(gamma, [1j * w], np.array([[0.25]]))
    ref = _jtheta3(0.3 + 0.5j, 0.25 + 1j * w)
    got = complex(vals.reshape(-1)[0])
    assert log_scale > 50.0
    rel = abs(got * mpmath.exp(log_scale) - ref) / abs(ref)
    assert rel < 1e-10


def test_theta_2d_diagonal_factorizes():
    g1, g2 = 0.7j, 0.2 + 1.3j
    z1, z2 = 0.3 + 0.1j, -0.4 + 0.2j
    gamma = np.array([[g1, 0], [0, g2]])
    val, _ = siegel_theta(gamma, [z1, z2])
    ref = _jtheta3(g1, z1) * _jtheta3(g2, z2)
    assert abs(val - ref) < 1e-10 * abs(ref)


def test_theta_2d_off_diagonal_brute_force():
    gamma = np.array([[0.9j, 0.3 - 0.1j], [0.3 - 0.1j, 1.4j]])
    z = np.array([0.21 - 0.3j, -0.17 + 0.45j])
    val, _ = siegel_theta(gamma, z)
    acc = 0j
    rng = range(-25, 26)
    for t1 in rng:
        for t2 in rng:
            t = np.array([t1, t2])
            acc += np.exp(1j * math.pi * t @ gamma @ t + TWO_PI * 1j * t @ z)
    assert abs(val - acc) < 1e-10 * max(1.0, abs(acc))


def test_theta_batch_matches_singles():
    gamma = np.array([[1.1j, 0.2], [0.2, 0.8j]])
    z0 = np.array([0.1j, -0.2j])
    offs = np.array([[0.0, 0.0], [0.3, -0.1], [0.7, 0.4]])
    vals, log_scale, _ = siegel_theta_batch(gamma, z0, offs)
    for k in range(3):
        single, _ = siegel_theta(gamma, z0 + offs[k])
        assert abs(vals[k] * math.exp(log_scale) - single) < 1e-11 * max(1.0, abs(single))


def test_sublattice_identity_brute_force():
    gamma = np.array([[0.8j, 0.25], [0.25, 1.2j]])
    z0 = np.array([0.15 - 0.2j, 0.05 + 0.3j])
    offs = np.array([[0.0, 0.0], [0.4, 0.2]])
    for parity in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        vals, log_scale, _ = sublattice_theta_batch(gamma, z0, offs, parity)
        for k in range(2):
            z = z0 + offs[k]
            acc = 0j
            for t1 in range(-22 + parity[0], 23, 2):
                for t2 in range(-22 + parity[1], 23, 2):
                    t = np.array([t1, t2])
                    acc += np.exp(1j * math.pi * t @ gamma @ t + TWO_PI * 1j * t @ z)
            got = vals[k] * math.exp(log_scale)
            assert abs(got - acc) < 1e-10 * max(1.0, abs(acc)), parity


def test_theta_rejects_bad_gamma():
    with pytest.raises(NotPositiveDefinite):
        siegel_theta(np.array([[1.0 - 0.1j]]), [0.0])
    with pytest.raises(ValueError, match="symmetric"):
        siegel_theta(np.array([[1j, 0.5], [0.2, 1j]]), [0.0, 0.0])


def test_theta_truncation_overflow():
    with pytest.raises(TruncationOverflow):
        siegel_theta(np.array([[1e-7j]]), [0.0])


# ---- code states ----------------------------------------------------------------

def _psi_on_grid(state, x):
    d, delta, ell = state.d, state.delta, state.ell
    kmax = 40
    psi = np.zeros_like(x, dtype=complex)
    for j in range(d):
        if state.eps[j] == 0:
            continue
        for k in range(-kmax, kmax + 1):
            mu = (j + d * k) * ell
            psi += state.eps[j] * math.exp(-0.5 * delta ** 2 * mu ** 2) * np.exp(
                -((x - mu) ** 2) / (2 * delta ** 2)
            )
    return psi


@pytest.mark.parametrize("delta", [0.3, 0.5])
@pytest.mark.parametrize("kind", ["logical0", "phase"])
def test_norm_matches_wavefunction_quadrature(delta, kind):
    d = 3
    state = (
        CodeState.logical(d, 0, delta)
        if kind == "logical0"
        else CodeState.phase_state(d, delta)
    )
    x = np.linspace(-30, 30, 120001)
    psi = _psi_on_grid(state, x)
    ref = np.trapezoid(np.abs(psi) ** 2, x)
    got = code_state_norm(state)
    assert abs(got - ref) < 1e-9 * ref


@pytest.mark.parametrize("delta", [1e-5, 1e-200, 1e-310])  # 1e-310: the reach overflows to inf
def test_norm_refuses_an_oversized_overlap_box(delta):
    with pytest.raises(TruncationOverflow, match="exceeds cap"):
        code_state_norm(CodeState.logical(3, 0, delta))


def test_wigner_cell_integral_equals_d_times_norm():
    # exact identity: integrating the unnormalized Wigner function over one
    # (d ell)^2 cell gives d * <psi|psi>
    state = CodeState.phase_state(3, 0.4)
    dl = 3 * state.ell
    nq = 220
    xs = (np.arange(nq) + 0.5) * dl / nq
    grid = wigner_theta_grid(state, xs, xs)
    integral = grid.sum() * (dl / nq) ** 2
    ref = 3 * overlap_norm(state)
    assert abs(integral - ref) < 1e-6 * ref


@pytest.mark.parametrize("delta", [0.3, 0.5])
@pytest.mark.parametrize("kind", ["logical0", "logical1", "phase"])
def test_theta_path_matches_oracle(delta, kind):
    d = 3
    if kind == "phase":
        state = CodeState.phase_state(d, delta)
    else:
        state = CodeState.logical(d, int(kind[-1]), delta)
    ell = state.ell
    # a 5x5 grid whose diagonal holds five scattered points; the tolerance is
    # relative to the largest magnitude on those five points
    xs = np.array([0.0, 0.5 * ell, 1.0 * ell, 2.4 * ell, 0.31])
    zs = np.array([0.0, 0.25 * ell, 2.0 * ell, 0.9 * ell, 1.7])
    a = wigner_theta(state, np.stack(np.meshgrid(xs, zs, indexing="ij"), axis=-1))
    b = wigner_oracle(state, xs, zs)
    scale = np.max(np.abs(np.diag(b)))
    assert np.max(np.abs(a - b)) < 1e-9 * scale


@pytest.mark.parametrize("kind", ["logical0", "phase"])
@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_grid_matches_scatter(d, kind):
    state = (
        CodeState.logical(d, 0, 0.35)
        if kind == "logical0"
        else CodeState.phase_state(d, 0.35)
    )
    cell = d * state.ell
    ex = np.array([0.1, 0.9, 2.2, -0.7 * cell, 1.6 * cell])
    ez = np.array([0.0, 1.3, -1.2 * cell, 2.1 * cell])
    grid = wigner_theta_grid(state, ex, ez)
    pts = np.array([[x, z] for x in ex for z in ez]).reshape(5, 4, 2)
    scatter = wigner_theta(state, pts)
    assert np.allclose(grid, scatter, rtol=1e-10, atol=1e-14)


def test_equal_state_reuses_the_series():
    theta._series.cache_clear()
    wigner_theta(CodeState.phase_state(5, 0.4), [[0.2, 0.3]])
    before = theta._series.cache_info()
    wigner_theta(CodeState.phase_state(5, 0.4), [[1.2, -0.3]])
    after = theta._series.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_broken_conjugate_symmetry_raises(monkeypatch):
    original = theta._class_weights

    def skewed(*args, **kwargs):
        return original(*args, **kwargs) * (1 + 0.1j)

    theta._series.cache_clear()
    monkeypatch.setattr(theta, "_class_weights", skewed)
    with pytest.raises(theta.ImaginaryResidue, match="imaginary residue"):
        wigner_theta(CodeState.logical(3, 0, 0.3), [[0.0, 0.0]])


def _state(kind, d, delta):
    if kind == "phase":
        return CodeState.phase_state(d, delta)
    if kind == "logical1":
        return CodeState.logical(d, 1, delta)
    # complex coefficients pin down which peak carries the conjugate
    return CodeState(d, delta, tuple((1 + k) * np.exp(1j * k * k) for k in range(d)))


@settings(max_examples=12, deadline=None)
@given(
    d=st.sampled_from([3, 5, 7, 9]),
    delta=st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0, 1.9]),
    kind=st.sampled_from(["phase", "logical1", "complex"]),
    shift=st.floats(0.0, 1.0),
)
def test_peak_sum_series_matches_sublattice_theta_route(d, delta, kind, shift):
    state = _state(kind, d, delta)
    cell = d * state.ell
    xs = np.linspace(-0.3 * cell, 1.3 * cell, 41) + shift
    zs = np.linspace(-0.3 * cell, 1.3 * cell, 41) - 0.7 * shift
    got = wigner_theta_grid(state, xs, zs)
    ref = dense_series_grid(sublattice_series(state), xs, zs)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


# every d, delta and kind at least once; the 2-D route is slow for
# superpositions at small delta (10 s at d = 9, delta = 0.05), so delta = 0.05
# pairs the d = 3 phase state with the d = 7 logical state
SERIES_CASES = [
    (3, 0.05, "phase"), (3, 0.1, "complex"), (5, 0.1, "logical1"), (7, 0.05, "logical1"),
    (9, 0.3, "complex"), (5, 0.3, "phase"), (7, 0.5, "phase"), (9, 0.5, "logical1"),
    (3, 1.0, "logical1"), (5, 1.0, "complex"), (7, 1.9, "complex"), (9, 1.9, "phase"),
]


@functools.lru_cache(maxsize=None)
def _dense_series(kind, d, delta):
    """sublattice_series of the case, and the largest |W| on its half-lattice points."""
    state = _state(kind, d, delta)
    dense = sublattice_series(state)
    half = np.arange(2 * d) * state.ell / 2
    return dense, np.max(np.abs(dense_series_grid(dense, half, half)))


@settings(max_examples=12, deadline=None)
@given(shift=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_separable_series_matches_dense_route_off_the_grid(shift, seed):
    # scattered points, below 0 and above L included, and at delta = 0.05 the
    # 41^2 grid, which misses every (narrow) peak: both against the largest
    # |W| on the half-lattice points, where the peaks sit
    rng = np.random.default_rng(seed)
    for d, delta, kind in SERIES_CASES:
        state = _state(kind, d, delta)
        dense, peak = _dense_series(kind, d, delta)
        cell = d * state.ell
        pts = rng.uniform(-0.5 * cell, 1.5 * cell, size=(400, 2))
        got = wigner_theta(state, pts)
        assert np.max(np.abs(got - dense_series_points(dense, pts))) <= 1e-11 * peak
        if delta < 0.1:
            xs = np.linspace(-0.3 * cell, 1.3 * cell, 41) + shift
            zs = np.linspace(-0.3 * cell, 1.3 * cell, 41) - 0.7 * shift
            got = wigner_theta_grid(state, xs, zs)
            assert np.max(np.abs(got - dense_series_grid(dense, xs, zs))) <= 1e-11 * peak


def test_runtime_never_sums_a_theta_box(monkeypatch):
    from zakgross import wigner

    def refuse(*args, **kwargs):
        raise AssertionError("theta box summed")

    monkeypatch.setattr(theta, "_theta_terms", refuse)
    theta._series.cache_clear()
    wigner._negativity.cache_clear()
    state = CodeState.phase_state(3, 0.4)
    series = theta._series(state)
    assert series.u.shape == (2 * state.d, series.kz.size)
    assert RealisticFactor(state).negativity() > 1.0
    params = CodeParams(3, 1)
    st1 = realistic_input(params, [state])
    spec = MeasurementSpec((0,), 3)
    rep = estimate(st1, spec, plan(0.1, 0.2, st1.negativity()), seed=3)
    assert np.max(np.abs(rep.probabilities - exact_probabilities(st1, spec))) <= 0.1
    with pytest.raises(AssertionError, match="theta box"):
        siegel_theta_batch(np.array([[1j]]), [0j], [[0.0]])


def test_series_holds_no_dense_array():
    # d = 7 at delta = 0.01 (40 dB): the dense M would be 2397^2; the
    # separable series holds nothing larger than its 2d class rows
    theta._series.cache_clear()
    series = theta._series(CodeState.phase_state(7, 0.01))
    rows = 14 * series.kz.size
    assert series.u.shape == (14, series.kz.size)
    assert all(f.size <= rows for f in series if isinstance(f, np.ndarray))
    theta._series.cache_clear()


def test_wigner_peaks_at_logical_support():
    # logical 0 at moderate width: dominant peaks on eta_X = 0 mod d ell,
    # and the value at a shifted point eta_X = ell is much smaller
    state = CodeState.logical(3, 0, 0.25)
    norm = code_state_norm(state)
    ell = state.ell
    peak = wigner_theta(state, [[0.0, 0.0]]) / norm
    off = wigner_theta(state, [[ell, 0.0]]) / norm
    assert peak[0] > 10 * abs(off[0])


def test_phase_state_has_negative_region():
    state = CodeState.phase_state(3, 0.3)
    ell = state.ell
    xs = np.linspace(0, 3 * ell, 40)
    grid = wigner_theta_grid(state, xs, xs)
    assert grid.min() < 0
    assert grid.max() > 0


def test_code_state_validation():
    with pytest.raises(ValueError):
        CodeState(4, 0.3, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        CodeState(3, 0.0, (1, 0, 0))
    with pytest.raises(ValueError):
        CodeState(3, 0.3, (0, 0, 0))
    with pytest.raises(ValueError):
        CodeState(3, 0.3, (1, 0))


def test_gaussian_wigner_integral_and_value():
    d = 3
    ell = math.sqrt(TWO_PI / d)
    dl = d * ell
    nq = 200
    xs = (np.arange(nq) + 0.5) * dl / nq
    vals = gaussian_wigner(d, xs, xs)
    integral = vals.sum() * (dl / nq) ** 2
    assert abs(integral - d) < 1e-8 * d
    # center value: direct small sum
    acc = 0.0
    for ax in range(-40, 41):
        for az in range(-40, 41):
            acc += (-1.0) ** (ax * az) * math.exp(-(ell ** 2) * (ax * ax + az * az) / 4)
    assert abs(gaussian_wigner(d, [0.0], [0.0])[0, 0] - acc / TWO_PI) < 1e-12
