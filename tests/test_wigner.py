import numpy as np
import pytest

from zakgross import theta, wigner
from zakgross.oracles import check_realistic_sampler
from zakgross.qudit import CodeParams, Gate
from zakgross.symplectic import AffineMap, generator_symplectic
from zakgross.theta import CodeState
from zakgross.wigner import (
    IdealFactor,
    RealisticFactor,
    WignerState,
    ideal_input,
    realistic_input,
    sample_abs,
    sample_input,
    seed_streams,
)


def test_ideal_logical_support():
    st = ideal_input(CodeParams(3, 1), [0])
    m2, w = st.lattice_support()
    assert m2.shape == (3, 2)
    assert np.all(m2[:, 0] == 0)  # position column pinned to 0
    assert sorted(int(v) for v in m2[:, 1]) == [0, 2, 4]
    assert np.allclose(w, 1 / 3)


def test_ideal_phase_state_negativity_value():
    ket = np.array([1, 1, -1]) / np.sqrt(3)
    f = IdealFactor.from_density_matrix(CodeParams(3, 1), np.outer(ket, ket))
    assert abs(f.negativity() - 13 / 9) < 1e-12


def test_ideal_table_validation():
    with pytest.raises(ValueError, match="sums to 9"):
        IdealFactor(np.ones((3, 3)))  # sums to 9, not 3
    assert IdealFactor(np.eye(5)).d == 5
    with pytest.raises(ValueError, match="single-mode"):
        IdealFactor.from_density_matrix(CodeParams(3, 2), np.eye(9) / 9)


@pytest.mark.parametrize("shape", [(3, 1), (1, 3), (3,), (3, 3, 1)])
def test_ideal_table_must_be_square(shape):
    # each table sums to its first dimension, so only the shape is wrong
    table = np.ones(shape) * shape[0] / np.prod(shape)
    with pytest.raises(ValueError, match="not square"):
        IdealFactor(table)


def test_negativity_product_and_gate_invariance():
    params = CodeParams(3, 2)
    f = RealisticFactor(CodeState.logical(3, 0, 0.35))
    g = RealisticFactor(CodeState.phase_state(3, 0.35))
    st = WignerState.from_factors(params, [f, g])
    prod = f.negativity() * g.negativity()
    assert st.negativity() == prod
    word = [Gate.fourier(0), Gate.sum_(0, 1), Gate.phase(1), Gate.cz(0, 1)]
    evolved = st.apply_word(word).apply_displacement([1, 0, 0, 2])
    assert evolved.negativity() == prod  # exact: factors untouched


def test_negativity_matches_brute_force_grid():
    f = RealisticFactor(CodeState.logical(3, 0, 0.3))
    period = 3 * f.state.ell
    n = 1536
    xs = (np.arange(n) + 0.5) * period / n
    brute = float(np.abs(f.wigner_grid(xs, xs)).sum() * (period / n) ** 2)
    adaptive = f.negativity(1e-8)
    assert adaptive >= 1.0
    assert abs(adaptive - brute) / brute < 1e-7


def test_positive_state_negativity_is_one():
    # squeezed enough that the coarse scan finds no negative cell
    f = RealisticFactor(CodeState.logical(3, 0, 0.999))
    assert f.negativity() >= 1.0


@pytest.mark.parametrize("d,delta", [(3, 0.1), (3, 0.05), (5, 0.05)])
def test_high_squeezing_reaches_ideal_negativity(d, delta):
    # some sub-lattice blocks keep no term here; they must drop out, not crash
    assert abs(RealisticFactor(CodeState.logical(d, 0, delta)).negativity() - 1) < 1e-6
    state = CodeState.phase_state(d, delta)
    ket = np.array(state.eps)
    ideal = IdealFactor.from_density_matrix(CodeParams(d, 1), np.outer(ket, ket.conj()))
    assert abs(RealisticFactor(state).negativity() - ideal.negativity()) < 1e-6


def test_forty_db_phase_state_reaches_thirteen_ninths():
    # delta = 0.01 (40 dB): the ideal discrete-Wigner negativity 13/9 of the d = 3 phase state
    assert abs(RealisticFactor(CodeState.phase_state(3, 0.01)).negativity() - 13 / 9) < 1e-8


def test_evaluate_factorizes(rng=np.random.default_rng(5)):
    params = CodeParams(3, 2)
    s0 = CodeState.logical(3, 0, 0.4)
    s1 = CodeState.phase_state(3, 0.4)
    st = realistic_input(params, [s0, s1])
    singles = [realistic_input(CodeParams(3, 1), [s]) for s in (s0, s1)]
    period = params.torus_period
    eta = rng.random((100, 4)) * period
    joint = st.evaluate(eta)
    split = singles[0].evaluate(eta[:, (0, 2)]) * singles[1].evaluate(eta[:, (1, 3)])
    assert np.max(np.abs(joint - split)) <= 1e-10 * np.max(np.abs(joint))


def test_evaluate_pullback_consistency():
    params = CodeParams(3, 1)
    st = realistic_input(params, [CodeState.phase_state(3, 0.4)])
    rng = np.random.default_rng(9)
    eta = rng.random((50, 2)) * params.torus_period
    base = st.evaluate(eta)
    evolved = st.apply_word([Gate.fourier(0), Gate.phase(0)])
    pushed = evolved.amap.push_float(eta)
    after = evolved.evaluate(pushed)
    scale = np.max(np.abs(base))
    assert np.max(np.abs(after - base)) <= 1e-9 * scale


def test_evaluate_ideal_comb_snap():
    params = CodeParams(3, 2)
    ell = params.ell
    st = ideal_input(params, [0, 0])
    pt = np.array([0.0, 0.0, ell, 2 * ell])
    assert abs(st.evaluate(pt) - 1 / 9) < 1e-12
    assert st.evaluate(pt + 1e-4) == 0.0
    # within snap tolerance still hits the lattice weight
    assert abs(st.evaluate(pt + 1e-11) - 1 / 9) < 1e-12


def test_apply_symplectic_matches_gate_map():
    params = CodeParams(3, 1)
    sF, _c = generator_symplectic(Gate.fourier(0), params)
    st = realistic_input(params, [CodeState.logical(3, 0, 0.4)])
    via_gate = st.apply_gate(Gate.fourier(0))
    via_mat = st.apply_symplectic(sF)
    assert np.array_equal(via_gate.amap.S.mat, via_mat.amap.S.mat)


def test_apply_symplectic_rejects_bad_matrix():
    st = ideal_input(CodeParams(3, 1), [0])
    from zakgross.symplectic import NotSymplectic

    with pytest.raises(NotSymplectic):
        st.apply_symplectic(np.array([[1, 1], [1, 1]]))


def test_displacement_roundtrip_restores_identity():
    params = CodeParams(3, 2)
    st = ideal_input(params, [0, 1])
    fwd = st.apply_displacement([1, 2, 0, 1]).apply_displacement([-1, -2, 0, -1])
    assert np.array_equal(fwd.amap.S.mat, np.eye(4, dtype=object))
    assert all(x == 0 for x in fwd.amap.c)


def test_negativity_cache_keys_on_exact_tolerance(monkeypatch):
    # a value settled to a looser tol must not serve a tighter one
    calls = []

    def fake_abs_integral(eval_grid, period, tol):
        calls.append(tol)
        return 1.0 + tol

    monkeypatch.setattr(wigner, "_abs_integral", fake_abs_integral)
    wigner._negativity.cache_clear()
    try:
        f = RealisticFactor(CodeState.logical(3, 0, 0.45))
        for tol in (2e-6, 1e-6, 5e-7, 5e-7):
            assert f.negativity(tol) == 1.0 + tol
        assert calls == [2e-6, 1e-6, 5e-7]
    finally:
        wigner._negativity.cache_clear()  # drop the fake values


def test_seed_streams_split_equally_and_repeat():
    streams = seed_streams(4, 250_001)
    sizes = [size for _seq, size in streams]
    assert len(streams) == 3 and sum(sizes) == 250_001
    assert max(sizes) <= 100_000 and max(sizes) - min(sizes) <= 1
    again = seed_streams(4, 250_001)
    assert [size for _seq, size in again] == sizes
    for (a, _), (b, _) in zip(streams, again):
        assert np.array_equal(a.generate_state(4), b.generate_state(4))
    assert [size for _seq, size in seed_streams(4, 100_000)] == [100_000]


def test_ideal_sampler_uniform_support():
    st = ideal_input(CodeParams(3, 1), [0])
    pts, signs = sample_abs(st, 123, 3000)
    assert np.all(signs == 1.0)
    ell = st.params.ell
    tz = np.rint(pts[:, 1] / ell).astype(int)
    assert np.max(np.abs(pts[:, 1] / ell - tz)) < 1e-9
    freqs = np.bincount(tz % 3, minlength=3) / 3000
    assert np.max(np.abs(freqs - 1 / 3)) < 0.03


def test_sample_abs_deterministic():
    st = realistic_input(CodeParams(3, 1), [CodeState.logical(3, 0, 0.35)])
    p1, s1 = sample_abs(st, 77, 400)
    p2, s2 = sample_abs(st, 77, 400)
    assert np.array_equal(p1, p2) and np.array_equal(s1, s2)
    p3, _ = sample_abs(st, 78, 400)
    assert not np.array_equal(p1, p3)


def test_realistic_negative_sign_fraction():
    st = realistic_input(CodeParams(3, 1), [CodeState.logical(3, 0, 0.3)])
    m = st.negativity()
    want = (m - 1) / (2 * m)
    n = 200_000
    _pts, signs = sample_abs(st, 2024, n)
    got = float((signs < 0).mean())
    sigma = np.sqrt(want * (1 - want) / n)
    assert abs(got - want) < 3.5 * sigma + 1e-12


def test_sharp_phase_state_sampler_envelope_holds():
    st = realistic_input(CodeParams(3, 1), [CodeState.phase_state(3, 0.2)])
    pts, signs = sample_abs(st, 5, 8000)
    assert pts.shape == (8000, 2)
    assert set(np.unique(signs)) <= {-1.0, 1.0}
    assert (signs < 0).any()  # phase state has genuine negative mass


def test_equal_factors_share_one_envelope():
    theta.abs_envelope.cache_clear()
    state = CodeState.logical(3, 0, 0.25)
    st = realistic_input(CodeParams(3, 2), [state, CodeState.logical(3, 0, 0.25)])
    st.sampler()
    info = theta.abs_envelope.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    env = theta.abs_envelope(state)
    assert env.cum[-1] == 1.0 and env.mass > 0


def z_bin_integrals(state, bins):
    """Unnormalized mass of W in equal z bins of one period, in closed form.

    Each comb f_c has mass delta sqrt(pi) / ell over x, and a bin of width w
    integrates exp(2 pi i b z / L) to w exp(2 pi i b mid / L) sinc(b / bins).
    """
    series = theta._series(state)
    width = series.cell / bins
    mid = (np.arange(bins) + 0.5) * width
    phase = np.exp(2j * np.pi * np.outer(mid, series.kz) / series.cell) * np.sinc(series.kz / bins)
    comb = series.delta * np.sqrt(np.pi) / series.ell
    return comb * width * (phase @ series.u.sum(axis=0)).real


@pytest.mark.parametrize("kind", ["logical", "phase_state"])
@pytest.mark.parametrize("delta", [0.05, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_realistic_sampler_draws_its_law(d, delta, kind):
    state = CodeState.logical(d, 0, delta) if kind == "logical" else CodeState.phase_state(d, delta)
    period = d * state.ell
    # the table bounds every |h_c| on a probe grid 16 times finer than its cells
    bound = theta.abs_envelope(state).bound
    probe = np.arange(16 * bound.shape[1])
    h = theta._z_factor(theta._series(state), probe * period / probe.size)
    assert np.all(np.abs(h) <= bound[:, probe // 16].T)
    # 100k draws; the sampler raises EnvelopeViolated on any draw above the envelope
    pts, signs = sample_input(realistic_input(CodeParams(d, 1), [state]), 1, 100_000)
    # E[s 1_b] = p_b / M and E[s] = 1 / M, so s (1_b - p_b) has mean 0 in every
    # bin b, and variance q_b (1 - 2 p_b) + p_b^2 for the |W| share q_b >= |p_b| / M
    bins, scale = 32, d * RealisticFactor(state).norm
    masses = (theta.x_bin_integrals(state, bins, 0.0), z_bin_integrals(state, bins))
    for coord, p in enumerate(m / scale for m in masses):
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        hit = np.floor(np.mod(pts[:, coord], period) * bins / period) == np.arange(bins)[:, None]
        q = np.maximum(hit.mean(axis=1), np.abs(p) * signs.mean())
        sigma = np.sqrt((q * (1 - 2 * p) + p * p) / signs.size)
        assert np.all(np.abs((signs * (hit - p[:, None])).mean(axis=1)) <= 4 * sigma)


def test_a_draw_above_the_envelope_raises(monkeypatch):
    state = CodeState.phase_state(3, 0.5)
    env = theta.abs_envelope(state)
    monkeypatch.setattr(wigner, "abs_envelope", lambda s: env._replace(bound=env.bound / 2))
    with pytest.raises(wigner.EnvelopeViolated, match="envelope violated by factor"):
        sample_abs(realistic_input(CodeParams(3, 1), [state]), 1, 1000)


def test_realistic_sampler_law_check_passes():
    ok, detail = check_realistic_sampler((0.5, 0.05), 0.05, 0.01, seed=0)
    assert ok, detail


def test_sampled_points_cover_cell_after_gate():
    params = CodeParams(3, 1)
    st = realistic_input(params, [CodeState.logical(3, 0, 0.4)])
    evolved = st.apply_word([Gate.fourier(0), Gate.phase(0), Gate.x(0)])
    pts, _ = sample_abs(evolved, 31, 2000)
    back = evolved.amap.pullback(pts)
    vals_in = st.evaluate(back)
    vals_out = evolved.evaluate(pts)
    assert np.max(np.abs(vals_in - vals_out)) <= 1e-9 * np.max(np.abs(vals_in))


def test_input_constructors_validate():
    with pytest.raises(ValueError):
        ideal_input(CodeParams(3, 2), [0])
    with pytest.raises(ValueError):
        realistic_input(CodeParams(3, 2), [CodeState.logical(3, 0, 0.3)])
    with pytest.raises(ValueError):
        WignerState.from_factors(
            CodeParams(5, 1), [IdealFactor.logical(3, 0)]
        )
    with pytest.raises(ValueError, match="factor dimension"):
        WignerState((IdealFactor.logical(5, 0),), AffineMap.identity(CodeParams(3, 1)))


def test_state_params_are_the_maps():
    params = CodeParams(3, 2)
    st = (
        realistic_input(params, [CodeState.logical(3, 0, 0.4), CodeState.phase_state(3, 0.4)])
        .apply_word([Gate.fourier(0), Gate.sum_(0, 1)])
        .apply_displacement([1, 0, 0.5, 0])
    )
    assert st.params is st.amap.params is params


def test_realistic_factor_norm_is_the_series_norm():
    for state in (CodeState.logical(3, 0, 0.3), CodeState.phase_state(5, 0.5)):
        assert RealisticFactor(state).norm == theta.code_state_norm(state)
    assert abs(RealisticFactor(CodeState.logical(3, 0, 0.3)).norm - 0.728) < 1e-3


def test_bad_realistic_state_fails_where_the_factor_is_made():
    with pytest.raises(theta.TruncationOverflow):
        RealisticFactor(CodeState.logical(9, 0, 0.01))
