import numpy as np
import pytest

from zakgross import wigner
from zakgross.qudit import CodeParams, Gate
from zakgross.symplectic import generator_symplectic
from zakgross.theta import CodeState
from zakgross.wigner import (
    IdealFactor,
    RealisticFactor,
    WignerState,
    ideal_input,
    realistic_input,
    sample_abs,
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
    with pytest.raises(ValueError):
        IdealFactor(3, np.ones((3, 3)))  # sums to 9, not 3
    with pytest.raises(ValueError):
        IdealFactor(3, np.ones((2, 2)))
    with pytest.raises(ValueError, match="single-mode"):
        IdealFactor.from_density_matrix(CodeParams(3, 2), np.eye(9) / 9)


def test_negativity_product_and_gate_invariance():
    params = CodeParams(3, 2)
    f = RealisticFactor.make(CodeState.logical(3, 0, 0.35))
    g = RealisticFactor.make(CodeState.phase_state(3, 0.35))
    st = WignerState.from_factors(params, [f, g])
    prod = f.negativity() * g.negativity()
    assert st.negativity() == prod
    word = [Gate.fourier(0), Gate.sum_(0, 1), Gate.phase(1), Gate.cz(0, 1)]
    evolved = st.apply_word(word).apply_displacement([1, 0, 0, 2])
    assert evolved.negativity() == prod  # exact: factors untouched


def test_negativity_matches_brute_force_grid():
    f = RealisticFactor.make(CodeState.logical(3, 0, 0.3))
    period = 3 * f.state.ell
    n = 1536
    xs = (np.arange(n) + 0.5) * period / n
    brute = float(np.abs(f.wigner_grid(xs, xs)).sum() * (period / n) ** 2)
    adaptive = f.negativity(1e-8)
    assert adaptive >= 1.0
    assert abs(adaptive - brute) / brute < 1e-7


def test_positive_state_negativity_is_one():
    # squeezed enough that the coarse scan finds no negative cell
    f = RealisticFactor.make(CodeState.logical(3, 0, 0.999))
    assert f.negativity() >= 1.0


@pytest.mark.parametrize("d,delta", [(3, 0.1), (3, 0.05), (5, 0.05)])
def test_high_squeezing_reaches_ideal_negativity(d, delta):
    # some sub-lattice blocks keep no term here; they must drop out, not crash
    assert abs(RealisticFactor.make(CodeState.logical(d, 0, delta)).negativity() - 1) < 1e-6
    state = CodeState.phase_state(d, delta)
    ket = np.array(state.eps)
    ideal = IdealFactor.from_density_matrix(CodeParams(d, 1), np.outer(ket, ket.conj()))
    assert abs(RealisticFactor.make(state).negativity() - ideal.negativity()) < 1e-6


def test_forty_db_phase_state_reaches_thirteen_ninths():
    # delta = 0.01 (40 dB): the ideal discrete-Wigner negativity 13/9 of the d = 3 phase state
    assert abs(RealisticFactor.make(CodeState.phase_state(3, 0.01)).negativity() - 13 / 9) < 1e-8


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
        f = RealisticFactor.make(CodeState.logical(3, 0, 0.45))
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
    # sharp peaks stress the grid envelope; must not raise
    st = realistic_input(CodeParams(3, 1), [CodeState.phase_state(3, 0.2)])
    pts, signs = sample_abs(st, 5, 8000)
    assert pts.shape == (8000, 2)
    assert set(np.unique(signs)) <= {-1.0, 1.0}
    assert (signs < 0).any()  # phase state has genuine negative mass


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
