import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakgross.qudit import CodeParams, Gate, clifford_oracle_probabilities
from zakgross.measure import (
    MeasurementSpec,
    bin_of_position,
    binner,
    exact_probabilities,
    exact_probabilities_ideal,
    quadrature_probabilities,
)
from zakgross.oracles import povm_indicator, random_word, wavefunction_bin_probabilities
from zakgross.theta import CodeState
from zakgross.wigner import RealisticFactor, ideal_input, realistic_input


def test_bin_arithmetic():
    params = CodeParams(3, 1)
    period = params.torus_period
    ell = params.ell
    # support point at coordinate ell with K=3 lands in bin 1
    assert bin_of_position(ell, period, 3) == 1
    # half-open edges: a value exactly on an edge belongs to its right bin
    assert bin_of_position(period / 3, period, 3) == 1
    assert bin_of_position(0.0, period, 3) == 0
    assert bin_of_position(period, period, 3) == 0  # wraps


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_float_rule_matches_integer_rule_on_half_lattice(d):
    # every half-lattice point m ell / 2, moved by up to 4 ulp either way,
    # lands in the bin the integer rule (m mod 2d) * K // 2d gives it
    params = CodeParams(d, 1)
    period = params.torus_period
    m = np.arange(-4 * d, 4 * d + 1)
    exact = m * params.ell / 2
    moved = [exact]
    for direction in (np.inf, -np.inf):
        x = exact
        for _ in range(4):
            x = np.nextafter(x, direction)
            moved.append(x)
    for k in range(1, 2 * d + 2):
        want = np.mod(m, 2 * d) * k // (2 * d)
        for x in moved:
            assert np.array_equal(bin_of_position(x, period, k), want), (k, x)
    # a push that should give 0 and gives -4.4e-16 is in bin 0, not the last
    assert bin_of_position(-4.4e-16, period, 3) == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10 ** 6),
    d=st.sampled_from([3, 5, 7, 9]),
    a=st.integers(-10 ** 30, 10 ** 30),
)
def test_binner_is_exact_push_on_lattice_support(seed, d, a):
    # one shear with entries up to 1e30 inside a random word, then a
    # half-integer displacement; push_lattice_half is the exact reference
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    params = CodeParams(d, n)
    i, j = (int(v) for v in rng.integers(n, size=2))
    shear = np.eye(2 * n, dtype=object)
    shear[i, n + j] += a
    shear[j, n + i] += a * (i != j)
    state = (
        ideal_input(params, [int(v) for v in rng.integers(d, size=n)])
        .apply_word(random_word(rng, n, int(rng.integers(0, 8))))
        .apply_symplectic(shear)
        .apply_word(random_word(rng, n, int(rng.integers(0, 8))))
        .apply_displacement(rng.integers(-4 * d, 4 * d, size=2 * n) / 2)
    )
    modes = tuple(int(m) for m in rng.permutation(n)[: int(rng.integers(1, n + 1))])
    spec = MeasurementSpec(modes, int(rng.integers(1, 2 * d + 2)))
    m2, _ = state.lattice_support()
    got = binner(state, spec)(m2 * (params.ell / 2))
    pushed = state.amap.push_lattice_half(m2, modes)
    want = (np.mod(pushed, 2 * d) * spec.K // (2 * d)).astype(np.int64)
    assert np.array_equal(got, np.ravel_multi_index(tuple(want.T), spec.table_shape()))


def test_povm_indicator_single_bin_always_one():
    params = CodeParams(3, 2)
    spec = MeasurementSpec((0, 1), 1)
    rng = np.random.default_rng(0)
    eta = rng.random((20, 4)) * params.torus_period
    assert np.all(povm_indicator(spec, params.torus_period, (0, 0), eta) == 1.0)


def test_povm_indicator_selects_bins():
    params = CodeParams(3, 2)
    spec = MeasurementSpec((0, 1), 3)
    ell, period = params.ell, params.torus_period
    eta = np.array([
        [0.1 * ell, 1.2 * ell, 0.0, 0.0],
        [2.5 * ell, 0.3 * ell, 0.0, 0.0],
    ])
    assert povm_indicator(spec, period, (0, 1), eta).tolist() == [1.0, 0.0]
    assert povm_indicator(spec, period, (2, 0), eta).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        povm_indicator(spec, period, (0,), eta)
    with pytest.raises(ValueError):
        povm_indicator(spec, period, (0, 3), eta)


def test_logical_zero_is_deterministic():
    params = CodeParams(3, 1)
    st = ideal_input(params, [0])
    p = exact_probabilities_ideal(st, MeasurementSpec((0,), 3))
    assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-14)


def test_fourier_gives_uniform():
    params = CodeParams(3, 1)
    st = ideal_input(params, [0]).apply_gate(Gate.fourier(0))
    p = exact_probabilities_ideal(st, MeasurementSpec((0,), 3))
    assert np.allclose(p, 1 / 3, atol=1e-12)


@pytest.mark.parametrize("d", [3, 5])
def test_ideal_matches_dense_oracle_random_words(d):
    rng = np.random.default_rng(d)
    params = CodeParams(d, 2)
    tags = ["F", "P", "SUM", "CZ", "X", "Z"]
    for _trial in range(20):
        kets = [int(rng.integers(d)) for _ in range(2)]
        word = []
        for _ in range(int(rng.integers(1, 9))):
            t = tags[int(rng.integers(len(tags)))]
            i = int(rng.integers(2))
            if t in ("SUM", "CZ"):
                j = int(1 - i)
                word.append(Gate(t, (i, j)))
            else:
                word.append(Gate(t, (i,)))
        st = ideal_input(params, kets).apply_word(word)
        p = exact_probabilities_ideal(st, MeasurementSpec((0, 1), d))
        po = clifford_oracle_probabilities(params, kets, word, (0, 1))
        assert np.max(np.abs(p - po)) < 1e-12


def test_ideal_with_lattice_displacement():
    params = CodeParams(5, 1)
    st = ideal_input(params, [2]).apply_displacement([3, 0])  # X^3
    p = exact_probabilities_ideal(st, MeasurementSpec((0,), 5))
    want = np.zeros(5)
    want[0] = 1.0  # 2 + 3 = 0 mod 5
    assert np.allclose(p, want, atol=1e-14)


def test_marginalization_matches_single_mode():
    params = CodeParams(3, 2)
    st2 = ideal_input(params, [1, 2]).apply_gate(Gate.fourier(1))
    p_joint = exact_probabilities_ideal(st2, MeasurementSpec((0, 1), 3))
    p_mode0 = exact_probabilities_ideal(st2, MeasurementSpec((0,), 3))
    assert np.allclose(p_joint.sum(axis=1), p_mode0, atol=1e-12)
    params1 = CodeParams(3, 1)
    st1 = ideal_input(params1, [1])
    p_single = exact_probabilities_ideal(st1, MeasurementSpec((0,), 3))
    assert np.allclose(p_mode0, p_single, atol=1e-12)


def test_measured_mode_order_sets_axes():
    params = CodeParams(3, 2)
    st = ideal_input(params, [1, 2])
    p01 = exact_probabilities_ideal(st, MeasurementSpec((0, 1), 3))
    p10 = exact_probabilities_ideal(st, MeasurementSpec((1, 0), 3))
    assert np.allclose(p01, p10.T, atol=1e-14)


def test_bin_refinement_ideal():
    params = CodeParams(3, 2)
    word = [Gate.fourier(0), Gate.sum_(0, 1)]
    st = ideal_input(params, [0, 1]).apply_word(word)
    coarse = exact_probabilities_ideal(st, MeasurementSpec((0,), 3))
    fine = exact_probabilities_ideal(st, MeasurementSpec((0,), 6))
    assert np.max(np.abs(coarse - fine.reshape(3, 2).sum(axis=1))) < 1e-12


def test_bin_refinement_quadrature():
    params = CodeParams(3, 1)
    st = realistic_input(params, [CodeState.logical(3, 1, 0.35)])
    coarse = quadrature_probabilities(st, MeasurementSpec((0,), 3))
    fine = quadrature_probabilities(st, MeasurementSpec((0,), 6))
    assert np.max(np.abs(coarse - fine.reshape(3, 2).sum(axis=1))) < 1e-8


def test_quadrature_matches_wavefunction_oracle():
    params = CodeParams(3, 1)
    for j, delta in ((0, 0.3), (1, 0.4)):
        factor = RealisticFactor(CodeState.logical(3, j, delta))
        st = realistic_input(params, [CodeState.logical(3, j, delta)])
        q = quadrature_probabilities(st, MeasurementSpec((0,), 3))
        w = wavefunction_bin_probabilities(factor, 3)
        assert np.max(np.abs(q - w)) < 1e-8


def test_quadrature_with_displacement_matches_shifted_oracle():
    params = CodeParams(3, 1)
    state = CodeState.phase_state(3, 0.35)
    factor = RealisticFactor(state)
    st = realistic_input(params, [state]).apply_displacement([1, 2])
    q = quadrature_probabilities(st, MeasurementSpec((0,), 6))
    w = wavefunction_bin_probabilities(factor, 6, shift=params.ell)
    assert np.max(np.abs(q - w)) < 1e-8


def test_mixed_product_factorizes():
    params = CodeParams(3, 2)
    cs = CodeState.logical(3, 2, 0.35)
    st = ideal_input(CodeParams(3, 1), [1])
    mixed = st.from_factors(
        params,
        [st.factors[0], RealisticFactor(cs)],
    )
    p = exact_probabilities(mixed, MeasurementSpec((0, 1), 3))
    p_ideal = np.array([0.0, 1.0, 0.0])
    p_real = quadrature_probabilities(
        realistic_input(CodeParams(3, 1), [cs]),
        MeasurementSpec((0,), 3),
    )
    assert np.max(np.abs(p - np.outer(p_ideal, p_real))) < 1e-9


def test_dispatch_and_errors():
    params = CodeParams(3, 1)
    ideal = ideal_input(params, [0])
    real = realistic_input(params, [CodeState.logical(3, 0, 0.4)])
    spec = MeasurementSpec((0,), 3)
    # dispatcher picks the ideal path
    assert np.allclose(
        exact_probabilities(ideal, spec),
        exact_probabilities_ideal(ideal, spec),
    )
    # entangling map on realistic input has no exact path
    entangled = real.apply_gate(Gate.fourier(0))
    with pytest.raises(ValueError, match="estimator"):
        exact_probabilities(entangled, spec)
    with pytest.raises(ValueError, match="ideal"):
        exact_probabilities_ideal(real, spec)
    with pytest.raises(ValueError):
        exact_probabilities(ideal, MeasurementSpec((1,), 3))  # mode range


def test_spec_validation():
    with pytest.raises(ValueError):
        MeasurementSpec((), 3)
    with pytest.raises(ValueError):
        MeasurementSpec((0, 0), 3)
    with pytest.raises(ValueError):
        MeasurementSpec((0,), 0)
    with pytest.raises(ValueError):
        MeasurementSpec((-1,), 3)
    for k in (2.5, True, "3"):
        with pytest.raises(ValueError, match="positive integer"):
            MeasurementSpec((0,), k)
    assert MeasurementSpec([np.int64(1)], np.int64(4)) == MeasurementSpec((1,), 4)
