import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zakgross import measure
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
from zakgross.symplectic import IntSymplectic
from zakgross.theta import CodeState
from zakgross.wigner import (
    BLOCK,
    IdealFactor,
    RealisticFactor,
    WignerState,
    ideal_input,
    realistic_input,
    sample_blocks,
    sample_input,
)


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
        .apply_ops([*random_word(rng, n, int(rng.integers(0, 8))),
                    IntSymplectic(shear),
                    *random_word(rng, n, int(rng.integers(0, 8))),
                    rng.integers(-4 * d, 4 * d, size=2 * n) / 2])
    )
    modes = tuple(int(m) for m in rng.permutation(n)[: int(rng.integers(1, n + 1))])
    spec = MeasurementSpec(modes, int(rng.integers(1, 2 * d + 2)))
    m2, _ = state.lattice_support()
    got = binner(state, spec)(m2 * (params.ell / 2))
    pushed = state.amap.push_lattice_half(m2, modes)
    want = (np.mod(pushed, 2 * d) * spec.K // (2 * d)).astype(np.int64)
    assert np.array_equal(got, np.ravel_multi_index(tuple(want.T), spec.table_shape()))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_streamed_push_bins_every_draw_as_the_full_frame_push(d):
    # mixed ideal and realistic factors under a random entangling word with an
    # explicit symplectic op and a non-integer displacement, over several
    # blocks: each factor's draws added into the measured positions as they
    # are drawn bin as sample_input's full-frame draws do, through the binner
    # and through the float push of the whole map
    rng = np.random.default_rng(d)
    n = 4
    params = CodeParams(d, n)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    factors = [IdealFactor.logical(d, 1),
               RealisticFactor(CodeState.phase_state(d, 0.3)),
               IdealFactor.from_density_matrix(CodeParams(d, 1), np.outer(psi, psi.conj())),
               RealisticFactor(CodeState.logical(d, 0, 0.25))]
    shear = np.eye(2 * n, dtype=object)
    shear[n + 1, 2] = shear[n + 2, 1] = 2
    shear[n + 3, 3] = -1
    disp = rng.integers(-2 * d, 2 * d, size=2 * n) / 2
    disp[2] = 0.37
    state = WignerState.from_factors(params, factors).apply_ops(
        [*random_word(rng, n, 12), IntSymplectic(shear), *random_word(rng, n, 12), disp])
    spec = MeasurementSpec((0, 2, 3), d)
    bins = binner(state, spec, 1e-4)
    count = 2 * BLOCK + 123
    streamed = np.concatenate([idx for idx, _ in sample_blocks(state, 5, count, bins.push)])
    pts, signs = sample_input(state, 5, count)
    assert np.array_equal(streamed, bins(pts))
    out = state.amap.push_float(pts)[:, list(spec.measured_modes)]
    by_float = bin_of_position(out, params.torus_period, spec.K)
    assert np.array_equal(streamed, np.ravel_multi_index(tuple(by_float.T), spec.table_shape()))
    assert np.unique(streamed).size > d and (signs < 0).any()


SUPPORT_CAP = 20_000  # enumerated support points per example at most


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([3, 5, 7, 9]))
@example(seed=1, d=3)  # the convolution's gathers at every d, whatever else is drawn
@example(seed=2, d=5)
@example(seed=3, d=7)
@example(seed=3, d=9)
def test_exact_table_equals_the_binned_lattice_support(seed, d):
    # the enumeration is the reference: every support point, pushed and
    # binned by the binner, its signed weights added per bin by math.fsum
    # (added in order, as np.bincount does, they err by up to 1.3e-12 here)
    rng = np.random.default_rng(seed)
    n = min(int(rng.integers(1, 7)), int(np.log(SUPPORT_CAP) / np.log(d)))
    params = CodeParams(d, n)
    kets, size = [], 1
    for _ in range(n):
        if size * d * d <= SUPPORT_CAP and rng.random() < 0.4:
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            kets.append(np.outer(psi, psi.conj()))  # a signed d x d table
            size *= d * d
        else:
            kets.append(int(rng.integers(d)))
            size *= d
    shear = np.eye(2 * n, dtype=object)
    i, j = (int(v) for v in rng.integers(n, size=2))
    a = int(rng.integers(-5, 6))
    shear[i, n + j] += a
    if i != j:
        shear[j, n + i] += a
    disp = rng.integers(-2 * d, 2 * d, size=2 * n) / 2
    disp[int(rng.integers(2 * n))] = 0.3  # off the lattice
    state = (
        ideal_input(params, kets)
        .apply_ops([*random_word(rng, n, int(rng.integers(0, 12))),
                    IntSymplectic(shear),
                    *random_word(rng, n, int(rng.integers(0, 12))),
                    disp])
    )
    r = int(rng.integers(1, min(n, 3) + 1))  # (2d)^r bins stay small
    modes = tuple(int(m) for m in rng.permutation(n)[:r])
    spec = MeasurementSpec(modes, int(rng.choice([1, 2, 3, d, 2 * d, 7])))
    m2, weights = state.lattice_support()
    joint = binner(state, spec)(m2 * (params.ell / 2))
    order = np.argsort(joint, kind="stable")
    hit, starts = np.unique(joint[order], return_index=True)
    want = np.zeros(spec.K ** len(modes))
    want[hit] = [math.fsum(part) for part in np.split(weights[order], starts[1:])]
    got = exact_probabilities_ideal(state, spec)
    assert np.max(np.abs(got.ravel() - want)) <= 1e-12
    # the convolution on Z_d^r too, whichever sum the table picked here
    by_convolution = measure._table(spec, *measure._convolution_terms(state, binner(state, spec)))
    assert np.max(np.abs(by_convolution.ravel() - want)) <= 1e-12


def test_convolution_holds_a_fixed_multiple_of_its_grid(monkeypatch):
    # six d = 5 density tables, all measured: 25 support points a factor,
    # whose gather indices held at once would be 25 copies of the (d^r, r) grid
    d, n = 5, 6
    rng = np.random.default_rng(4)
    kets = []
    for _ in range(n):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        kets.append(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    state = ideal_input(CodeParams(d, n), kets).apply_ops(random_word(rng, n, 3 * n))
    bins = binner(state, MeasurementSpec(tuple(range(n)), 1))
    grid = d ** n * n * 8  # bytes of the int64 (d^r, r) grid
    tracemalloc.start()
    try:
        joint, mass = measure._convolution_terms(state, bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * grid
    # the chunked gathers add in support order: one gather a factor gives the same bits
    monkeypatch.setattr(measure, "GATHER_CELLS", 2 ** 40)
    whole = measure._convolution_terms(state, bins)
    assert np.array_equal(whole[0], joint) and whole[1].tobytes() == mass.tobytes()
    assert math.isclose(mass.sum(), 1.0, abs_tol=1e-12)


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
    st = ideal_input(params, [0]).apply_ops([Gate("F", (0,))])
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
        st = ideal_input(params, kets).apply_ops(word)
        p = exact_probabilities_ideal(st, MeasurementSpec((0, 1), d))
        po = clifford_oracle_probabilities(params, kets, word, (0, 1))
        assert np.max(np.abs(p - po)) < 1e-12


def test_ideal_with_lattice_displacement():
    params = CodeParams(5, 1)
    st = ideal_input(params, [2]).apply_ops([[3, 0]])  # X^3
    p = exact_probabilities_ideal(st, MeasurementSpec((0,), 5))
    want = np.zeros(5)
    want[0] = 1.0  # 2 + 3 = 0 mod 5
    assert np.allclose(p, want, atol=1e-14)


def test_marginalization_matches_single_mode():
    params = CodeParams(3, 2)
    st2 = ideal_input(params, [1, 2]).apply_ops([Gate("F", (1,))])
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
    word = [Gate("F", (0,)), Gate("SUM", (0, 1))]
    st = ideal_input(params, [0, 1]).apply_ops(word)
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
    st = realistic_input(params, [state]).apply_ops([[1, 2]])
    q = quadrature_probabilities(st, MeasurementSpec((0,), 6))
    w = wavefunction_bin_probabilities(factor, 6, shift=params.ell)
    assert np.max(np.abs(q - w)) < 1e-8


LARGE_OFFSETS = {"1e16": 1e16, "1e20": 1e20, "400-digit": 10 ** 399 + 1}
MIXED_OFFSETS = {**LARGE_OFFSETS, "third": Fraction(10 ** 20 + 1, 3), "half": 0.5, "0.3": 0.3}


@pytest.mark.parametrize("mixed, K, c", [
    *(pytest.param(False, 3, c, id=name) for name, c in LARGE_OFFSETS.items()),
    *(pytest.param(True, K, c, id=f"mixed-K{K}-{name}")
      for K in (3, 4, 6) for name, c in MIXED_OFFSETS.items()),
])
def test_quadrature_reduces_a_large_displacement_mod_d(mixed, K, c):
    # the offset is reduced mod d exactly before it becomes a float: on a
    # squeezed mode alone, and on an ideal mode (binned by a one-mode binner)
    # measured beside a squeezed one
    squeezed = RealisticFactor(CodeState.logical(3, 0, 0.3))
    factors = [IdealFactor.logical(3, 1), squeezed] if mixed else [squeezed]
    st = WignerState.from_factors(CodeParams(3, len(factors)), factors)
    spec = MeasurementSpec(tuple(range(len(factors))), K)
    rest = (0,) * (2 * len(factors) - 1)
    far = exact_probabilities(st.apply_ops([(c, *rest)]), spec)
    near = exact_probabilities(st.apply_ops([(c % 3, *rest)]), spec)
    if mixed:
        assert np.array_equal(far, near)
    assert np.max(np.abs(far - near)) <= 1e-12


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
    entangled = real.apply_ops([Gate("F", (0,))])
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
    for modes in ((0.7, True), (0, True), (1.0,), ("0",)):
        with pytest.raises(ValueError, match="mode indices must be integers"):
            MeasurementSpec(modes, 3)
    assert MeasurementSpec([np.int64(1)], np.int64(4)) == MeasurementSpec((1,), 4)
