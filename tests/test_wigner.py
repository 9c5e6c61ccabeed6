import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from zakgross import theta, wigner
from zakgross.oracles import check_realistic_sampler, z_factor_sum
from zakgross.qudit import CodeParams, Gate
from zakgross.symplectic import AffineMap, generator_symplectic
from zakgross.theta import CodeState
from zakgross.wigner import (
    BLOCK,
    IdealFactor,
    RealisticFactor,
    SplitMix64,
    WignerState,
    full_frame,
    ideal_input,
    realistic_input,
    sample_abs,
    sample_blocks,
    sample_input,
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


def test_density_with_a_negative_eigenvalue_is_refused():
    rho = np.diag([1.5, -0.5, 0.0])  # Hermitian, unit trace, not positive
    with pytest.raises(ValueError, match="not positive semidefinite"):
        IdealFactor.from_density_matrix(CodeParams(3, 1), rho)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        ideal_input(CodeParams(3, 1), [rho])


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
    word = [Gate("F", (0,)), Gate("SUM", (0, 1)), Gate("P", (1,)), Gate("CZ", (0, 1))]
    evolved = st.apply_ops([*word, [1, 0, 0, 2]])
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
    evolved = st.apply_ops([Gate("F", (0,)), Gate("P", (0,))])
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
    sF, _c = generator_symplectic(Gate("F", (0,)), params)
    st = realistic_input(params, [CodeState.logical(3, 0, 0.4)])
    via_gate = st.apply_ops([Gate("F", (0,))])
    via_mat = st.apply_ops([sF])
    assert np.array_equal(via_gate.amap.S.mat, via_mat.amap.S.mat)


def test_apply_symplectic_rejects_bad_matrix():
    st = ideal_input(CodeParams(3, 1), [0])
    from zakgross.symplectic import IntSymplectic, NotSymplectic

    with pytest.raises(NotSymplectic):
        st.apply_ops([IntSymplectic(np.array([[1, 1], [1, 1]]))])
    with pytest.raises(ValueError, match="not a finite real"):
        st.apply_ops([np.array([[1, 0], [0, 1]])])  # a bare matrix is not an op


def test_displacement_roundtrip_restores_identity():
    params = CodeParams(3, 2)
    st = ideal_input(params, [0, 1])
    fwd = st.apply_ops([[1, 2, 0, 1]]).apply_ops([[-1, -2, 0, -1]])
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


NEGATIVITY_STATES = [
    CodeState.phase_state(3, 0.5),
    CodeState.phase_state(7, 0.5),
    CodeState.logical(3, 0, 0.25),
]


@pytest.mark.parametrize("n", [512, 1024, 2048])
@pytest.mark.parametrize("state", NEGATIVITY_STATES, ids=lambda st: f"d{st.d}-{st.delta}")
def test_blocked_negative_mass_matches_the_dense_grid(state, n):
    f = RealisticFactor(state)
    xs = theta.cell_midpoints(state.d * state.ell, n)
    dense = float(-np.minimum(f.wigner_grid(xs, xs), 0.0).sum())
    tiled = theta.negative_sum(state, n) / (state.d * f.norm)
    assert dense > 0 and abs(tiled - dense) <= 1e-12 * dense


@pytest.mark.parametrize("state", NEGATIVITY_STATES, ids=lambda st: f"d{st.d}-{st.delta}")
def test_one_whole_grid_block_gives_the_blocked_negativity(state):
    f = RealisticFactor(state)
    whole = wigner._abs_integral(lambda xs: float(-np.minimum(f.wigner_grid(xs, xs), 0.0).sum()),
                                 state.d * state.ell, 1e-6)
    assert abs(whole - wigner._negativity.__wrapped__(state, 1e-6)) <= 1e-12 * whole


TILE_RULE_STATES = [
    CodeState.logical(d, 0, delta) if kind == "logical" else CodeState.phase_state(d, delta)
    for d in (3, 5, 7, 9) for kind in ("logical", "phase") for delta in (1.0, 0.5, 0.25, 0.1, 0.05)
]


@pytest.mark.parametrize("n", [512, 1000])  # 1000 is no multiple of TILE: refused
@pytest.mark.parametrize("state", TILE_RULE_STATES,
                         ids=lambda st: f"d{st.d}-{'logical' if st.eps[0] == 1 else 'phase'}"
                                        f"-{st.delta}")
def test_tile_rule_matches_the_dense_grid_and_its_signs_hold(state, n):
    if n % theta.TILE:
        with pytest.raises(ValueError, match="multiple of TILE"):
            theta.negative_sum(state, n)
        return
    f = RealisticFactor(state)
    xs = theta.cell_midpoints(state.d * state.ell, n)
    series = theta._series(state)
    # the level's own F and H: the grid FFT is held to the literal sum elsewhere
    f_x, h_z = theta._x_factor(series, xs), theta._z_midpoints(series.u, series.kz, n)
    dense = f_x @ h_z.T / (state.d * f.norm)
    tiles = (n // theta.TILE, theta.TILE, -1)
    negative, undecided = theta._tile_signs(f_x.reshape(tiles), h_z.reshape(tiles))
    tile = np.arange(n) // theta.TILE
    on_grid = np.ix_(tile, tile)
    assert np.all(dense[negative[on_grid]] < 0.0)
    assert np.all(dense[~(negative | undecided)[on_grid]] >= 0.0)
    expect = float(-np.minimum(dense, 0.0).sum())
    got = theta.negative_sum(state, n) / (state.d * f.norm)
    assert abs(got - expect) <= 1e-12 * expect


def test_tile_rule_evaluates_a_small_share_of_the_level():
    state = CodeState.phase_state(3, 0.5)
    xs = theta.cell_midpoints(state.d * state.ell, 2048)
    series = theta._series(state)
    h_z = theta._z_midpoints(series.u, series.kz, 2048)
    tiles = (2048 // theta.TILE, theta.TILE, -1)
    _negative, undecided = theta._tile_signs(theta._x_factor(series, xs).reshape(tiles),
                                             h_z.reshape(tiles))
    evaluated = np.count_nonzero(undecided) * theta.TILE ** 2  # negative_sum evaluates these
    assert evaluated <= 0.15 * 2048 ** 2


@pytest.mark.parametrize("state, tol, top", [
    (CodeState.phase_state(3, 0.5), 1e-6, 2048),
    (CodeState.logical(3, 0, 0.5), 1e-7, 4096),  # a dense 4096^2 level is 128 MiB
])
def test_negativity_never_holds_a_whole_level(monkeypatch, state, tol, top):
    levels = []

    def recorded(st, n):
        levels.append(n)
        return theta.negative_sum(st, n)

    monkeypatch.setattr(wigner, "negative_sum", recorded)
    RealisticFactor(state)  # the series is cached; measure the integral alone
    tracemalloc.start()
    try:
        m = wigner._negativity.__wrapped__(state, tol)  # bypasses the value cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(levels) == top and m > 1.0
    assert peak <= 8 * 2 ** 20


@pytest.mark.parametrize("case", ["sample", "negativity"])
def test_z_half_holds_no_per_point_phase_table(case):
    if case == "sample":
        st = realistic_input(CodeParams(3, 1), [CodeState.logical(3, 0, 0.25)])
        sample_input(st, 1, 100)  # builds the series, the envelope and the z table

        def run():
            return sample_input(st, 1, 8141)
    else:
        state = CodeState.phase_state(7, 0.01)
        RealisticFactor(state)  # the series is cached; measure the integral alone

        def run():
            return wigner._negativity.__wrapped__(state, wigner.NEGATIVITY_TOL)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_a_sampler_stream_holds_no_per_proposal_class_array():
    # 100k draws in one call: the scorer's (proposals, 2d) temporaries are chunked
    st = realistic_input(CodeParams(3, 1), [CodeState.phase_state(3, 0.5)])
    push = full_frame(1)
    for _ in sample_blocks(st, 1, 100, push):  # builds the series and the tables
        pass
    tracemalloc.start()
    try:
        for _ in sample_blocks(st, 1, 100_000, push):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def full_draw(draw, n, count, rng):
    """A sampler's next count draws as (input-frame points (count, 2n), signs)."""
    take, done = full_frame(n)(count)
    return done(draw(count, rng, take))


class CountedNormals:
    """A generator that counts its Gaussian draws: the sampler takes one per proposal."""

    def __init__(self, seed):
        self.rng, self.normals = np.random.default_rng(seed), 0

    def random(self, size):
        return self.rng.random(size)

    def standard_normal(self, size):
        self.normals += size
        return self.rng.standard_normal(size)


def test_each_proposal_computes_its_x_half_once(monkeypatch):
    sampler = realistic_input(CodeParams(3, 1), [CodeState.phase_state(3, 0.5)]).sampler()
    seen = []
    x_factor = theta._x_factor

    def counted(series, x):
        seen.append(x.size)
        return x_factor(series, x)

    monkeypatch.setattr(theta, "_x_factor", counted)
    rng = CountedNormals(3)
    pts, _signs = full_draw(sampler, 1, 20_000, rng)
    assert pts.shape == (20_000, 2) and rng.normals > 20_000
    assert sum(seen) == rng.normals


def test_sampler_lays_out_each_factors_own_draws():
    # x of every mode, then z of every mode; signs multiply over the modes
    factors = [IdealFactor.from_density_matrix(CodeParams(3, 1), np.diag([0.5, 0.25, 0.25])),
               RealisticFactor(CodeState.phase_state(3, 0.4)),
               RealisticFactor(CodeState.logical(3, 0, 0.3))]
    joint = WignerState.from_factors(CodeParams(3, 3), factors).sampler()
    pts, signs = full_draw(joint, 3, 5000, np.random.default_rng(11))
    rng = np.random.default_rng(11)  # each factor draws from the stream in mode order
    expect_signs = np.ones(5000)
    for i, f in enumerate(factors):
        own, own_signs = full_draw(WignerState.from_factors(CodeParams(3, 1), [f]).sampler(),
                                   1, 5000, rng)
        assert np.array_equal(pts[:, i], own[:, 0]) and np.array_equal(pts[:, 3 + i], own[:, 1])
        expect_signs *= own_signs
    assert np.array_equal(signs, expect_signs) and (signs < 0).any()


def test_refinement_that_never_settles_reports_its_last_two_levels():
    # negative mass 1 / n on an n^2 grid of one period: the levels halve forever
    with pytest.raises(RuntimeError) as exc:
        wigner._abs_integral(lambda xs: float(xs.size), 1.0, 1e-6)
    got = re.search(r"below 1\.0e-06: (\S+) -> (\S+) at 4096\^2 points, a change of (\S+)$",
                    str(exc.value))
    assert got is not None, str(exc.value)
    assert [float(v) for v in got.groups()] == [1 / 2048, 1 / 4096, float(f"{1 / 4096:.1e}")]


def test_draws_are_a_prefix_whatever_the_count():
    # one generator per seed: a larger count only draws further
    st = realistic_input(CodeParams(3, 1), [CodeState.phase_state(3, 0.5)])
    k = 50 * BLOCK
    pts, signs = sample_input(st, 6, 2 * k)
    want_pts, want_signs = sample_input(st, 6, k)
    assert np.array_equal(pts[:k], want_pts) and np.array_equal(signs[:k], want_signs)


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


def test_splitmix64_outputs_are_the_published_values():
    # the reference SplitMix64 (Steele, Lea & Flood 2014) seeded with 1234567
    want = [6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]
    assert SplitMix64(1234567).bits(5).tolist() == want
    assert SplitMix64(1234567).random(5).tolist() == [(v >> 11) * 2.0 ** -53 for v in want]


def splitmix64_reference(seed, count):
    """The published SplitMix64 step in Python integers, masked to 64 bits."""
    mask, out = 2 ** 64 - 1, []
    for _ in range(count):
        seed = (seed + 0x9E3779B97F4A7C15) & mask
        z = ((seed ^ (seed >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_uint64_stream_wraps_as_the_integer_reference(seed):
    rng = SplitMix64(seed)
    rng.bits(7)  # a later stretch of the stream, from its counter
    assert rng.bits(300).tolist() == splitmix64_reference(seed, 307)[7:]


def test_any_split_of_a_stream_draws_the_same_uniforms():
    whole = SplitMix64(99).random(1000)
    for sizes in ([1000], [1, 999], [0, 500, 0, 500], [3, 7, 90, 400, 500]):
        rng = SplitMix64(99)
        assert np.array_equal(np.concatenate([rng.random(k) for k in sizes]), whole)


class GivenBits(SplitMix64):
    """A stream whose outputs are the listed 64-bit words."""

    def __init__(self, words):
        super().__init__(0)
        self.words = np.array(words, dtype=np.uint64)

    def bits(self, n):
        return self.words[:n]


def test_uniforms_lie_in_the_half_open_unit_interval():
    least, greatest = 0, 2 ** 64 - 1
    assert GivenBits([least, greatest]).random(2).tolist() == [0.0, 1.0 - 2.0 ** -53]
    u = SplitMix64(5).random(10 ** 6)
    assert 0.0 <= u.min() and u.max() < 1.0
    # radii from u = 0 and 1 - 2^-53: log1p(-u) is 0 and -53 ln 2, never a log of 0
    radii = np.abs(GivenBits([least, greatest] * 2).standard_normal(4)[:2])
    assert np.allclose(radii, [0.0, np.sqrt(106 * np.log(2))])


def test_normals_have_the_standard_moments():
    n = 10 ** 6
    x = SplitMix64(2026).standard_normal(n)
    assert x.shape == (n,) and SplitMix64(2026).standard_normal(7).shape == (7,)
    # E x = 0, E x^2 = 1 and E x^4 = 3, with variances 1, 2 and 105 - 9 = 96 per draw
    for got, want, var in ((x.mean(), 0.0, 1.0), ((x * x).mean(), 1.0, 2.0),
                           ((x ** 4).mean(), 3.0, 96.0)):
        assert abs(got - want) <= 5 * np.sqrt(var / n)


def box_muller(u):
    """The textbook transform of 2k uniforms: k values r cos, then k values r sin."""
    k = u.size // 2
    r, theta = np.sqrt(-2.0 * np.log1p(-u[:k])), 2.0 * np.pi * u[k:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])


def test_normals_are_box_muller_of_their_uniforms():
    # cos and sin from one tangent agree with the trigonometric form to rounding,
    # at the tangent's pole (u = 1/2 for the angle) and beside it too
    half, top = 2 ** 52, 2 ** 53  # uniforms in units of 2^-53
    radii = [top // 3, top - 1, 7, half, 12345, top // 5, half + 17, 1]
    angles = [0, 1, half // 2, half - 1, half, half + 1, 3 * half // 2, top - 1]
    words = [v << 11 for v in radii + angles]
    for make, n in ((lambda: GivenBits(words), 16), (lambda: SplitMix64(8), 10 ** 5)):
        assert np.max(np.abs(make().standard_normal(n) - box_muller(make().random(n)))) <= 1e-14


def test_ideal_picks_pass_a_chi_square_test_against_their_weights():
    ket = np.array([1.0, 2.0, -1.5]) / np.sqrt(7.25)
    factor = IdealFactor.from_density_matrix(CodeParams(3, 1), np.outer(ket, ket))
    tx, tz = np.nonzero(factor.table)
    weights = factor.table[tx, tz]
    probs = np.abs(weights) / np.abs(weights).sum()
    n = 200_000
    pts, signs = sample_input(ideal_input(CodeParams(3, 1), [np.outer(ket, ket)]), 17, n)
    t = np.rint(pts / CodeParams(3, 1).ell).astype(int)
    pick = np.flatnonzero((t[:, :1] == tx) & (t[:, 1:] == tz)) % tx.size  # the row per draw
    assert pick.size == n and np.array_equal(signs, np.sign(weights)[pick])
    counts = np.bincount(pick, minlength=tx.size)
    stat = float(((counts - n * probs) ** 2 / (n * probs)).sum())
    p_value = mpmath.gammainc((tx.size - 1) / 2, stat / 2, mpmath.inf, regularized=True)
    assert (weights < 0).any() and p_value > 1e-4


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_a_seed_the_stream_cannot_key_is_refused(seed):
    st = ideal_input(CodeParams(3, 1), [0])
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        next(sample_blocks(st, seed, 10, full_frame(1)))
    assert len(sample_input(st, 2 ** 64 - 1, 10)[1]) == 10  # the largest seed draws


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
    # the alias table spans the C x N live (class, cell) pairs, like the bound
    assert env.keep.shape == env.alias.shape == (env.bound.size,) and env.mass > 0
    assert env.bound.shape[0] == env.series.live.size == 2


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
    # the table bounds every |h_c| (the literal sum) on a probe grid 16 times finer than its cells
    bound = theta.abs_envelope(state).bound
    probe = np.arange(16 * bound.shape[1])
    h = z_factor_sum(theta._series(state), probe * period / probe.size)
    assert np.all(np.abs(h) <= bound[:, probe // 16].T)
    # 100k draws; the sampler raises EnvelopeViolated on any draw above the envelope
    pts, signs = sample_input(realistic_input(CodeParams(d, 1), [state]), 1, 100_000)
    # E[s 1_b] = p_b / M and E[s] = 1 / M, so s (1_b - p_b) has mean 0 in every
    # bin b, and variance q_b (1 - 2 p_b) + p_b^2 for the |W| share q_b >= |p_b| / M
    bins, scale = 32, d * RealisticFactor(state).norm
    masses = (theta.x_bin_integrals(state, theta.cell_midpoints(period, bins)),
              z_bin_integrals(state, bins))
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
    evolved = st.apply_ops([Gate("F", (0,)), Gate("P", (0,)), Gate("X", (0,))])
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


def test_ideal_table_with_a_nan_is_refused():
    with pytest.raises(ValueError, match="table sums to nan"):
        IdealFactor(np.full((3, 3), np.nan))


def test_ideal_input_refuses_a_non_finite_density_matrix():
    with pytest.raises(ValueError, match="rho has non-finite entries"):
        ideal_input(CodeParams(3, 1), [np.full((3, 3), np.nan)])


@pytest.mark.parametrize("j", [3, 5, -1, 0.7, 1.0, True, "1"])
def test_logical_index_outside_range_or_not_an_integer_is_refused(j):
    builds = (
        lambda: IdealFactor.logical(3, j),
        lambda: CodeState.logical(3, j, 0.3),
        lambda: ideal_input(CodeParams(3, 1), [j]),
    )
    for build in builds:
        with pytest.raises(ValueError, match="logical index"):
            build()
    two = np.int64(2)
    assert np.array_equal(IdealFactor.logical(3, two).table, IdealFactor.logical(3, 2).table)
    assert CodeState.logical(3, two, 0.3) == CodeState.logical(3, 2, 0.3)


def test_state_params_are_the_maps():
    params = CodeParams(3, 2)
    st = (
        realistic_input(params, [CodeState.logical(3, 0, 0.4), CodeState.phase_state(3, 0.4)])
        .apply_ops([Gate("F", (0,)), Gate("SUM", (0, 1)), [1, 0, 0.5, 0]])
    )
    assert st.params is st.amap.params is params


def test_realistic_factor_norm_is_the_series_norm():
    for state in (CodeState.logical(3, 0, 0.3), CodeState.phase_state(5, 0.5)):
        assert RealisticFactor(state).norm == theta.code_state_norm(state)
    assert abs(RealisticFactor(CodeState.logical(3, 0, 0.3)).norm - 0.728) < 1e-3


def test_bad_realistic_state_fails_where_the_factor_is_made():
    with pytest.raises(theta.TruncationOverflow):
        RealisticFactor(CodeState.logical(9, 0, 0.01))
