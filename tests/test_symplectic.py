"""Exact symplectic algebra: generator blocks, shifts, affine maps, decompose."""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakgross.oracles import (
    ONE_MODE,
    TWO_MODE,
    covariance_shift,
    parity_identity_holds,
    shift_over_ell,
)
from zakgross.qudit import (
    CodeParams,
    Gate,
    pauli_displacement,
)
from zakgross.symplectic import (
    AffineMap,
    IntSymplectic,
    NotInteger,
    NotSymplectic,
    decompose,
    generator_symplectic,
    symplectic_form,
    t_bar,
    word_symplectic,
)

ALL_TAGS = ["F", "F_inv", "P", "P_inv", "SUM", "SUM_inv", "CZ", "CZ_inv"]


def random_word(rng, n, length, tags=ALL_TAGS):
    if n == 1:
        tags = [t for t in tags if t in ("F", "F_inv", "P", "P_inv")]
    word = []
    for _ in range(length):
        name = tags[rng.integers(0, len(tags))]
        if name in ("SUM", "SUM_inv", "CZ", "CZ_inv"):
            i = int(rng.integers(0, n))
            j = int((i + 1 + rng.integers(0, n - 1)) % n)
            word.append(Gate(name, (i, j)))
        else:
            word.append(Gate(name, (int(rng.integers(0, n)),)))
    return word


# ---- validation ---------------------------------------------------------------

def test_rejects_non_symplectic_names_entry():
    bad = np.eye(2, dtype=int)
    bad[0, 0] = 2
    with pytest.raises(NotSymplectic, match=r"\(0, 1\)|\(1, 0\)|\(0, 0\)"):
        IntSymplectic(bad)


def test_rejects_non_integer():
    with pytest.raises(NotInteger):
        IntSymplectic(np.eye(2) * 1.5)


@pytest.mark.parametrize("mat", [
    np.eye(2, dtype=bool),
    np.array([[True, 0], [0, 1]], dtype=object),
], ids=["bool_dtype", "bool_entry"])
def test_rejects_booleans(mat):
    with pytest.raises(NotInteger):
        IntSymplectic(mat)


def test_rejects_float_dtype_even_when_integral():
    with pytest.raises(NotInteger):
        IntSymplectic(np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_generator_passes_the_public_check(n):
    # generators are built unchecked; the public constructor re-proves them
    p = CodeParams(3, n)
    gates = [Gate(name, (i,)) for name in ONE_MODE for i in range(n)]
    gates += [Gate(name, pair) for name in TWO_MODE for pair in itertools.permutations(range(n), 2)]
    for gate in gates:
        s, _c = generator_symplectic(gate, p)
        assert np.array_equal(IntSymplectic(s.mat).mat, s.mat), gate


def _shear(n, entries):
    # [[I, B], [0, I]] with B symmetric is symplectic for any integer entries
    m = np.eye(2 * n, dtype=int).astype(object)
    for (i, j), v in zip(itertools.combinations_with_replacement(range(n), 2), entries):
        m[i, n + j] = m[j, n + i] = v
    return IntSymplectic(m)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10 ** 6),
    n=st.integers(1, 3),
    entries=st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=6, max_size=6),
)
def test_unchecked_products_and_inverses_stay_symplectic(seed, n, entries):
    rng = np.random.default_rng(seed)
    p = CodeParams(3, n)
    amap = AffineMap.identity(p)
    for g in random_word(rng, n, int(rng.integers(0, 12))):
        amap = amap.then(g)
    amap = amap.then_affine(_shear(n, entries), tuple([Fraction(0)] * (2 * n)))
    for g in random_word(rng, n, int(rng.integers(0, 12))):
        amap = amap.then(g)
    s = amap.S
    assert np.array_equal(IntSymplectic(s.mat).mat, s.mat)
    assert np.array_equal(IntSymplectic(s.inverse().mat).mat, s.inverse().mat)
    assert np.array_equal((s @ s.inverse()).mat, IntSymplectic.identity(n).mat)


def test_internal_maps_skip_the_symplectic_check(monkeypatch):
    from zakgross import symplectic
    from zakgross.measure import MeasurementSpec, binner
    from zakgross.wigner import ideal_input

    def refuse(n):
        raise AssertionError("S^T Omega S checked on an internal matrix")

    monkeypatch.setattr(symplectic, "symplectic_form", refuse)
    p = CodeParams(3, 3)
    word = random_word(np.random.default_rng(8), 3, 40)
    state = ideal_input(p, [0, 1, 2]).apply_word(word)
    assert state.amap.S.inverse().n == 3
    bins = binner(state, MeasurementSpec([0, 2], 3))
    assert bins(np.zeros((1, 6))).shape == (1,)
    with pytest.raises(AssertionError, match="internal"):
        IntSymplectic(state.amap.S.mat)  # the public constructor still checks


def test_inverse_and_matmul_are_exact():
    p = CodeParams(3, 2)
    rng = np.random.default_rng(3)
    s = word_symplectic(random_word(rng, 2, 12), p)
    prod = s @ s.inverse()
    assert np.array_equal(prod.mat, np.eye(4, dtype=object))


# ---- generator table frozen against the dense oracle ---------------------------

def _dense_gate(params, gate):
    from zakgross.qudit import _apply_gate_dense

    dim = params.dim
    cols = []
    for k in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[k] = 1.0
        out = _apply_gate_dense(e.reshape((params.d,) * params.n), gate, params)
        cols.append(out.ravel())
    return np.array(cols).T


@pytest.mark.parametrize("name,modes", [
    ("F", (0,)), ("F_inv", (0,)), ("P", (0,)), ("P_inv", (0,)),
    ("SUM", (0, 1)), ("SUM_inv", (0, 1)), ("SUM", (1, 0)),
    ("CZ", (0, 1)), ("CZ_inv", (0, 1)),
])
def test_generator_matches_dense_heisenberg_action(name, modes):
    # U^dag T(a) U = T(Sa mod d) exactly, for every lattice a
    d = 3
    params = CodeParams(d, 2)
    gate = Gate(name, modes)
    s, _c = generator_symplectic(gate, params)
    u = _dense_gate(params, gate)
    for flat in range(d ** 4):
        a = np.unravel_index(flat, (d,) * 4)
        ta = pauli_displacement(params, a).matrix
        sa = np.mod(np.einsum("ij,j->i", s.mat, np.array(a, dtype=object)).astype(int), d)
        tsa = pauli_displacement(params, sa).matrix
        assert np.allclose(u.conj().T @ ta @ u, tsa, atol=1e-11), (name, a, sa)


@pytest.mark.parametrize("name", ["X", "Z"])
def test_displacement_tags_commute_with_phase(name):
    # U_c^dag T(a) U_c = omega^{[c,a]} T(a) with c the tag's unit vector
    d = 5
    params = CodeParams(d, 1)
    gate = Gate(name, (0,))
    s, c = generator_symplectic(gate, params)
    assert np.array_equal(s.mat, np.eye(2, dtype=object))
    cv = np.array([int(x) for x in c])
    u = _dense_gate(params, gate)
    from zakgross.qudit import symplectic_product

    for ax in range(d):
        for az in range(d):
            ta = pauli_displacement(params, (ax, az)).matrix
            phase = params.omega ** (symplectic_product(cv, (ax, az)) % d)
            assert np.allclose(u.conj().T @ ta @ u, phase * ta, atol=1e-12)


# ---- t_bar and the covariance shift --------------------------------------------

def test_shift_example_single_mode_shear():
    p = CodeParams(3, 1)
    s = IntSymplectic([[1, 0], [1, 1]])
    assert list(t_bar(s)) == [1, 0]
    t = covariance_shift(s, p)
    assert np.allclose(t, [0.0, 1.5 * p.ell])


def test_shift_vanishes_for_fourier():
    p = CodeParams(5, 1)
    s, _ = generator_symplectic(Gate.fourier(0), p)
    assert list(t_bar(s)) == [0, 0]
    assert np.allclose(covariance_shift(s, p), 0.0)


def test_shift_is_half_integer_lattice():
    p = CodeParams(3, 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = word_symplectic(random_word(rng, 2, 10), p)
        tl = shift_over_ell(s, p)
        assert all((2 * x).denominator == 1 for x in tl)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), length=st.integers(1, 12))
def test_parity_identity_property(seed, length):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    p = CodeParams(3, n)
    s = word_symplectic(random_word(rng, n, length), p)
    a = rng.integers(-7, 8, size=(40, 2 * n))
    assert parity_identity_holds(s, a).all()


# ---- affine composition ---------------------------------------------------------

def test_affine_identity_roundtrip():
    p = CodeParams(3, 2)
    m = AffineMap.identity(p)
    eta = np.array([[0.3, -1.2, 0.9, 2.0]])
    assert np.allclose(m.pullback(eta), eta)


def test_affine_single_phase_gate_pushforward():
    # net transport of lattice points under P: (mx, mz) -> (mx, mx + mz)
    p = CodeParams(3, 1)
    m = AffineMap.identity(p).then(Gate.phase(0))
    for mx in range(-2, 3):
        for mz in range(-2, 3):
            m2 = np.array([2 * mx, 2 * mz], dtype=object)  # units of ell/2
            out = m.push_lattice_half(m2, range(2))
            assert list(out) == [2 * mx, 2 * (mx + mz)]


def test_affine_x_z_displacements():
    p = CodeParams(3, 1)
    m = AffineMap.identity(p).then(Gate.x(0)).then(Gate.z(0))
    out = m.push_lattice_half(np.array([0, 0], dtype=object), range(2))
    assert list(out) == [2, 2]


def test_affine_pullback_inverts_pushforward():
    p = CodeParams(3, 2)
    rng = np.random.default_rng(11)
    for _ in range(25):
        word = random_word(rng, 2, 8) + [Gate.x(0), Gate.z(1)]
        m = AffineMap.identity(p)
        for g in word:
            m = m.then(g)
        assert m.is_half_integer()
        m2 = rng.integers(-6, 7, size=(4, 2 * p.n)).astype(object) * 2
        pushed = m.push_lattice_half(m2, range(2 * p.n))
        eta_new = pushed.astype(float) * (p.ell / 2.0)
        back = m.pullback(eta_new)
        assert np.allclose(back, m2.astype(float) * p.ell / 2.0, atol=1e-9)


def test_push_lattice_rows_select_output_coordinates():
    p = CodeParams(5, 3)
    rng = np.random.default_rng(17)
    m = AffineMap.identity(p)
    for g in random_word(rng, 3, 10) + [Gate.x(1), Gate.z(2)]:
        m = m.then(g)
    m2 = rng.integers(-6, 7, size=(5, 2 * p.n)).astype(object) * 2
    full = m.push_lattice_half(m2, range(2 * p.n))
    rows = (4, 0, 2)
    assert np.array_equal(m.push_lattice_half(m2, rows), full[:, list(rows)])


def test_affine_composition_matches_sequential_pullback():
    # pulling back through the composite equals chaining the two pullbacks
    p = CodeParams(5, 2)
    rng = np.random.default_rng(13)
    w1 = random_word(rng, 2, 6)
    w2 = random_word(rng, 2, 6)
    m1 = AffineMap.identity(p)
    for g in w1:
        m1 = m1.then(g)
    m12 = m1
    for g in w2:
        m12 = m12.then(g)
    m2only = AffineMap.identity(p)
    for g in w2:
        m2only = m2only.then(g)
    eta = rng.normal(size=(9, 4))
    assert np.allclose(m12.pullback(eta), m1.pullback(m2only.pullback(eta)), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([3, 5, 7, 9]))
def test_explicit_op_pullback_matches_covariance_shift(seed, d):
    # shift_over_ell is the reference: one op S pulls back by S eta - t(S)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    p = CodeParams(d, n)
    s = word_symplectic(random_word(rng, n, int(rng.integers(1, 9))), p)
    zero = tuple([Fraction(0)] * (2 * n))
    m = AffineMap.identity(p).then_affine(s, zero)
    eta = rng.normal(size=(7, 2 * n))
    t = np.array([float(x) for x in shift_over_ell(s, p)]) * p.ell
    want = eta @ s.as_float().T - t
    got = m.pullback(eta)
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


def _dense_then(S, c, sg, cg, d):
    # reference composition with the whole 2n x 2n op: S sg and
    # sg^{-1} c + cg + (d/2) Omega^{-1} t_bar(sg)
    own = -symplectic_form(sg.n) @ t_bar(sg)
    inv = sg.inverse().mat
    moved = [sum((int(v) * cj for v, cj in zip(row, c)), Fraction(0)) for row in inv]
    return S @ sg.mat, [m + g + Fraction(d, 2) * int(o) for m, g, o in zip(moved, cg, own)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([3, 5, 7, 9]), n=st.integers(1, 6))
def test_block_composition_equals_dense_composition(seed, d, n):
    rng = np.random.default_rng(seed)
    p = CodeParams(d, n)
    ops = [("gate", g) for g in random_word(rng, n, int(rng.integers(0, 16)), ALL_TAGS + ["X", "Z"])]
    entries = [int(v) for v in rng.integers(-4, 5, size=n * (n + 1) // 2)]
    explicit = (_shear(n, entries).mat @ generator_symplectic(Gate.fourier(0), p)[0].mat).tolist()
    ops.insert(int(rng.integers(0, len(ops) + 1)), ("symplectic", IntSymplectic(explicit)))
    shift = rng.integers(-9, 10, size=2 * n) / 4  # non-integer in units of ell
    ops.insert(int(rng.integers(0, len(ops) + 1)), ("displace", shift))
    amap = AffineMap.identity(p)
    s_ref, c_ref = np.eye(2 * n, dtype=int).astype(object), [Fraction(0)] * (2 * n)
    for kind, val in ops:
        if kind == "gate":
            amap = amap.then(val)
            sg, cg = generator_symplectic(val, p)
        elif kind == "symplectic":
            amap = amap.then_affine(val, tuple([Fraction(0)] * (2 * n)))
            sg, cg = val, [Fraction(0)] * (2 * n)
        else:
            amap = amap.then_displacement(val)
            sg, cg = IntSymplectic.identity(n), [Fraction(float(v)) for v in val]
        s_ref, c_ref = _dense_then(s_ref, c_ref, sg, cg, d)
    assert amap.S.mat.tolist() == s_ref.tolist()
    assert list(amap.c) == c_ref


def test_gate_words_never_build_a_dense_generator(monkeypatch):
    from zakgross import symplectic

    def refuse(gate, params):
        raise AssertionError("dense generator matrix built")

    monkeypatch.setattr(symplectic, "generator_symplectic", refuse)
    p = CodeParams(5, 3)
    word = random_word(np.random.default_rng(4), 3, 60, ALL_TAGS + ["X", "Z"])
    amap = AffineMap.identity(p)
    for g in word:
        amap = amap.then(g)
    s = word_symplectic(word, p)
    assert np.array_equal(amap.S.mat, s.mat)
    assert np.array_equal(word_symplectic(decompose(s), p).mat, s.mat)
    with pytest.raises(AssertionError, match="dense"):
        symplectic.generator_symplectic(word[0], p)


def test_push_lattice_rejects_non_half_integer_offset():
    p = CodeParams(3, 1)
    m = AffineMap.identity(p).then_displacement([0.25, 0])
    assert not m.is_half_integer()
    with pytest.raises(NotInteger):
        m.push_lattice_half(np.array([0, 0], dtype=object), range(2))


def test_then_displacement_validates_length():
    p = CodeParams(3, 1)
    with pytest.raises(ValueError):
        AffineMap.identity(p).then_displacement([1, 2, 3])


# ---- decomposition ---------------------------------------------------------------

def test_decompose_identity_is_empty_or_trivial():
    s = IntSymplectic.identity(2)
    word = decompose(s)
    assert word_symplectic(word, CodeParams(3, 2)).mat.tolist() == s.mat.tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_decompose_roundtrip_random_words(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    p = CodeParams(3, n)
    s = word_symplectic(random_word(rng, n, int(rng.integers(1, 16))), p)
    word = decompose(s)
    assert np.array_equal(word_symplectic(word, p).mat, s.mat)


def test_decompose_handles_large_entries():
    p = CodeParams(3, 2)
    rng = np.random.default_rng(17)
    s = word_symplectic(random_word(rng, 2, 60), p)
    assert int(np.abs(s.mat.astype(float)).max()) > 50  # genuinely big entries
    word = decompose(s)
    assert np.array_equal(word_symplectic(word, p).mat, s.mat)


def test_decompose_roundtrip_at_24_modes():
    p = CodeParams(3, 24)
    s = word_symplectic(random_word(np.random.default_rng(24), 24, 48), p)
    assert np.array_equal(word_symplectic(decompose(s), p).mat, s.mat)


def test_decompose_only_symplectic_input():
    with pytest.raises(NotSymplectic):
        decompose(IntSymplectic(np.array([[1, 1], [1, 1]])))
