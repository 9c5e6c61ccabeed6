"""Exact symplectic algebra: generator blocks, shifts, affine maps, decompose."""
import itertools
import re
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
    FLOAT_EXACT,
    AffineMap,
    IntSymplectic,
    NotInteger,
    NotSymplectic,
    decompose,
    generator_symplectic,
    int_matmul,
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


def test_rejects_non_symplectic_names_first_bad_entry_row_major():
    bad = np.eye(20, dtype=int)  # n = 10; six entries of S^T Omega S go wrong
    bad[2, 15], bad[11, 4], bad[17, 17] = 3, -2, 5
    msg = "S^T Omega S differs from Omega first at entry (1, 4): got -2, want 0"
    with pytest.raises(NotSymplectic, match=f"^{re.escape(msg)}$"):
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
        amap = amap.then_affine(g)
    amap = amap.then_affine(_shear(n, entries))
    for g in random_word(rng, n, int(rng.integers(0, 12))):
        amap = amap.then_affine(g)
    s = amap.S
    assert np.array_equal(IntSymplectic(s.mat).mat, s.mat)
    assert np.array_equal(IntSymplectic(s.inverse().mat).mat, s.inverse().mat)
    assert np.array_equal((s @ s.inverse()).mat, IntSymplectic.identity(n).mat)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([3, 5, 7, 9]), n=st.integers(1, 5))
def test_inverse_rows_are_the_rows_of_the_inverse(seed, d, n):
    rng = np.random.default_rng(seed)
    p = CodeParams(d, n)
    ops = random_word(rng, n, int(rng.integers(0, 16)))
    entries = [int(v) for v in rng.integers(-4, 5, size=n * (n + 1) // 2)]
    explicit = _shear(n, entries) @ generator_symplectic(Gate("F", (0,)), p)[0]
    ops.insert(int(rng.integers(0, len(ops) + 1)), IntSymplectic(explicit.mat))
    s = AffineMap.identity(p).then_ops(ops).S
    inverse = s.inverse().mat
    assert s.inverse_rows(range(2 * n)).tolist() == inverse.tolist()  # x rows and z rows
    rows = [int(r) for r in rng.choice(2 * n, size=int(rng.integers(0, 2 * n + 1)))]
    assert s.inverse_rows(rows).tolist() == inverse[rows].tolist()
    assert s.inverse_rows(rows).shape == (len(rows), 2 * n)


def test_internal_maps_skip_the_symplectic_check(monkeypatch):
    from zakgross import symplectic
    from zakgross.measure import MeasurementSpec, binner
    from zakgross.wigner import ideal_input

    def refuse(n):
        raise AssertionError("S^T Omega S checked on an internal matrix")

    monkeypatch.setattr(symplectic, "symplectic_form", refuse)
    p = CodeParams(3, 3)
    word = random_word(np.random.default_rng(8), 3, 40)
    state = ideal_input(p, [0, 1, 2]).apply_ops(word)
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


@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_int_matmul_is_the_python_int_product(n):
    p, rng = CodeParams(3, n), np.random.default_rng(n)
    a = word_symplectic(random_word(rng, n, 20 * n), p).mat
    b = word_symplectic(random_word(rng, n, 20 * n), p).mat
    k = 2 * n

    def agrees(a, b, in_floats):
        # float64 products come back as int64, Python-int ones as objects;
        # either way exactly the Python-int product
        want = (a.astype(object) @ b.astype(object)).tolist()
        got = int_matmul(a, b)
        assert got.dtype == (np.int64 if in_floats else object)
        assert got.tolist() == want

    agrees(a, b, True)
    # row 0 of a against column 0 of b puts every partial sum of entry
    # (0, 0) on one side: inner * |a| * |b| just below and just above the bound
    edge = max(map(abs, b.flat))
    top = FLOAT_EXACT // (k * edge)
    for entry, in_floats in ((top, True), (top + 1, False)):
        big = a.copy()
        big[0] = [entry * (1 if v >= 0 else -1) for v in b[:, 0]]
        agrees(big, b, in_floats)
        agrees(b.T, big.T, in_floats)
    agrees(a * 2 ** 70, b, False)  # entries beyond 64 bits never enter a machine word


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
        ta = pauli_displacement(params, a)
        sa = np.mod(np.einsum("ij,j->i", s.mat, np.array(a, dtype=object)).astype(int), d)
        tsa = pauli_displacement(params, sa)
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
            ta = pauli_displacement(params, (ax, az))
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
    s, _ = generator_symplectic(Gate("F", (0,)), p)
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
    m = AffineMap.identity(p).then_ops([Gate("P", (0,))])
    for mx in range(-2, 3):
        for mz in range(-2, 3):
            m2 = np.array([2 * mx, 2 * mz], dtype=object)  # units of ell/2
            out = m.push_lattice_half(m2, range(2))
            assert list(out) == [2 * mx, 2 * (mx + mz)]


def test_affine_x_z_displacements():
    p = CodeParams(3, 1)
    m = AffineMap.identity(p).then_ops([Gate("X", (0,)), Gate("Z", (0,))])
    out = m.push_lattice_half(np.array([0, 0], dtype=object), range(2))
    assert list(out) == [2, 2]


def test_affine_pullback_inverts_pushforward():
    p = CodeParams(3, 2)
    rng = np.random.default_rng(11)
    for _ in range(25):
        word = random_word(rng, 2, 8) + [Gate("X", (0,)), Gate("Z", (1,))]
        m = AffineMap.identity(p).then_ops(word)
        assert m.is_half_integer()
        m2 = rng.integers(-6, 7, size=(4, 2 * p.n)).astype(object) * 2
        pushed = m.push_lattice_half(m2, range(2 * p.n))
        eta_new = pushed.astype(float) * (p.ell / 2.0)
        back = m.pullback(eta_new)
        assert np.allclose(back, m2.astype(float) * p.ell / 2.0, atol=1e-9)


def test_push_lattice_rows_select_output_coordinates():
    p = CodeParams(5, 3)
    rng = np.random.default_rng(17)
    m = AffineMap.identity(p).then_ops(random_word(rng, 3, 10) + [Gate("X", (1,)), Gate("Z", (2,))])
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
    m1 = AffineMap.identity(p).then_ops(w1)
    m12 = m1.then_ops(w2)
    m2only = AffineMap.identity(p).then_ops(w2)
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
    m = AffineMap.identity(p).then_affine(s)
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


def _dense_word(ops, p):
    # (S, c) after each op of a list, composed densely by _dense_then
    n = p.n
    s_ref, c_ref = np.eye(2 * n, dtype=int).astype(object), [Fraction(0)] * (2 * n)
    out = []
    for op in ops:
        if isinstance(op, Gate):
            sg, cg = generator_symplectic(op, p)
        elif isinstance(op, IntSymplectic):
            sg, cg = op, [Fraction(0)] * (2 * n)
        else:
            sg, cg = IntSymplectic.identity(n), [Fraction(float(v)) for v in op]
        s_ref, c_ref = _dense_then(s_ref, c_ref, sg, cg, p.d)
        out.append((s_ref, c_ref))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([3, 5, 7, 9]), n=st.integers(1, 6))
def test_block_composition_equals_dense_composition(seed, d, n):
    rng = np.random.default_rng(seed)
    p = CodeParams(d, n)
    ops = random_word(rng, n, int(rng.integers(0, 16)), ALL_TAGS + ["X", "Z"])
    entries = [int(v) for v in rng.integers(-4, 5, size=n * (n + 1) // 2)]
    explicit = (_shear(n, entries).mat @ generator_symplectic(Gate("F", (0,)), p)[0].mat).tolist()
    ops.insert(int(rng.integers(0, len(ops) + 1)), IntSymplectic(explicit))
    shift = rng.integers(-9, 10, size=2 * n) / 4  # non-integer in units of ell
    ops.insert(int(rng.integers(0, len(ops) + 1)), shift)
    off_grid = np.zeros(2 * n)
    off_grid[int(rng.integers(2 * n))] = 0.3  # a binary fraction of denominator 2^54
    ops.insert(int(rng.integers(0, len(ops) + 1)), off_grid)
    amap = AffineMap.identity(p)
    for op in ops:
        amap = amap.then_affine(op)
    s_ref, c_ref = _dense_word(ops, p)[-1]
    assert amap.S.mat.tolist() == s_ref.tolist()
    assert list(amap.c) == c_ref
    # the whole list through then_ops gives the same map
    cut = int(rng.integers(0, len(ops) + 1))
    head = AffineMap.identity(p).then_ops(ops[:cut])
    head_s, head_c = head.S.mat.tolist(), head.c
    batched = head.then_ops(ops[cut:])
    assert batched.S.mat.tolist() == s_ref.tolist()
    assert list(batched.c) == c_ref
    assert head.S.mat.tolist() == head_s and head.c == head_c  # left as it was


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([3, 5, 7, 9]), n=st.integers(1, 8))
def test_then_ops_stays_exact_past_machine_integers_and_rising_denominators(seed, d, n):
    # one then_ops list in which S passes 2^63 (a shear with entries near
    # 10^30 between gates) and then c's denominator rises from 2 (0.3 after
    # P's half-integer offset), against the dense reference after every op
    rng = np.random.default_rng(seed)
    p = CodeParams(d, n)
    tags = ALL_TAGS + ["X", "Z"]
    k = n * (n + 1) // 2
    entries = [int(v) * 10 ** 30 + int(w)
               for v, w in zip(rng.integers(1, 10, size=k), rng.integers(-9, 10, size=k))]
    off_grid = np.zeros(2 * n)
    off_grid[int(rng.integers(2 * n))] = 0.3
    word = [random_word(rng, n, int(rng.integers(0, 6)), tags) for _ in range(3)]
    big, moved = 1 + len(word[0]), 2 + len(word[0]) + len(word[1])
    ops = ([Gate("P", (int(rng.integers(n)),))] + word[0] + [_shear(n, entries)] + word[1]
           + [off_grid] + word[2])
    dense = _dense_word(ops, p)
    for cut in (big, big + 1, moved, moved + 1, len(ops)):
        amap = AffineMap.identity(p).then_ops(ops[:cut])
        s_ref, c_ref = dense[cut - 1]
        assert amap.S.mat.tolist() == s_ref.tolist()
        assert list(amap.c) == c_ref
        assert all(type(v) is int for v in amap.S.mat.ravel())
        assert all(type(x) is Fraction for x in amap.c)
    assert max(abs(v) for v in dense[big][0].ravel()) > 2 ** 63
    assert max(x.denominator for x in dense[moved - 1][1]) <= 2
    assert max(x.denominator for x in dense[moved][1]) > 2


def test_maps_from_then_ops_are_left_alone_by_later_ops():
    # then_ops updates S in place on its own working copy; the map it
    # returns is frozen like any other
    p = CodeParams(3, 2)
    m = AffineMap.identity(p).then_ops([Gate("F", (0,))])
    s, c = m.S.mat.tolist(), m.c
    m.then_affine(Gate("SUM", (0, 1)))
    m.then_ops([Gate("CZ", (0, 1)), [1, 0, 0, 0]])
    assert type(m) is AffineMap and m.S.mat.tolist() == s and m.c == c


def test_gate_words_never_build_a_dense_generator(monkeypatch):
    from zakgross import symplectic

    def refuse(gate, params):
        raise AssertionError("dense generator matrix built")

    monkeypatch.setattr(symplectic, "generator_symplectic", refuse)
    p = CodeParams(5, 3)
    word = random_word(np.random.default_rng(4), 3, 60, ALL_TAGS + ["X", "Z"])
    amap = AffineMap.identity(p)
    for g in word:
        amap = amap.then_affine(g)
    s = word_symplectic(word, p)
    assert np.array_equal(amap.S.mat, s.mat)
    assert np.array_equal(word_symplectic(decompose(s), p).mat, s.mat)
    with pytest.raises(AssertionError, match="dense"):
        symplectic.generator_symplectic(word[0], p)


def test_push_lattice_rejects_non_half_integer_offset():
    p = CodeParams(3, 1)
    m = AffineMap.identity(p).then_ops([[0.25, 0]])
    assert not m.is_half_integer()
    with pytest.raises(NotInteger):
        m.push_lattice_half(np.array([0, 0], dtype=object), range(2))


def test_then_displacement_validates_length():
    p = CodeParams(3, 1)
    with pytest.raises(ValueError, match="needs length 2, got 3"):
        AffineMap.identity(p).then_ops([[1, 2, 3]])


@pytest.mark.parametrize("op,bad", [
    ([float("inf"), 0], "entry 0 is inf"),
    ([0, float("nan")], "entry 1 is nan"),
    ([True, 0], "entry 0 is True"),
    (["a", "b"], "entry 0 is 'a'"),
    (("shift", [1, 0]), "entry 0 is 'shift'"),
])
def test_a_malformed_displacement_names_its_bad_entry(op, bad):
    with pytest.raises(ValueError, match=bad):
        AffineMap.identity(CodeParams(3, 1)).then_ops([op])


def test_then_ops_validates_the_size_of_an_explicit_matrix():
    from zakgross.wigner import ideal_input

    one = _shear(1, [1])
    with pytest.raises(ValueError, match="matrix acts on 1 modes, state has 2"):
        AffineMap.identity(CodeParams(3, 2)).then_ops([one])
    state = ideal_input(CodeParams(3, 2), [0, 1])
    with pytest.raises(ValueError, match="matrix acts on 1 modes, state has 2"):
        state.apply_ops([one])


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
