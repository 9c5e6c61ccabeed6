"""Dense-oracle conventions, frozen.

These tests pin down the operator conventions everything else relies on:
shift/clock direction, the half-integer phase in T(a), the parity form of
the phase point operator at the origin, and the dense circuit simulator.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakgross.qudit import (
    CodeParams,
    Gate,
    clifford_oracle_probabilities,
    fourier_matrix,
    gross_phase_point,
    gross_wigner,
    gross_wigner_table,
    pauli_displacement,
    phase_matrix,
    symplectic_product,
    x_matrix,
    z_matrix,
)


def test_params_basic():
    p = CodeParams(3, 2)
    assert (2 * p.two_inv) % p.d == 1
    assert abs(p.omega ** p.d - 1) < 1e-12
    assert abs(p.ell ** 2 * p.d - 2 * math.pi) < 1e-12
    assert p.dim == 9


def test_params_rejects_even_or_small_d():
    with pytest.raises(ValueError):
        CodeParams(4, 1)
    with pytest.raises(ValueError):
        CodeParams(1, 1)
    with pytest.raises(ValueError):
        CodeParams(3, 0)


def test_params_refuse_a_bool_and_store_ints():
    with pytest.raises(ValueError, match="n must be a positive integer, got True"):
        CodeParams(3, True)
    p = CodeParams(np.int64(5), np.int64(2))
    assert type(p.d) is int and type(p.n) is int and p == CodeParams(5, 2)


def test_x_is_shift_z_is_clock():
    d = 3
    x = x_matrix(d)
    # X|0> = |1>
    e0 = np.zeros(d); e0[0] = 1
    assert np.allclose(x @ e0, np.eye(d)[:, 1])
    z = z_matrix(d)
    omega = CodeParams(d, 1).omega
    assert np.allclose(np.diagonal(z), [1, omega, omega ** 2])


def test_pauli_displacement_d3_example():
    # for d=3, a=(1,1): T(a) = omega^{2^{-1}} X Z = omega^2 X Z
    p = CodeParams(3, 1)
    t = pauli_displacement(p, [1, 1])
    expected = p.omega ** 2 * (x_matrix(3) @ z_matrix(3))
    assert np.allclose(t, expected)


def test_pauli_displacement_is_unitary_and_multimode():
    p = CodeParams(5, 2)
    t = pauli_displacement(p, [1, 4, 2, 3])
    assert np.allclose(t @ t.conj().T, np.eye(p.dim))


@settings(max_examples=50, deadline=None)
@given(
    d=st.sampled_from([3, 5]),
    data=st.data(),
)
def test_displacement_composition_rule(d, data):
    # T(a) T(b) = omega^{2^{-1} [b, a]} T(a + b)
    p = CodeParams(d, 1)
    a = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2))
    b = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2))
    ta = pauli_displacement(p, a)
    tb = pauli_displacement(p, b)
    tab = pauli_displacement(p, np.add(a, b))
    phase = p.omega ** (p.two_inv * symplectic_product(b, a) % d)
    assert np.allclose(ta @ tb, phase * tab, atol=1e-12)


def test_phase_point_origin_is_parity():
    # A(0) = sum_k |-k><k| for each mode
    for d, n in [(3, 1), (5, 1), (3, 2), (5, 2)]:
        p = CodeParams(d, n)
        a0 = gross_phase_point(p, [0] * (2 * n))
        single = np.zeros((d, d))
        for k in range(d):
            single[(-k) % d, k] = 1.0
        expected = single
        for _ in range(n - 1):
            expected = np.kron(expected, single)
        assert np.allclose(a0, expected)


def test_phase_point_matches_definitional_sum():
    # brute-force d^{2n} lattice sum against the closed form, d=3 n=1
    p = CodeParams(3, 1)
    for t in ([0, 0], [1, 2], [2, 2]):
        acc = np.zeros((3, 3), dtype=complex)
        for ax in range(3):
            for az in range(3):
                phase = p.omega ** (-symplectic_product(t, [ax, az]) % 3)
                acc += phase * pauli_displacement(p, [ax, az])
        acc /= 3
        assert np.allclose(acc, gross_phase_point(p, t), atol=1e-12)


def test_phase_point_eigenvalues_pm1():
    p = CodeParams(5, 1)
    a = gross_phase_point(p, [2, 3])
    evals = np.sort(np.linalg.eigvalsh(a))
    # parity has eigenvalue +1 with multiplicity (d+1)/2 and -1 otherwise
    assert np.allclose(evals, [-1, -1, 1, 1, 1], atol=1e-10)


def test_phase_point_covariance():
    # A(t) = T(t) A(0) T(t)^dagger, checked at d=5, t=(2,3)
    p = CodeParams(5, 1)
    t = [2, 3]
    tt = pauli_displacement(p, t)
    lhs = gross_phase_point(p, t)
    rhs = tt @ gross_phase_point(p, [0, 0]) @ tt.conj().T
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_wigner_basis_state_is_position_delta():
    p = CodeParams(3, 1)
    for j in range(3):
        rho = np.zeros((3, 3), dtype=complex)
        rho[j, j] = 1.0
        table = gross_wigner_table(p, rho)
        expected = np.zeros((3, 3))
        expected[j, :] = 1.0
        assert np.allclose(table, expected, atol=1e-12)


def test_wigner_maximally_mixed_uniform():
    p = CodeParams(3, 1)
    table = gross_wigner_table(p, np.eye(3) / 3)
    assert np.allclose(table, np.full((3, 3), 1.0 / 3.0), atol=1e-12)


def test_wigner_table_sums_to_dn():
    rng = np.random.default_rng(7)
    for d, n in [(3, 1), (3, 2), (5, 1)]:
        p = CodeParams(d, n)
        v = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        table = gross_wigner_table(p, rho)
        assert abs(table.sum() - d ** n) < 1e-9


def test_wigner_phase_state_has_negativity():
    # superposition (|0> + |1> - |2>)/sqrt(3) at d=3 carries a negative entry
    p = CodeParams(3, 1)
    v = np.array([1, 1, -1], dtype=complex) / math.sqrt(3)
    table = gross_wigner_table(p, np.outer(v, v.conj()))
    assert table.min() < -1e-6
    assert abs(table.sum() - 3.0) < 1e-10


def test_wigner_validates_input():
    p = CodeParams(3, 1)
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        gross_wigner(p, bad, [0, 0])
    with pytest.raises(ValueError, match="trace"):
        gross_wigner(p, np.eye(3, dtype=complex), [0, 0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_density_is_named_before_the_hermitian_check(value):
    p = CodeParams(3, 1)
    bad = np.eye(3, dtype=complex) / 3
    bad[1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        for table in (gross_wigner_table, lambda q, rho: gross_wigner(q, rho, [0, 0])):
            with pytest.raises(ValueError, match="rho has non-finite entries"):
                table(p, bad)


def test_hudson_positivity_for_reachable_stabilizer_states():
    # states reached from |0...0> by the gate set stay nonnegative
    rng = np.random.default_rng(11)
    for d, n in [(3, 2), (5, 2)]:
        p = CodeParams(d, n)
        for _ in range(5):
            gates = []
            for _k in range(8):
                kind = rng.integers(0, 5)
                i = int(rng.integers(0, n))
                j = int((i + 1 + rng.integers(0, n - 1)) % n)
                gates.append(
                    [Gate("F", (i,)), Gate("P", (i,)), Gate("SUM", (i, j)),
                     Gate("X", (i,)), Gate("Z", (i,))][kind]
                )
            psi = np.zeros((d,) * n, dtype=complex)
            psi[(0,) * n] = 1.0
            from zakgross.qudit import _apply_gate_dense
            for g in gates:
                psi = _apply_gate_dense(psi, g, p)
            flat = psi.ravel()
            rho = np.outer(flat, flat.conj())
            table = gross_wigner_table(p, rho)
            assert table.min() >= -1e-10


def test_gate_tag_validation():
    with pytest.raises(ValueError):
        Gate("BAD", (0,))
    with pytest.raises(ValueError):
        Gate("SUM", (1, 1))
    with pytest.raises(ValueError):
        Gate("F", (0, 1))
    assert Gate("SUM", (0, 1)).inverse().name == "SUM_inv"


def test_gate_refuses_a_bool_mode():
    with pytest.raises(ValueError, match="non-negative integers"):
        Gate("F", (True,))


@pytest.mark.parametrize("modes", [0, ([0],)], ids=["bare-int", "nested-list"])
def test_gate_refuses_modes_of_the_wrong_type(modes):
    with pytest.raises(ValueError, match="modes must be a tuple or list of non-negative integers"):
        Gate("F", modes)


def test_gate_takes_numpy_integer_modes_and_stores_ints():
    g = Gate("SUM", (np.int64(0), np.int32(1)))
    assert g == Gate("SUM", (0, 1)) and all(type(m) is int for m in g.modes)


def test_oracle_bell_pair():
    # F on mode 0 then SUM(0,1) on |00>: P(outcome (j,j)) = 1/3
    p = CodeParams(3, 2)
    probs = clifford_oracle_probabilities(
        p, [0, 0], [Gate("F", (0,)), Gate("SUM", (0, 1))], [0, 1]
    )
    expected = np.eye(3) / 3
    assert np.allclose(probs, expected, atol=1e-12)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_oracle_marginalizes_and_orders_modes():
    p = CodeParams(3, 2)
    # SUM(0,1) applied to |1,0> gives |1,1>
    probs = clifford_oracle_probabilities(p, [1, 0], [Gate("SUM", (0, 1))], [1])
    assert np.allclose(probs, [0, 1, 0])
    # order (1, 0) transposes the joint table
    joint = clifford_oracle_probabilities(p, [1, 0], [Gate("SUM", (0, 1))], [1, 0])
    assert joint[1, 1] == pytest.approx(1.0)


def test_oracle_gate_inverses():
    p = CodeParams(5, 2)
    word = [Gate("F", (0,)), Gate("P", (1,)), Gate("SUM", (0, 1)), Gate("CZ", (0, 1))]
    gates = word + [g.inverse() for g in reversed(word)]
    probs = clifford_oracle_probabilities(p, [2, 3], gates, [0, 1])
    assert probs[2, 3] == pytest.approx(1.0, abs=1e-12)


def test_oracle_scale_cap():
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        clifford_oracle_probabilities(CodeParams(5, 6), [0] * 6, [], [0])


def test_fourier_and_phase_shapes():
    f = fourier_matrix(3)
    assert np.allclose(f @ f.conj().T, np.eye(3))
    ph = phase_matrix(3)
    assert np.allclose(np.abs(np.diagonal(ph)), 1.0)


def test_pauli_displacement_checks_its_length():
    p = CodeParams(3, 2)
    with pytest.raises(ValueError, match="length-4 integer vector, got 2"):
        pauli_displacement(p, [1, 0])
    assert isinstance(pauli_displacement(p, [1, 0, 0, 2]), np.ndarray)
