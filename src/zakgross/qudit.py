"""Exact finite-dimensional algebra for odd-d qudits.

Dense matrices for the qudit displacement operators, the discrete phase
point operators, the discrete Wigner table, and a brute-force dense
circuit simulator. Everything here is desk-scale ground truth: the rest
of the package is validated against this module at small d^n.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

DENSE_CAP = 3125  # largest d^n the dense oracle will touch (5^5)

GATE_NAMES = frozenset(
    ["F", "F_inv", "P", "P_inv", "SUM", "SUM_inv", "CZ", "CZ_inv", "X", "Z"]
)
_ONE_MODE = frozenset(["F", "F_inv", "P", "P_inv", "X", "Z"])

_INVERSE = {
    "F": "F_inv", "F_inv": "F",
    "P": "P_inv", "P_inv": "P",
    "SUM": "SUM_inv", "SUM_inv": "SUM",
    "CZ": "CZ_inv", "CZ_inv": "CZ",
    # X and Z are displacements; their inverses are d-1 fold repeats, but as
    # gate tags we keep them self-describing and invert at the matrix level.
}


def is_integer(x) -> bool:
    """A Python or numpy integer, and not a bool."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def logical_index(d: int, j) -> int:
    """j as an index of the d logical states; anything outside [0, d) raises."""
    if not is_integer(j) or not 0 <= j < d:
        raise ValueError(f"logical index must be an integer in [0, {d}), got {j!r}")
    return int(j)


@dataclass(frozen=True)
class CodeParams:
    """Global context: qudit dimension d (odd, >= 3) and mode count n."""

    d: int
    n: int

    def __post_init__(self):
        if not is_integer(self.d) or self.d < 3 or self.d % 2 == 0:
            raise ValueError(f"d must be an odd integer >= 3, got {self.d!r}")
        if not is_integer(self.n) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "n", int(self.n))

    @property
    def ell(self) -> float:
        return math.sqrt(2.0 * math.pi / self.d)

    @property
    def omega(self) -> complex:
        return cmath.exp(2j * math.pi / self.d)

    @property
    def two_inv(self) -> int:
        # (d+1)/2 is the multiplicative inverse of 2 mod odd d
        return (self.d + 1) // 2

    @property
    def dim(self) -> int:
        return self.d ** self.n

    @property
    def torus_period(self) -> float:
        return self.d * self.ell


@dataclass(frozen=True)
class Gate:
    """A Clifford gate tag: name plus the modes it touches.

    Two-mode tags store (control, target) for SUM and an unordered pair
    for CZ (CZ is symmetric; we keep the given order).
    """

    name: str
    modes: tuple

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate tag {self.name!r}")
        if not isinstance(self.modes, (tuple, list)) or any(
                not is_integer(m) or m < 0 for m in self.modes):
            raise ValueError(
                f"modes must be a tuple or list of non-negative integers, got {self.modes!r}")
        want = 1 if self.name in _ONE_MODE else 2
        if len(self.modes) != want:
            raise ValueError(f"{self.name} takes {want} mode(s), got {self.modes}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"{self.name} modes must be distinct, got {self.modes}")
        object.__setattr__(self, "modes", tuple(map(int, self.modes)))

    def inverse(self) -> "Gate":
        if self.name in ("X", "Z"):
            raise ValueError("X/Z gate tags have no tag-level inverse; repeat d-1 times")
        return Gate(_INVERSE[self.name], self.modes)


def _check_cap(params: CodeParams):
    if params.dim > DENSE_CAP:
        raise ValueError(
            f"oracle scale exceeded: d^n = {params.dim} > dense cap {DENSE_CAP}"
        )


def symplectic_product(a, b) -> int:
    """[a, b] = a_X . b_Z - a_Z . b_X for integer 2n-vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size // 2
    return int(a[:n] @ b[n:] - a[n:] @ b[:n])


# ---- single-mode building blocks -------------------------------------------

def x_matrix(d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + 1) % d, j] = 1.0
    return m


def z_matrix(d: int) -> np.ndarray:
    omega = cmath.exp(2j * math.pi / d)
    return np.diag([omega ** j for j in range(d)])


def fourier_matrix(d: int) -> np.ndarray:
    """F|j> = d^{-1/2} sum_k omega^{jk} |k>."""
    omega = cmath.exp(2j * math.pi / d)
    j = np.arange(d)
    return np.power(omega, np.outer(j, j)) / math.sqrt(d)


def phase_matrix(d: int) -> np.ndarray:
    """P|j> = omega^{2^{-1} j^2} |j>."""
    omega = cmath.exp(2j * math.pi / d)
    two_inv = (d + 1) // 2
    return np.diag([omega ** ((two_inv * j * j) % d) for j in range(d)])


# ---- displacement and phase point operators ---------------------------------

def _exponent(params: CodeParams, vec) -> tuple:
    """An integer 2n-vector, reduced mod d, as its halves (a_X, a_Z)."""
    v = np.mod(np.asarray(vec, dtype=int).ravel(), params.d)
    if v.size != 2 * params.n:
        raise ValueError(f"expected a length-{2 * params.n} integer vector, got {v.size}")
    return v[:params.n], v[params.n:]


def pauli_displacement(params: CodeParams, a) -> np.ndarray:
    """T(a) = omega^{2^{-1} a_X . a_Z} X^{a_X} Z^{a_Z} over n modes."""
    _check_cap(params)
    ax, az = _exponent(params, a)
    d = params.d
    xm = x_matrix(d)
    zm = z_matrix(d)
    op = np.ones((1, 1), dtype=complex)
    for x, z in zip(ax, az):
        op = np.kron(op, np.linalg.matrix_power(xm, x) @ np.linalg.matrix_power(zm, z))
    phase = params.omega ** ((params.two_inv * int(ax @ az)) % d)
    return phase * op


def gross_phase_point(params: CodeParams, t) -> np.ndarray:
    """Discrete phase point operator A(t) = d^{-n} sum_a T(a) omega^{-[t,a]}.

    Computed in closed form: A(t)[m, k] = delta(2^{-1}(m+k) = t_X) omega^{t_Z.(m-k)},
    which follows by summing the a_Z geometric series after fixing a_X = m-k.
    The definitional lattice sum is exercised against this in the tests.
    """
    _check_cap(params)
    tx, tz = _exponent(params, t)
    d, n = params.d, params.n
    digits = _index_digits(d, n)  # shape (d^n, n)
    m = digits[:, None, :]   # row index digits
    k = digits[None, :, :]   # column index digits
    cond = np.all((params.two_inv * (m + k) - tx) % d == 0, axis=2)
    expo = np.tensordot((m - k) % d, tz, axes=([2], [0])) % d
    mat = np.where(cond, np.power(params.omega, expo), 0.0)
    return mat.astype(complex)


def _index_digits(d: int, n: int) -> np.ndarray:
    """Digits of 0..d^n-1 in base d, mode 0 most significant."""
    idx = np.arange(d ** n)
    out = np.empty((d ** n, n), dtype=int)
    for i in range(n - 1, -1, -1):
        out[:, i] = idx % d
        idx = idx // d
    return out


def gross_wigner(params: CodeParams, rho, t) -> float:
    """Discrete Wigner value Tr(A(t) rho) of a density matrix rho."""
    mat = np.asarray(rho, dtype=complex)
    _validate_density(params, mat)
    val = complex(np.trace(gross_phase_point(params, t) @ mat))
    return _drop_imag(val)


def gross_wigner_table(params: CodeParams, rho) -> np.ndarray:
    """Full Wigner table, shape (d,)*2n indexed by (t_X..., t_Z...).

    Sums to d^n * Tr(rho) in the convention used throughout this package.
    """
    mat = np.asarray(rho, dtype=complex)
    _validate_density(params, mat)
    d, n = params.d, params.n
    shape = (d,) * (2 * n)
    table = np.empty(shape, dtype=float)
    for flat in range(d ** (2 * n)):
        t = np.unravel_index(flat, shape)
        vec = np.array(t, dtype=int)
        val = complex(np.trace(gross_phase_point(params, vec) @ mat))
        table[t] = _drop_imag(val)
    return table


def _validate_density(params: CodeParams, mat: np.ndarray):
    if mat.shape != (params.dim, params.dim):
        raise ValueError(f"density matrix shape {mat.shape}, expected {(params.dim,) * 2}")
    if not np.isfinite(mat).all():
        raise ValueError("rho has non-finite entries")
    herm = np.max(np.abs(mat - mat.conj().T))
    if not herm <= 1e-10:
        raise ValueError(f"rho is not Hermitian (max deviation {herm:.2e})")
    tr = complex(np.trace(mat))
    if not abs(tr - 1.0) <= 1e-10:
        raise ValueError(f"rho must have unit trace, got {tr}")
    low = float(np.linalg.eigvalsh(mat)[0])
    if not low >= -1e-10:
        raise ValueError(f"rho is not positive semidefinite (least eigenvalue {low:.2e})")


def _drop_imag(val: complex, tol: float = 1e-10) -> float:
    scale = max(1.0, abs(val.real))
    if abs(val.imag) > tol * scale:
        raise ValueError(f"imaginary residue {val.imag:.2e} exceeds tolerance")
    return float(val.real)


# ---- dense circuit oracle ----------------------------------------------------

def _apply_gate_dense(psi: np.ndarray, gate: Gate, params: CodeParams) -> np.ndarray:
    """Apply one gate to a statevector stored as an (d,)*n array."""
    d = params.d
    omega = params.omega
    name, modes = gate.name, gate.modes
    if name in ("F", "F_inv"):
        m = fourier_matrix(d)
        if name == "F_inv":
            m = m.conj().T
        psi = np.moveaxis(np.tensordot(m, psi, axes=([1], [modes[0]])), 0, modes[0])
    elif name in ("P", "P_inv"):
        m = np.diagonal(phase_matrix(d)).copy()
        if name == "P_inv":
            m = m.conj()
        shape = [1] * psi.ndim
        shape[modes[0]] = d
        psi = psi * m.reshape(shape)
    elif name == "X":
        psi = np.roll(psi, 1, axis=modes[0])
    elif name == "Z":
        shape = [1] * psi.ndim
        shape[modes[0]] = d
        phases = omega ** np.arange(d)
        psi = psi * phases.reshape(shape)
    elif name in ("SUM", "SUM_inv"):
        c, t = modes
        sign = 1 if name == "SUM" else -1
        # |a,b> -> |a, b + sign*a>: build the target index from the control
        a = np.arange(d).reshape([-1 if ax == c else 1 for ax in range(psi.ndim)])
        b = np.arange(d).reshape([-1 if ax == t else 1 for ax in range(psi.ndim)])
        src = (b - sign * a) % d
        psi = np.take_along_axis(psi, np.broadcast_to(src, psi.shape), axis=t)
    elif name in ("CZ", "CZ_inv"):
        i, j = modes
        sign = 1 if name == "CZ" else -1
        a = np.arange(d).reshape([-1 if ax == i else 1 for ax in range(psi.ndim)])
        b = np.arange(d).reshape([-1 if ax == j else 1 for ax in range(psi.ndim)])
        psi = psi * omega ** (sign * (a * b) % d)
    else:  # pragma: no cover - guarded by Gate validation
        raise ValueError(f"unknown gate {name}")
    return psi


def clifford_oracle_probabilities(
    params: CodeParams, inputs, gates, measured_modes
) -> np.ndarray:
    """Exact Born probabilities of computational outcomes on measured modes.

    inputs: one logical basis index per mode. gates: iterable of Gate tags,
    applied first to last. Returns an array of shape (d,)*len(measured_modes)
    indexed by the outcome digits, summing to 1.
    """
    _check_cap(params)
    d, n = params.d, params.n
    inputs = list(inputs)
    if len(inputs) != n:
        raise ValueError(f"need {n} input kets, got {len(inputs)}")
    measured = list(measured_modes)
    if any(m < 0 or m >= n for m in measured) or len(set(measured)) != len(measured):
        raise ValueError(f"bad measured mode list {measured} for n={n}")

    psi = np.zeros((d,) * n, dtype=complex)
    psi[tuple(int(j) % d for j in inputs)] = 1.0
    for gate in gates:
        if max(gate.modes) >= n:
            raise ValueError(f"gate {gate} touches mode >= n={n}")
        psi = _apply_gate_dense(psi, gate, params)

    probs = np.abs(psi) ** 2
    keep = sorted(set(range(n)) - set(measured))
    if keep:
        probs = probs.sum(axis=tuple(keep))
        # after summing, remaining axes carry the measured modes in sorted
        # order; permute to the requested order
        remaining = sorted(measured)
        perm = [remaining.index(m) for m in measured]
        probs = np.transpose(probs, axes=perm)
    else:
        probs = np.transpose(probs, axes=measured)
    total = probs.sum()
    if not abs(total - 1.0) < 1e-12:
        raise RuntimeError(f"oracle probabilities sum to {total}")
    return probs
