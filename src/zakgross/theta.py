"""Realistic code-state Wigner values, and lattice Gaussian (Siegel theta) sums.

A finite-squeezing code state's Wigner function is written, once per state,
as one 2-D Fourier series over the (d ell)^2 cell. Its coefficients factor
into 1-D Gaussian peak sums (one correlation of envelope weights per basis
pair, grouped into at most 2d classes), so delta = 0.01 (40 dB) builds for
d <= 7. Grids are one real matrix product on the series, scattered points a
row-wise dot product, position-bin masses a closed form on its kz = 0
column. Its references (the 2-D sub-lattice theta route, the wavefunction,
the 4-variable Wigner sum, the Gaussian vacuum) live in oracles.py.

theta(Gamma, z) = sum_{t in Z^m} exp(i pi t.Gamma t + 2 pi i t.z), Im Gamma > 0,
is off the runtime path: oracles.py builds on it, and the benchmark tracer
looks up siegel_theta_batch here by name. Its sums can reach exp(+-50) and
beyond, so they return (value, log_scale), meaning value * exp(log_scale)
with value O(1), from boxes centered on the summand's magnitude maximizer
t = -Im(Gamma)^{-1} Im(z).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class NotPositiveDefinite(ValueError):
    """Im(Gamma) must be symmetric positive definite."""


class TruncationOverflow(RuntimeError):
    """The requested tolerance needs a lattice box beyond the hard caps."""


class ImaginaryResidue(RuntimeError):
    """A code state's Wigner series is not real to within its bound."""


MAX_RADIUS = 220  # per-axis box cap of the theta sums
MAX_TERMS = 6_000_000
SERIES_TOL = 1e-14  # truncation tolerance of every code state's Wigner series


# ---- lattice theta sums: the oracles' and the tracer's, not the runtime's ----


def _check_gamma(gamma: np.ndarray) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=complex)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise ValueError(f"Gamma must be square, got shape {gamma.shape}")
    if np.max(np.abs(gamma - gamma.T)) > 1e-12 * max(1.0, np.max(np.abs(gamma))):
        raise ValueError("Gamma must be symmetric")
    m = gamma.imag
    evals = np.linalg.eigvalsh(m)
    if evals[0] <= 0:
        raise NotPositiveDefinite(
            f"Im(Gamma) has minimum eigenvalue {evals[0]:.3e}, need > 0"
        )
    return gamma


def _theta_terms(gamma, z0, tol: float):
    """The truncated terms of theta(Gamma, z0 + x) for real x.

    Returns (t, q, log_scale, radius) with
    theta(Gamma, z0 + x) = exp(log_scale) * sum_k q[k] exp(2 pi i t[k].x).
    Only Im(z0) sets the box, so one set of terms serves every real offset.
    """
    gamma = _check_gamma(gamma)
    m = gamma.shape[0]
    z0 = np.asarray(z0, dtype=complex).reshape(m)

    im = gamma.imag
    w = z0.imag
    lam_min = float(np.linalg.eigvalsh(im)[0])
    mu = -np.linalg.solve(im, w)  # magnitude maximizer
    log_scale = math.pi * float(w @ np.linalg.solve(im, w))

    radius = int(math.ceil(math.sqrt(math.log(1.0 / tol) / (math.pi * lam_min)))) + 2
    if radius > MAX_RADIUS:
        raise TruncationOverflow(f"needed per-axis radius {radius} exceeds cap {MAX_RADIUS}")
    if (2 * radius + 1) ** m > MAX_TERMS:
        raise TruncationOverflow(
            f"lattice box of {(2 * radius + 1) ** m} points exceeds cap {MAX_TERMS}"
        )

    center = np.round(mu).astype(int)
    axes = [np.arange(c - radius, c + radius + 1) for c in center]
    grid = np.meshgrid(*axes, indexing="ij")
    t = np.stack([g.ravel() for g in grid], axis=-1).astype(float)

    # exponent relative to the scale: real part is <= 0 by construction
    quad = np.einsum("ti,ij,tj->t", t, gamma, t)
    expo = 1j * math.pi * quad + TWO_PI * 1j * (t @ z0) - log_scale
    keep = expo.real > math.log(tol) - 2.0
    return t[keep], np.exp(expo[keep]), log_scale, radius


def _sum_terms(t, q, offsets):
    """sum_k q[k] exp(2 pi i t[k].x) at every row x of offsets (..., m)."""
    flat = offsets.reshape(-1, t.shape[1])
    return (q @ np.exp(TWO_PI * 1j * (t @ flat.T))).reshape(offsets.shape[:-1])


def siegel_theta_batch(gamma, z0, offsets, tol: float = 1e-14):
    """Evaluate theta(Gamma, z0 + x_k) for a batch of real offsets x_k.

    Returns (values, log_scale, radius): theta_k = values[k] * exp(log_scale).
    All offsets must be real; the imaginary part of the argument is shared,
    which is what makes one truncation box serve the whole batch. No runtime
    path calls it; the benchmark tracer counts its box terms by this name.
    """
    t, q, log_scale, radius = _theta_terms(gamma, z0, tol)
    m = t.shape[1]
    offsets = np.asarray(offsets, dtype=float)
    if offsets.ndim == 1:
        offsets = offsets[:, None] if m == 1 else offsets[None, :]
    if offsets.shape[-1] != m:
        raise ValueError(f"offsets must have last dimension {m}")
    return _sum_terms(t, q, offsets), log_scale, radius


# ---- realistic code states ----------------------------------------------------


@dataclass(frozen=True)
class CodeState:
    """A finite-envelope code state: sum_j eps[j] |j_Delta> on one mode.

    The position wavefunction is
    psi(x) = sum_j eps[j] sum_k exp(-Delta^2 (j+dk)^2 ell^2 / 2)
             * exp(-(x - (j+dk) ell)^2 / (2 Delta^2)).
    """

    d: int
    delta: float
    eps: tuple

    def __post_init__(self):
        if self.d < 3 or self.d % 2 == 0:
            raise ValueError(f"d must be odd and >= 3, got {self.d}")
        if not (0 < self.delta < 2.0):
            raise ValueError(f"delta must lie in (0, 2), got {self.delta}")
        eps = tuple(complex(e) for e in self.eps)
        if len(eps) != self.d:
            raise ValueError(f"need {self.d} coefficients, got {len(eps)}")
        if max(abs(e) for e in eps) == 0:
            raise ValueError("state coefficients are all zero")
        object.__setattr__(self, "eps", eps)

    @classmethod
    def logical(cls, d: int, j: int, delta: float) -> "CodeState":
        eps = [0.0] * d
        eps[j % d] = 1.0
        return cls(d, delta, tuple(eps))

    @classmethod
    def phase_state(cls, d: int, delta: float) -> "CodeState":
        """Equal-weight superposition with a flipped last coefficient."""
        eps = [1.0 / math.sqrt(d)] * d
        eps[d - 1] *= -1.0
        return cls(d, delta, tuple(eps))

    @property
    def ell(self) -> float:
        return math.sqrt(TWO_PI / self.d)


def code_state_norm(state: CodeState) -> float:
    """<psi|psi>: the cell integral of the Wigner function, L^2 Re M[0, 0], over d."""
    m, kx, kz, cell = _series(state)
    total = cell ** 2 * float(m[kx == 0, kz == 0][0].real) / state.d
    if not total > 0.0:
        raise RuntimeError(f"state norm must be positive, got {total}")
    return total


def _k_range(d, delta, ell, tol):
    # envelope exp(-Delta^2 mu^2 / 2) negligible beyond |mu| = sqrt(2 L) / Delta
    reach = math.sqrt(2.0 * math.log(1.0 / tol)) / (delta * ell)
    return math.ceil((reach + d) / d) + 1 if math.isfinite(reach) else math.inf


def _class_weights(state: CodeState, span: int) -> np.ndarray:
    """The peak-pair weights w[c, r] for |r| <= span, r = -(j - j' + d Delta).

    Peaks mu = (j + d k) ell and mu' = (j' + d k') ell, Delta = k - k', pair
    with weight eps[j] conj(eps[j']) E(Delta), where the 1-D correlation
    E(Delta) = sum_k env(mu) env(mu') of envelope weights sums out k; the
    pair's class is c = (j + j' + d Delta) mod 2d.
    """
    d, delta, ell = state.d, state.delta, state.ell
    kmax = _k_range(d, delta, ell, SERIES_TOL)
    k = np.arange(-kmax, kmax + 1)
    env = np.exp(-0.5 * (delta * ell * (np.arange(d)[:, None] + d * k)) ** 2)
    lags = np.arange(-2 * kmax, 2 * kmax + 1)
    w = np.zeros((2 * d, 2 * span + 1), dtype=complex)
    for j in range(d):
        for jp in range(d):
            coeff = state.eps[j] * np.conjugate(state.eps[jp])
            if coeff == 0:
                continue
            r = jp - j - d * lags
            keep = np.abs(r) <= span
            corr = np.correlate(env[j], env[jp], mode="full")[keep]
            np.add.at(w, ((j + jp + d * lags[keep]) % (2 * d), r[keep] + span), coeff * corr)
    return w


@functools.lru_cache(maxsize=64)
def _series(state: CodeState):
    """The unnormalized Wigner function of state as one Fourier series.

    W(x, z) = Re sum_ab exp(-2 pi i kx[a] x / L) M[a, b] exp(2 pi i kz[b] z / L),
    L = d ell, kx = -Kx..Kx, kz = -Kz..Kz. Summing the peak pairs gives
    M[a, b] = (-1)^(a b) sum_c v_c(kx[a]) u_c(kz[b]) over 2d classes, with
    v_c(a) = sqrt(pi) delta exp(-(ell delta a)^2 / 4) exp(i pi a c / d) / 2 pi
    and u_c(b) = sum_r w[c, r] exp(-ell^2 (b - r)^2 / (4 delta^2)), w from
    _class_weights. Returns (M, kx, kz, L) with M read-only; truncated where
    v, or the columns of u, fall below SERIES_TOL of their peak; cached per state.
    """
    d, delta, ell = state.d, state.delta, state.ell
    root = 2.0 * math.sqrt(math.log(1.0 / SERIES_TOL))
    reach = root / (ell * delta)  # |kx| where exp(-(ell delta a)^2 / 4) falls to SERIES_TOL
    # E(Delta) <= exp(-(delta ell r)^2 / 4); times u's kernel that is at most
    # exp(-(ell delta b)^2 / (4 (1 + delta^4))), which sets the reach in kz
    kz_reach = reach * math.sqrt(1.0 + delta ** 4)
    size = (2 * reach + 1) * (2 * kz_reach + 1)
    if size > MAX_TERMS:
        raise TruncationOverflow(f"Wigner series of {size:.3g} terms exceeds cap {MAX_TERMS}")
    kx, kz, half = int(reach), int(kz_reach), int(root * delta / ell)

    shifts = np.arange(-half, half + 1)
    kernel = np.exp(-((ell * shifts) ** 2) / (4.0 * delta ** 2))
    w = _class_weights(state, kz + half)
    u = np.array([np.convolve(row, kernel, mode="valid") for row in w])
    b = np.arange(-kz, kz + 1.0)
    mag = np.abs(u).sum(axis=0)  # bounds column b of M, up to v's peak
    keep = np.abs(b) <= np.max(np.abs(b[mag > SERIES_TOL * mag.max()]))
    u, b = u[:, keep], b[keep]
    # (-1)^(a b) exp(i pi a c / d) = exp(i pi a (c + d) / d) for odd b: shift the class by d
    u[:, b % 2 == 1] = np.roll(u[:, b % 2 == 1], d, axis=0)
    a = np.arange(-kx, kx + 1.0)
    v = np.exp(-((ell * delta * a) ** 2) / 4.0 + 1j * math.pi / d * np.outer(np.arange(2 * d), a))
    m = (math.sqrt(math.pi) * delta / TWO_PI * v.T) @ u
    m.setflags(write=False)

    # |Im W| <= residue at every point; the probe grid, one 2-D DFT of M,
    # resolves every frequency
    residue = 0.5 * float(np.abs(m - np.conjugate(m[::-1, ::-1])).sum())
    probe = np.fft.fft2(np.fft.ifftshift(m)).real
    if residue > 1e-8 * float(np.max(np.abs(probe))):
        raise ImaginaryResidue(f"Wigner series has imaginary residue {residue:.2e}")
    return m, a, b, d * ell


def _series_axes(series, eta_x, eta_z):
    """(E_x M, E_z): W = Re (E_x M) E_z^T on the grid, row-wise on point pairs."""
    m, kx, kz, cell = series
    ex = np.exp((-TWO_PI / cell) * 1j * np.outer(eta_x, kx))
    return ex @ m, np.exp((TWO_PI / cell) * 1j * np.outer(eta_z, kz))


def _series_grid(series, eta_x, eta_z) -> np.ndarray:
    left, ez = _series_axes(series, eta_x, eta_z)
    return np.hstack([left.real, -left.imag]) @ np.hstack([ez.real, ez.imag]).T


def wigner_theta(state: CodeState, eta) -> np.ndarray:
    """Unnormalized Wigner values at points eta with shape (..., 2).

    Divide by code_state_norm(state) for the unit-norm state; the result then
    integrates to d over one (d ell)^2 cell.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape[-1] != 2:
        raise ValueError(f"eta must have last dimension 2, got {eta.shape}")
    flat = eta.reshape(-1, 2)
    series = _series(state)
    vals = np.empty(flat.shape[0])
    for lo in range(0, flat.shape[0], 8192):
        left, ez = _series_axes(series, flat[lo: lo + 8192, 0], flat[lo: lo + 8192, 1])
        vals[lo: lo + 8192] = (left * ez).real.sum(axis=1)
    return vals.reshape(eta.shape[:-1])


def wigner_theta_grid(state: CodeState, eta_x, eta_z) -> np.ndarray:
    """Unnormalized Wigner values on the tensor grid eta_x (x) eta_z.

    Shape (len(eta_x), len(eta_z)): one real matrix product on the series.
    """
    eta_x = np.asarray(eta_x, dtype=float).ravel()
    eta_z = np.asarray(eta_z, dtype=float).ravel()
    return _series_grid(_series(state), eta_x, eta_z)


def x_bin_integrals(state: CodeState, bins: int, shift: float) -> np.ndarray:
    """Unnormalized mass of W(x - shift, z) in each of `bins` equal x bins of one period L.

    Over one z period only the kz = 0 column of the series survives, and a
    bin of width w = L / bins integrates exp(-2 pi i k (x - shift) / L) to
    w exp(-2 pi i k (mid - shift) / L) sinc(k / bins).
    """
    m, kx, kz, cell = _series(state)
    width = cell / bins
    mid = (np.arange(bins)[:, None] + 0.5) * width - shift
    phase = np.exp((-TWO_PI / cell) * 1j * kx * mid)
    return cell * width * ((phase * np.sinc(kx / bins)) @ m[:, kz == 0][:, 0]).real
