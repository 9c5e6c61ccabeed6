"""Lattice Gaussian (Siegel theta) sums and realistic code-state Wigner values.

theta(Gamma, z) = sum_{t in Z^m} exp(i pi t.Gamma t + 2 pi i t.z), Im Gamma > 0.

The sums that arise here can have natural magnitude exp(+-50) and beyond at
small envelope width, so every internal routine carries an explicit log-scale:
the returned pair (value, log_scale) means value * exp(log_scale), where value
is O(1). Truncation boxes are centered on the maximizer of the summand's
magnitude, which sits at t = -Im(Gamma)^{-1} Im(z) / 1, not at the origin.

A finite-squeezing code state's Wigner function is written, once per state,
as one 2-D Fourier series over the (d ell)^2 cell, whose coefficients come
from sub-lattice theta sums per basis pair and whose truncation is that of
those sums; grids are one real matrix product on it, scattered points a
row-wise dot product, position-bin masses a closed form on its kz = 0
column. The literal references it is checked against (the wavefunction,
the 4-variable Wigner sum, the Gaussian vacuum) live in oracles.py.
"""
from __future__ import annotations

import functools
import itertools
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


MAX_RADIUS = 220
MAX_TERMS = 6_000_000
SERIES_TOL = 1e-14  # truncation tolerance of every code state's Wigner series


# ---- core lattice sums --------------------------------------------------------


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


def _sublattice_terms(gamma, z0, parity, tol: float):
    """The terms of the sum over t congruent to parity mod 2, for real x.

    Identity: sum_{t = p mod 2} = exp(i pi p.Gamma p + 2 pi i p.z) *
    theta(4 Gamma, 2(Gamma p + z)). Returns (f, c, log_scale, radius) with
    the sub-lattice sum at z0 + x equal to
    exp(log_scale) * sum_k c[k] exp(2 pi i f[k].x), frequencies f = 2s + p.
    """
    gamma = _check_gamma(gamma)
    m = gamma.shape[0]
    z0 = np.asarray(z0, dtype=complex).reshape(m)
    p = np.asarray(parity, dtype=float).reshape(m)
    pref_exp = 1j * math.pi * (p @ gamma @ p) + TWO_PI * 1j * (p @ z0)
    s, q, inner_log, radius = _theta_terms(4.0 * gamma, 2.0 * (gamma @ p + z0), tol)
    return 2.0 * s + p, np.exp(1j * pref_exp.imag) * q, inner_log + pref_exp.real, radius


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


def code_state_norm(state: CodeState, tol: float = 1e-16) -> float:
    """<psi|psi> by direct Gaussian-overlap summation over the peak lattice."""
    d, delta, ell = state.d, state.delta, state.ell
    kmax = _k_range(d, delta, ell, tol)
    if (2 * kmax + 1) ** 2 > MAX_TERMS:
        raise TruncationOverflow(f"peak-overlap box for k_max {kmax:.3g} exceeds cap {MAX_TERMS}")
    k = np.arange(-kmax, kmax + 1)
    total = 0.0
    for j in range(d):
        for jp in range(d):
            cjj = state.eps[j] * np.conjugate(state.eps[jp])
            if cjj == 0:
                continue
            mu = (j + d * k)[:, None] * ell
            mup = (jp + d * k)[None, :] * ell
            expo = (
                -0.5 * delta ** 2 * (mu ** 2 + mup ** 2)
                - (mu - mup) ** 2 / (4.0 * delta ** 2)
            )
            total += (cjj * math.sqrt(math.pi) * delta * np.exp(expo).sum()).real
    if not total > 0.0:
        raise RuntimeError(f"state norm must be positive, got {total}")
    return total


def _k_range(d, delta, ell, tol):
    # envelope exp(-Delta^2 mu^2 / 2) negligible beyond |mu| = sqrt(2 L) / Delta
    reach = math.sqrt(2.0 * math.log(1.0 / tol)) / (delta * ell)
    return math.ceil((reach + d) / d) + 1 if math.isfinite(reach) else math.inf


# -- the series: per basis pair, 2-D sub-lattice theta sums, summed once --


def _pair_blocks(state: CodeState, j: int, jp: int):
    d, dd = state.d, state.delta ** 2
    dsum, diff = j + jp, j - jp
    gamma_a = 1j * np.array([[1 / (2 * d * dd), -1 / (2 * dd)],
                             [-1 / (2 * dd), d * (1.0 / dd + dd) / 2.0]])
    za0 = 1j * diff * np.array([-1 / (2 * d * dd), (1.0 / dd + dd) / 2.0])
    gamma_b = np.array([[1j * dd / (2 * d), 0.5], [0.5, 1j * d * dd / 2.0]])
    zb0 = np.array([dsum / (2.0 * d) + 0j, 1j * dd * dsum / 2.0])
    log_c = -math.pi * diff ** 2 / (2 * d * dd) - math.pi * dd * (diff ** 2 + dsum ** 2) / (2 * d)
    return gamma_a, za0, gamma_b, zb0, log_c


@functools.lru_cache(maxsize=64)
def _series(state: CodeState):
    """The unnormalized Wigner function of state as one Fourier series.

    W(x, z) = Re sum_ab exp(-2 pi i kx[a] x / L) M[a, b] exp(2 pi i kz[b] z / L),
    L = d ell, kx = -Kx..Kx, kz = -Kz..Kz. Per basis pair the A-blocks carry
    z and the B-blocks x, each a sub-lattice theta sum at offset (z/L, 0) or
    (-x/L, 0): a trigonometric polynomial with frequencies 2 s_0 + p_0.
    Returns (M, kx, kz, L) with M read-only; truncated at SERIES_TOL and
    cached per state.
    """
    blocks = []  # (weight, x frequencies, x coefficients, z frequencies, z coefficients)
    parities = [(p, sg) for p in (0, 1) for sg in (0, 1)]
    for j in range(state.d):
        for jp in range(state.d):
            coeff = np.conjugate(state.eps[j]) * state.eps[jp]
            if coeff == 0:
                continue
            gamma_a, za0, gamma_b, zb0, log_c = _pair_blocks(state, j, jp)
            a = {p: _sublattice_terms(gamma_a, za0, p, SERIES_TOL) for p in parities}
            b = {p: _sublattice_terms(gamma_b, zb0, p, SERIES_TOL) for p in parities}
            for (p1, sg), p2 in itertools.product(parities, (0, 1)):
                fa, ca, log_a, _ = a[p1, sg]
                fb, cb, log_b, _ = b[p2, sg]
                log_total = log_c + log_a + log_b
                if log_total > 600.0:
                    raise TruncationOverflow(f"block scale exp({log_total:.0f}) out of range")
                weight = coeff * (-1.0 if p1 * p2 else 1.0) * math.exp(log_total)
                if weight != 0 and fa.size and fb.size:  # no kept term: the block sums to 0
                    blocks.append((weight, fb[:, 0], cb, fa[:, 0], ca))
    kx_max = int(max((np.max(np.abs(blk[1])) for blk in blocks), default=0))
    kz_max = int(max((np.max(np.abs(blk[3])) for blk in blocks), default=0))
    m = np.zeros((2 * kx_max + 1, 2 * kz_max + 1), dtype=complex)
    for weight, fb, cb, fa, ca in blocks:
        bx = np.zeros(m.shape[0], dtype=complex)
        az = np.zeros(m.shape[1], dtype=complex)
        np.add.at(bx, fb.astype(int) + kx_max, cb)
        np.add.at(az, fa.astype(int) + kz_max, ca)
        m += weight * np.outer(bx, az)
    m *= math.sqrt(math.pi) * state.delta / TWO_PI
    m.setflags(write=False)
    cell = state.d * state.ell
    series = (m, np.arange(-kx_max, kx_max + 1.0), np.arange(-kz_max, kz_max + 1.0), cell)

    # |Im W| <= residue at every point; the probe grid resolves every frequency
    residue = 0.5 * float(np.abs(m - np.conjugate(m[::-1, ::-1])).sum())
    probe = _series_grid(series, np.arange(m.shape[0]) * cell / m.shape[0],
                         np.arange(m.shape[1]) * cell / m.shape[1])
    if residue > 1e-8 * float(np.max(np.abs(probe))):
        raise ImaginaryResidue(f"Wigner series has imaginary residue {residue:.2e}")
    return series


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
