"""Realistic code-state Wigner values, and lattice Gaussian (Siegel theta) sums.

A finite-squeezing code state's Wigner function is built once per state
from 1-D Gaussian peak sums (one correlation of envelope weights per basis
pair, grouped into at most 2d classes c), so delta = 0.01 (40 dB) builds
for d <= 7. It is a separable sum of rank 2d, W(x, z) = sum_c f_c(x) h_c(z).
The x factor is a closed-form comb, the Poisson dual of its Fourier series:
f_c(x) = (1/ell) sum_m exp(-(x - c ell/2 - m L)^2 / delta^2), L = d ell,
summed over the few teeth nearest x, as many as a tail bound (_comb_teeth)
asks for. The z factor h_c(z) is a real trigonometric sum over 2Kz + 1
frequencies, Kz ~ 1/(ell delta), from a table of phases built with O(sqrt
Kz) products per point. So a scattered point costs O(2d + Kz), not the
O(Kx Kz) of the dense 2-D series, which is never built; a grid is one real
product of inner dimension 2d; position-bin masses and the norm come in
closed form from the kz = 0 column. As every f_c >= 0, |W| <= sum_c f_c(x)
|h_c(z)|, and abs_envelope bounds each |h_c| on equal z cells by Taylor
expansion: the rejection sampler's certified envelope. Its references (the
dense series from 2-D sub-lattice theta sums, the wavefunction, the
4-variable Wigner sum, the Gaussian vacuum) live in oracles.py.

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
from typing import NamedTuple

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


class Series(NamedTuple):
    """A code state's Wigner function as a rank-2d separable sum; see _series."""

    u: np.ndarray  # (2d, nkz) class rows, odd-kz columns rolled by d; read-only
    kz: np.ndarray  # z frequencies -Kz..Kz
    kx_max: int  # Kx, the reach of the x factor's Fourier form (bin integrals)
    cell: float  # L = d ell
    ell: float
    delta: float
    teeth: int  # comb teeth summed on each side of the one nearest x
    norm: float  # <psi|psi>: the cell integral of W, L^2 Re M[0, 0] / d


def code_state_norm(state: CodeState) -> float:
    """<psi|psi>: the cell integral of the Wigner function, L^2 Re M[0, 0], over d."""
    return _series(state).norm


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


def _comb_teeth(ell: float, delta: float) -> int:
    """Teeth J summed on each side of the comb tooth nearest x.

    Teeth sit every ell/2 and the nearest lies within ell/4 of x, so every
    omitted tooth is at least r = (J + 1/2) ell/2 away, and the omitted ones
    sum to at most 2 exp(-r^2/delta^2) / (1 - exp(-r ell/delta^2)) of one
    tooth's height; J is the least that keeps this below SERIES_TOL.
    """
    teeth = 0
    while True:
        r = (teeth + 0.5) * ell / 2
        if 2.0 * math.exp(-((r / delta) ** 2)) <= SERIES_TOL * -math.expm1(-r * ell / delta ** 2):
            return teeth
        teeth += 1


@functools.lru_cache(maxsize=64)
def _series(state: CodeState) -> Series:
    """The unnormalized Wigner function of state as a rank-2d separable sum.

    W(x, z) = Re sum_ab exp(-2 pi i kx[a] x / L) M[a, b] exp(2 pi i kz[b] z / L),
    L = d ell, and summing the peak pairs gives M[a, b] = (-1)^(a b) sum_c
    v_c(kx[a]) u_c(kz[b]) over 2d classes, with
    v_c(a) = sqrt(pi) delta exp(-(ell delta a)^2 / 4) exp(i pi a c / d) / 2 pi
    and u_c(b) = sum_r w[c, r] exp(-ell^2 (b - r)^2 / (4 delta^2)), w from
    _class_weights. Folding (-1)^(ab) into u (odd columns rolled by d classes)
    and summing a in closed form gives W(x, z) = sum_c f_c(x) h_c(z): by
    Poisson summation f_c(x) = sum_a v_c(a) exp(-2 pi i a x / L) is the real
    comb (1/ell) sum_m exp(-(x - c ell/2 - m L)^2 / delta^2), and
    h_c(z) = Re sum_b u[c, b] exp(2 pi i kz[b] z / L). M itself is never
    built. u is truncated where its columns fall below SERIES_TOL of their
    peak; the norm comes from the kz = 0 column. Cached per state.
    """
    d, delta, ell = state.d, state.delta, state.ell
    root = 2.0 * math.sqrt(math.log(1.0 / SERIES_TOL))
    reach = root / (ell * delta)  # |kx| where exp(-(ell delta a)^2 / 4) falls to SERIES_TOL
    # E(Delta) <= exp(-(delta ell r)^2 / 4); times u's kernel that is at most
    # exp(-(ell delta b)^2 / (4 (1 + delta^4))), which sets the reach in kz
    kz_reach = reach * math.sqrt(1.0 + delta ** 4)
    # the class-weight correlations cost O(1/delta^2) like the dense M's size,
    # so the cap stays on that size
    size = (2 * reach + 1) * (2 * kz_reach + 1)
    if size > MAX_TERMS:
        raise TruncationOverflow(f"Wigner series of {size:.3g} terms exceeds cap {MAX_TERMS}")
    kz, half = int(kz_reach), int(root * delta / ell)

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
    u.setflags(write=False)
    series = Series(u, b, int(reach), d * ell, ell, delta, _comb_teeth(ell, delta), math.nan)
    _check_real(series)
    kx, col = _kz0_column(series)
    norm = series.cell ** 2 * float(col[kx == 0][0].real) / d
    if not norm > 0.0:
        raise RuntimeError(f"state norm must be positive, got {norm}")
    return series._replace(norm=norm)


def _check_real(series: Series) -> None:
    """Refuse a series whose imaginary part may exceed 1e-8 of its largest value.

    Since f_c >= 0, |Im W| <= sum_c max f_c * (1/2) sum_b |u[c, b] - conj u[c, -b]|
    everywhere. The teeth of one class lie L apart, so from any x all but
    the nearest lie at least L/2, 3L/2, ... away on either side, and
    ell max f_c <= 1 + 2 e^(-L^2 / 4 delta^2) / (1 - e^(-L^2 / delta^2)).
    The probe grid takes x on the comb's tooth centres and z on the 2Kz + 1
    points where one inverse FFT per class gives h_c exactly.
    """
    u, cell, delta = series.u, series.cell, series.delta
    f_max = 1.0 - 2.0 * math.exp(-((cell / delta) ** 2) / 4.0) / math.expm1(-((cell / delta) ** 2))
    residue = f_max / series.ell * 0.5 * float(np.abs(u - np.conjugate(u[:, ::-1])).sum())
    h = (u.shape[1] * np.fft.ifft(np.fft.ifftshift(u, axes=1), axis=1)).real
    probe = _x_factor(series, np.arange(u.shape[0]) * series.ell / 2) @ h
    if residue > 1e-8 * float(np.max(np.abs(probe))):
        raise ImaginaryResidue(f"Wigner series has imaginary residue {residue:.2e}")


def _x_factor(series: Series, x: np.ndarray) -> np.ndarray:
    """f_c(x) at points x (N,) for every class: shape (N, 2d).

    Tooth n of the comb, at n ell/2, belongs to class n mod 2d; each point
    sums the 2J + 1 teeth nearest it (J from _comb_teeth). With e the
    offset from the nearest tooth and s = ell / (2 delta), both in units of
    delta, tooth j away weighs exp(-(e - j s)^2), which the recurrence
    g_j = g_(j-1) exp(2 e s) exp(-(2j - 1) s^2) walks with three
    exponentials per point. Teeth fold into the columns j mod 2d, and one
    gather per point rotates them by its nearest tooth's class.
    """
    classes = series.u.shape[0]
    step = series.ell / 2
    s = step / series.delta
    near = np.rint(x / step)
    e = (x - near * step) / series.delta
    centre = np.exp(-e * e)
    folded = np.zeros((x.size, classes))
    folded[:, series.teeth % classes] = centre
    if series.teeth:
        up, down = np.exp(2 * s * e), np.exp(-2 * s * e)
        above, below = centre, centre
        for j in range(1, series.teeth + 1):
            shrink = math.exp(-(2 * j - 1) * s * s)
            above = above * up * shrink
            below = below * down * shrink
            folded[:, (series.teeth + j) % classes] += above
            folded[:, (series.teeth - j) % classes] += below
    # tooth j of column (teeth + j) mod 2d has class (near + j) mod 2d
    cols = np.arange(classes) - np.mod(near, classes).astype(np.intp)[:, None] + series.teeth
    return np.take_along_axis(folded, np.mod(cols, classes), axis=1) / series.ell


class AbsEnvelope(NamedTuple):
    """Certified bounds on each class's |h_c| over equal z cells; see abs_envelope."""

    series: Series
    bound: np.ndarray  # (2d, N): bound[c, j] >= |h_c| on z cell j of N; read-only
    cum: np.ndarray  # cumulative share of bound.ravel(), ending at exactly 1
    mass: float  # integral over one cell of sum_c f_c(x) bound[c, j(z)]

    def at(self, x: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """sum_c f_c(x) bound[c, cell] >= |W| at points x (N,) in z cells `cell` (N,)."""
        return np.einsum("nc,cn->n", _x_factor(self.series, x), self.bound[:, cell])


@functools.lru_cache(maxsize=64)
def abs_envelope(state: CodeState) -> AbsEnvelope:
    """A certified rejection-sampling envelope of |W|, cached per state.

    Every comb f_c is >= 0, so |W(x, z)| <= sum_c f_c(x) |h_c(z)|. For N >=
    4 (2Kz + 1) equal z cells, Taylor's theorem about each cell's midpoint m
    bounds |h_c| on the cell by sum_{k<P} |h_c^(k)(m)| r^k / k! + R, with
    r = L / 2N and h_c^(k)(m) r^k / k! = Re sum_b (i pi b / N)^k / k! u[c, b]
    exp(2 pi i b m / L), one inverse FFT per order. R <= (pi Kz / N)^P / P!
    sum_b |u[c, b]|; P is the least order that puts this factor below
    SERIES_TOL, and the table adds SERIES_TOL sum_b |u[c, b]| to cover R and
    the rounding of the FFTs and of h_c. Each comb has mass delta sqrt(pi) / ell.
    """
    series = _series(state)
    u, kz = series.u, series.kz
    cells = 1 << (4 * u.shape[1] - 1).bit_length()  # a power of two >= 4 (2Kz + 1)
    at = kz.astype(np.intp) % cells
    step = np.zeros(cells)
    step[at] = math.pi * kz / cells  # pi b / N, also b's phase at the first midpoint L / 2N
    coef = np.zeros((u.shape[0], cells), dtype=complex)
    coef[:, at] = u * np.exp(1j * step[at])
    bound = np.zeros(coef.shape)
    order, rest, reach = 0, 1.0, math.pi * float(np.max(np.abs(kz))) / cells
    while rest > SERIES_TOL:  # rest = (pi Kz / N)^order / order!
        bound += np.abs((cells * np.fft.ifft(coef, axis=1)).real)
        order += 1
        coef *= (1j / order) * step
        rest *= reach / order
    bound += SERIES_TOL * np.abs(u).sum(axis=1)[:, None]
    cum = np.cumsum(bound.ravel())
    mass = float(cum[-1]) * (series.cell / cells) * series.delta * math.sqrt(math.pi) / series.ell
    cum /= cum[-1]
    bound.setflags(write=False)
    cum.setflags(write=False)
    return AbsEnvelope(series, bound, cum, mass)


def _cis_powers(t: np.ndarray, count: int) -> np.ndarray:
    """exp(i r t) for r = 0..count-1: shape (N, count), by repeated products."""
    out = np.empty((t.size, count), dtype=complex)
    out[:, 0] = 1.0
    if count > 1:
        out[:, 1:] = (np.cos(t) + 1j * np.sin(t))[:, None]
        np.cumprod(out, axis=1, out=out)
    return out


def _z_factor(series: Series, z: np.ndarray) -> np.ndarray:
    """h_c(z) at points z (N,) for every class: shape (N, 2d).

    Folding kz = b and -b, h_c = Re sum_{b >= 0} q[c, b] exp(i b theta) with
    q[c, 0] = u[c, 0], q[c, b] = u[c, b] + conj u[c, -b] and
    theta = 2 pi (z mod L) / L. Each phase exp(i (g s + r) theta) is one
    product of a giant step (g < G) and a baby step (r < s): a point costs
    two cosines and two sines, s + G = O(sqrt Kz) products for the steps
    and one product per phase. Viewed as interleaved (cos, sin) floats, the
    phases meet the table (Re q, -Im q) in one real matrix product.
    """
    classes, nkz = series.u.shape
    k = nkz // 2
    baby = math.isqrt(k) + 1
    giant = -(-(k + 1) // baby)
    fold = series.u[:, k:].copy()
    fold[:, 1:] += np.conjugate(series.u[:, k - 1::-1])
    table = np.zeros((giant * baby, 2, classes))
    table[: k + 1, 0] = fold.real.T
    table[: k + 1, 1] = -fold.imag.T
    table = table.reshape(-1, classes)

    theta = np.mod(z, series.cell) * (TWO_PI / series.cell)
    out = np.empty((z.size, classes))
    chunk = max(256, (1 << 19) // (giant * baby))
    for lo in range(0, z.size, chunk):
        t = theta[lo: lo + chunk]
        phases = _cis_powers(baby * t, giant)[:, :, None] * _cis_powers(t, baby)[:, None, :]
        out[lo: lo + chunk] = phases.reshape(t.size, -1).view(np.float64) @ table
    return out


def _kz0_column(series: Series):
    """(kx, M[kx, kz = 0]) for kx = -Kx..Kx, from V u[:, kz = 0]."""
    classes = series.u.shape[0]
    kx = np.arange(-series.kx_max, series.kx_max + 1.0)
    v = np.exp(-((series.ell * series.delta * kx[:, None]) ** 2) / 4.0
               + (TWO_PI / classes) * 1j * np.outer(kx, np.arange(classes)))
    scale = math.sqrt(math.pi) * series.delta / TWO_PI
    return kx, scale * (v @ series.u[:, series.kz == 0][:, 0])


def wigner_theta(state: CodeState, eta) -> np.ndarray:
    """Unnormalized Wigner values at points eta with shape (..., 2).

    Divide by code_state_norm(state) for the unit-norm state; the result then
    integrates to d over one (d ell)^2 cell. Each point is sum_c f_c h_c.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape[-1] != 2:
        raise ValueError(f"eta must have last dimension 2, got {eta.shape}")
    flat = eta.reshape(-1, 2)
    series = _series(state)
    vals = np.einsum("nc,nc->n", _x_factor(series, flat[:, 0]), _z_factor(series, flat[:, 1]))
    return vals.reshape(eta.shape[:-1])


def wigner_theta_grid(state: CodeState, eta_x, eta_z) -> np.ndarray:
    """Unnormalized Wigner values on the tensor grid eta_x (x) eta_z.

    Shape (len(eta_x), len(eta_z)): one real product F H^T of inner
    dimension 2d, F and H holding f_c and h_c on the two axes.
    """
    series = _series(state)
    eta_x = np.asarray(eta_x, dtype=float).ravel()
    eta_z = np.asarray(eta_z, dtype=float).ravel()
    return _x_factor(series, eta_x) @ _z_factor(series, eta_z).T


def x_bin_integrals(state: CodeState, bins: int, shift: float) -> np.ndarray:
    """Unnormalized mass of W(x - shift, z) in each of `bins` equal x bins of one period L.

    Over one z period only the kz = 0 column of the series survives, and a
    bin of width w = L / bins integrates exp(-2 pi i k (x - shift) / L) to
    w exp(-2 pi i k (mid - shift) / L) sinc(k / bins).
    """
    series = _series(state)
    kx, col = _kz0_column(series)
    width = series.cell / bins
    mid = (np.arange(bins)[:, None] + 0.5) * width - shift
    phase = np.exp((-TWO_PI / series.cell) * 1j * kx * mid)
    return series.cell * width * ((phase * np.sinc(kx / bins)) @ col).real
