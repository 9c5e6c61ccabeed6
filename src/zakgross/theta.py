"""Realistic code-state Wigner values, and lattice Gaussian (Siegel theta) sums.

A finite-squeezing code state's Wigner function is built once per state
from 1-D Gaussian peak sums (one correlation of envelope weights per basis
pair, grouped into at most 2d classes c), so delta = 0.01 (40 dB) builds
for d <= 7. It is a separable sum W(x, z) = sum_c f_c(x) h_c(z) over the
C <= 2d live classes, those whose rows are not exactly zero (logical j
keeps 2 at delta >= 0.25 and 1 at delta <= 0.05, the phase state all 2d
at delta >= 0.25 and d at delta <= 0.05); every factor below has C columns.
The x factor is a closed-form comb, the Poisson dual of its Fourier series:
f_c(x) = (1/ell) sum_m exp(-(x - c ell/2 - m L)^2 / delta^2), L = d ell,
summed over the few teeth nearest x, as many as a tail bound (_comb_teeth)
asks for. The z factor h_c(z) is a real trigonometric sum over 2Kz + 1
frequencies, Kz ~ 1/(ell delta); one FFT-built table per state holds its
Taylor polynomials of P ~ 12 terms on N ~ 8 Kz z cells, so a scattered
point costs O(C P), flat in delta; no dense 2-D series is built. The
cached AbsEnvelope holds the series, that table, a bound on each |h_c|
per cell (|W| <= sum_c f_c |h_c|, every f_c >= 0) and an alias table of
the bound's shares over the C x N live (class, cell) pairs, which propose
picks pairs from in O(1): the one handle _z_factor, _score and propose
take, and the sampler's certified envelope.
_score sums f_c h_c per point, a bounded chunk at a time, for wigner_theta
and propose; a grid contracts its axes' f_c and h_c by the same rule, so
it is wigner_theta bit for bit. negative_sum takes h_c on its midpoints
from one inverse FFT and bounds tiles to skip most; masses of bins
centred where the caller asks, and the norm, come in closed form from the
kz = 0 column. Its references (the dense series, the wavefunction, the
4-variable Wigner sum, the Gaussian vacuum, the literal z sum) live in
oracles.py.

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

from .qudit import logical_index

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
TILE = 16  # grid points per side of a negative_sum tile


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


def _check_d(d: int) -> None:
    """Refuse a qudit dimension d that is not odd and >= 3, before anything is built from it."""
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d must be odd and >= 3, got {d}")


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
        _check_d(self.d)
        if not (0 < self.delta < 2.0):
            raise ValueError(f"delta must lie in (0, 2), got {self.delta}")
        eps = tuple(complex(e) for e in self.eps)
        if len(eps) != self.d:
            raise ValueError(f"need {self.d} coefficients, got {len(eps)}")
        if not all(math.isfinite(abs(e)) for e in eps):
            raise ValueError(f"state coefficients must be finite, got {eps}")
        if max(abs(e) for e in eps) == 0:
            raise ValueError("state coefficients are all zero")
        object.__setattr__(self, "eps", eps)

    @classmethod
    def logical(cls, d: int, j: int, delta: float) -> "CodeState":
        _check_d(d)
        eps = [0.0] * d
        eps[logical_index(d, j)] = 1.0
        return cls(d, delta, tuple(eps))

    @classmethod
    def phase_state(cls, d: int, delta: float) -> "CodeState":
        """Equal-weight superposition with a flipped last coefficient."""
        _check_d(d)
        eps = [1.0 / math.sqrt(d)] * d
        eps[d - 1] *= -1.0
        return cls(d, delta, tuple(eps))

    @property
    def ell(self) -> float:
        return math.sqrt(TWO_PI / self.d)


class Series(NamedTuple):
    """A code state's Wigner function as a separable sum over its live classes; see _series."""

    u: np.ndarray  # (C, nkz) rows of the live classes, odd-kz columns rolled by d; read-only
    live: np.ndarray  # (C,) the live class ids, ascending, of the 2d; read-only
    classes: int  # 2d, the comb's class count
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
    """The unnormalized Wigner function of state as a separable sum over its live classes.

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
    peak, and its rows that are exactly zero are dropped: f_c h_c is then 0
    for every x and z, so only the C live classes are kept, with their ids.
    The norm comes from the kz = 0 column. Cached per state.
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
    live = np.flatnonzero(np.any(u != 0, axis=1))
    u = u[live]
    for frozen in (u, live):
        frozen.setflags(write=False)
    series = Series(u, live, 2 * d, b, int(reach), d * ell, ell, delta, _comb_teeth(ell, delta),
                    math.nan)
    _check_real(series)
    kx, col = _kz0_column(series)
    norm = series.cell ** 2 * float(col[kx == 0][0].real) / d
    if not norm > 0.0:
        raise RuntimeError(f"state norm must be positive, got {norm}")
    return series._replace(norm=norm)


def _check_real(series: Series) -> None:
    """Refuse a series whose imaginary part may exceed 1e-8 of its largest value.

    Since f_c >= 0, |Im W| <= sum_c max f_c * (1/2) sum_b |u[c, b] - conj u[c, -b]|
    everywhere, the sum over the live classes. The teeth of one class lie L
    apart, so from any x all but the nearest lie at least L/2, 3L/2, ...
    away on either side, and so
    ell max f_c <= 1 + 2 e^(-L^2 / 4 delta^2) / (1 - e^(-L^2 / delta^2)).
    The probe grid takes x on the comb's 2d tooth centres, z on 2Kz + 1 midpoints.
    """
    u, cell, delta = series.u, series.cell, series.delta
    f_max = 1.0 - 2.0 * math.exp(-((cell / delta) ** 2) / 4.0) / math.expm1(-((cell / delta) ** 2))
    residue = f_max / series.ell * 0.5 * float(np.abs(u - np.conjugate(u[:, ::-1])).sum())
    h = _z_midpoints(u, series.kz, u.shape[1])
    probe = _x_factor(series, np.arange(series.classes) * series.ell / 2) @ h.T
    if residue > 1e-8 * float(np.max(np.abs(probe))):
        raise ImaginaryResidue(f"Wigner series has imaginary residue {residue:.2e}")


def _x_factor(series: Series, x: np.ndarray) -> np.ndarray:
    """f_c(x) at points x (N,) for every live class: shape (N, C).

    Tooth n of the comb, at n ell/2, belongs to class n mod 2d; each point
    sums the 2J + 1 teeth nearest it (J from _comb_teeth). With e the
    offset from the nearest tooth and s = ell / (2 delta), both in units of
    delta, tooth j away weighs exp(-(e - j s)^2), which the recurrence
    g_j = g_(j-1) exp(2 e s) exp(-(2j - 1) s^2) walks with three
    exponentials per point. Teeth fold into the columns j mod 2d, and one
    gather per point rotates them onto the live classes by its nearest
    tooth's class.
    """
    classes = series.classes
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
    cols = series.live - np.mod(near, classes).astype(np.intp)[:, None] + series.teeth
    return np.take_along_axis(folded, np.mod(cols, classes), axis=1) / series.ell


def _z_factor(env: AbsEnvelope, z: np.ndarray) -> np.ndarray:
    """h_c(z) at points z (N,) for every live class: shape (N, C).

    z lies in cell j = floor((z mod L) N / L) of env.table (N - 1 if z mod L
    rounds to L) at t = 2 frac - 1: one Horner pass over all points, which
    reads one order's (N, C) rows of the table at a time.
    """
    table, cell = env.table, env.series.cell
    _orders, cells, classes = table.shape
    pos = np.mod(z, cell) * (cells / cell)
    j = np.minimum(pos.astype(np.intp), cells - 1)
    # t repeated along each row, so that every product below is one flat loop
    t = np.repeat(2.0 * (pos - j) - 1.0, classes).reshape(z.size, classes)
    # j lies in [0, N): mode="clip" changes no index, and spares the copy of
    # out that take makes under its default mode="raise"
    acc = table[-1].take(j, axis=0, mode="clip")
    row = np.empty_like(acc)
    for order in table[-2::-1]:
        acc *= t
        acc += order.take(j, axis=0, out=row, mode="clip")
    return acc


def cell_midpoints(period: float, n: int) -> np.ndarray:
    """(i + 1/2) period / n for i < n: both axes of a negativity level, _z_midpoints' z."""
    return (np.arange(n) + 0.5) * period / n


def _z_midpoints(u: np.ndarray, kz: np.ndarray, n: int) -> np.ndarray:
    """h_c at cell_midpoints(L, n) for every class row of u (C, nkz): shape (n, C).

    One inverse FFT per class of u[c, b] exp(i pi b / n) folded onto b mod n.
    """
    coef = np.zeros((u.shape[0], n), dtype=complex)
    np.add.at(coef, (slice(None), kz.astype(np.intp) % n), u * np.exp((math.pi / n) * 1j * kz))
    return (n * np.fft.ifft(coef, axis=1)).real.T


class AbsEnvelope(NamedTuple):
    """Certified bounds on each class's |h_c| over equal z cells; see abs_envelope.

    Data only: propose is the one place the envelope is drawn from and summed.
    """

    series: Series
    table: np.ndarray  # (P, N, C): the Taylor table _z_factor sums; read-only
    bound: np.ndarray  # (C, N): bound[c, j] >= |h_c| on z cell j of N, live c; read-only
    keep: np.ndarray  # alias table of the bound's shares over the C x N live (class, cell)
    alias: np.ndarray  # pairs: slot i keeps i with chance keep[i], else gives alias[i]
    mass: float  # integral over one cell of sum_c f_c(x) bound[c, j(z)]


@functools.lru_cache(maxsize=64)
def abs_envelope(state: CodeState) -> AbsEnvelope:
    """The z Taylor table and a certified sampling envelope of |W|, cached per state.

    Table T (P, N, C): h_c(m_j + t L / 2N) = sum_k T[k, j, c] t^k + R on
    |t| <= 1 for the C live classes c, with N the least power of two
    >= 4 (2Kz + 1), m_j = (j + 1/2) L / N and |R| <= (pi Kz / N)^P / P!
    sum_b |u[c, b]|, P the least order that puts this factor below
    SERIES_TOL. A negativity never builds it.
    Every comb f_c is >= 0, so |W(x, z)| <= sum_c f_c(x) |h_c(z)|, and on z
    cell j sum_k |T[k, j, c]| + SERIES_TOL sum_b |u[c, b]| bounds |h_c|:
    the added term covers R and the rounding of the FFTs and of h_c. Each
    comb has mass delta sqrt(pi) / ell. The alias table spans the C x N
    live (class, cell) pairs, row-major like bound.
    """
    series = _series(state)
    u, kz = series.u, series.kz
    cells = 1 << (4 * u.shape[1] - 1).bit_length()
    orders, rest, reach = 0, 1.0, math.pi * float(np.max(np.abs(kz))) / cells
    while rest > SERIES_TOL:  # rest = (pi Kz / N)^orders / orders!
        orders += 1
        rest *= reach / orders
    table = np.empty((orders, cells, u.shape[0]))
    for k in range(orders):  # order k: h_c at the midpoints, with u[c, b] (i pi b / N)^k / k!
        table[k] = _z_midpoints(u, kz, cells)
        u = u * ((1j * math.pi / (cells * (k + 1))) * kz)
    bound = np.abs(table).sum(axis=0).T
    bound += SERIES_TOL * np.abs(series.u).sum(axis=1)[:, None]
    keep, alias = _alias_table(bound.ravel())
    width = series.cell / cells  # of one z cell
    mass = float(bound.sum()) * width * series.delta * math.sqrt(math.pi) / series.ell
    for frozen in (table, bound, keep, alias):
        frozen.setflags(write=False)
    return AbsEnvelope(series, table, bound, keep, alias, mass)


def _alias_table(weights: np.ndarray):
    """(keep, alias) of Walker's alias method for the shares of weights (K,) >= 0.

    Slot i of K equal slots keeps outcome i with chance keep[i] and gives
    alias[i] otherwise, so one uniform picks an outcome in O(1). Vose's
    pairing, in closed form: with masses m = K w / sum w, the light
    outcomes (m < 1) lay their deficits 1 - m end to end on [0, D), and
    the heavy ones their surpluses m - 1 on the same line, ending at C_k.
    A light outcome takes its alias from the heavy one whose surplus holds
    the start of its deficit. A heavy outcome k whose end C_k falls inside
    a light outcome's deficit gave that outcome more than its surplus; it
    keeps 1 - (the excess) and takes its alias from heavy outcome k + 1.
    """
    size = weights.size
    mass = weights * (size / weights.sum())
    keep, alias = np.ones(size), np.arange(size)
    light, heavy = np.flatnonzero(mass < 1.0), np.flatnonzero(mass >= 1.0)
    if light.size == 0 or heavy.size == 0:  # every mass is 1 up to rounding
        return keep, alias
    deficit_end = np.cumsum(1.0 - mass[light])
    deficit_start = deficit_end - (1.0 - mass[light])
    surplus_end = np.cumsum(mass[heavy] - 1.0)
    keep[light] = mass[light]
    donor = np.searchsorted(surplus_end, deficit_start, side="right")
    alias[light] = heavy[np.minimum(donor, heavy.size - 1)]
    # the light deficit each heavy end C_k (the last aside) falls in
    ends = surplus_end[:-1]
    inside = np.minimum(np.searchsorted(deficit_end, ends, side="right"), light.size - 1)
    excess = deficit_end[inside] - ends
    over = np.flatnonzero((excess > 0) & (deficit_start[inside] < ends))
    keep[heavy[over]] = np.clip(1.0 - excess[over], 0.0, 1.0)
    alias[heavy[over]] = heavy[over + 1]
    return keep, alias


def alias_pick(keep: np.ndarray, alias: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """Outcomes of an alias table for uniforms in [0, 1): slot floor(K u), kept
    when the rest K u - slot falls below keep[slot], so one uniform serves both."""
    scaled = uniform * keep.size
    slot = np.minimum(scaled.astype(np.intp), keep.size - 1)
    return np.where(scaled - slot < keep[slot], slot, alias[slot])


def _kz0_column(series: Series):
    """(kx, M[kx, kz = 0]) for kx = -Kx..Kx, from V u[:, kz = 0] over the live classes."""
    kx = np.arange(-series.kx_max, series.kx_max + 1.0)
    v = np.exp(-((series.ell * series.delta * kx[:, None]) ** 2) / 4.0
               + (TWO_PI / series.classes) * 1j * np.outer(kx, series.live))
    scale = math.sqrt(math.pi) * series.delta / TWO_PI
    return kx, scale * (v @ series.u[:, series.kz == 0][:, 0])


def wigner_theta(state: CodeState, eta) -> np.ndarray:
    """Unnormalized Wigner values at points eta with shape (..., 2).

    Divide by code_state_norm(state) for the unit-norm state; the result then
    integrates to d over one (d ell)^2 cell. Each point is sum_c f_c h_c,
    summed by _score a bounded chunk of points at a time.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape[-1] != 2:
        raise ValueError(f"eta must have last dimension 2, got {eta.shape}")
    flat = eta.reshape(-1, 2)
    vals, _ = _score(abs_envelope(state), flat[:, 0], flat[:, 1])
    return vals.reshape(eta.shape[:-1])


def propose(env: AbsEnvelope, batch: int, rng):
    """(x, z, W, E): batch proposals from a state's envelope env, scored.

    Each proposal picks a (live class row, z cell j) pair in proportion to
    the row's bound on cell j (every comb has the same mass) from the alias
    table, maps the row to its class c through series.live, draws x
    exactly from the comb f_c, a wrapped Gaussian of width delta / sqrt 2
    about c ell / 2, and z uniformly in cell j. rng is wigner.SplitMix64
    (or a numpy Generator), and the variates are rng.random(batch) for the
    pick, rng.standard_normal(batch) for the Gaussian (SplitMix64's comes by
    Box-Muller from 2 ceil(batch / 2) uniforms) and rng.random(batch) for
    z, in that order. W is the unnormalized Wigner value, wigner_theta's,
    and E = sum_c f_c(x) env.bound[c, j] >= |W| its envelope, summed over
    the live classes.
    """
    series, cells = env.series, env.bound.shape[1]
    row, j = np.divmod(alias_pick(env.keep, env.alias, rng.random(batch)), cells)
    gauss = series.delta / math.sqrt(2) * rng.standard_normal(batch)
    x = np.mod(series.live[row] * (series.ell / 2) + gauss, series.cell)
    z = (j + rng.random(batch)) * (series.cell / cells)
    values, bounds = _score(env, x, z, j)
    return x, z, values, bounds


def _score(env: AbsEnvelope, x, z, cell=None):
    """(W, E) at points (x, z) (N,): W = sum_c f_c(x) h_c(z), unnormalized, and,
    with z cells `cell` (N,) given, E = sum_c f_c(x) env.bound[c, cell], else None.

    The one scattered-point scorer: each chunk of points, as many as hold
    2^16 floats of the z table's rows, computes f_c once for both sums, so
    no (N, C) array is held whole.
    """
    orders, _cells, classes = env.table.shape
    step = max(1, (1 << 16) // (classes * orders))
    values = np.empty(x.size)
    bounds = None if cell is None else np.empty(x.size)
    for lo in range(0, x.size, step):
        part = slice(lo, lo + step)
        f = _x_factor(env.series, x[part])
        values[part] = np.einsum("nc,nc->n", f, _z_factor(env, z[part]))
        if cell is not None:
            bounds[part] = np.einsum("nc,cn->n", f, env.bound[:, cell[part]])
    return values, bounds


def wigner_theta_grid(state: CodeState, eta_x, eta_z) -> np.ndarray:
    """Unnormalized Wigner values on the tensor grid eta_x (x) eta_z.

    Shape (len(eta_x), len(eta_z)): F and H hold f_c and h_c on the two
    axes, contracted over c by _score's own per-point class sum, so each
    entry is wigner_theta's value at that point, bit for bit.
    """
    env = abs_envelope(state)
    eta_x = np.asarray(eta_x, dtype=float).ravel()
    eta_z = np.asarray(eta_z, dtype=float).ravel()
    return np.einsum("ic,jc->ij", _x_factor(env.series, eta_x), _z_factor(env, eta_z))


def negative_sum(state: CodeState, n: int) -> float:
    """-sum of min(v, 0) over the unnormalized Wigner values on the n x n midpoint grid.

    Both axes take cell_midpoints(L, n), n a multiple of TILE (every level
    of wigner._abs_integral is one). F and H, f_c and h_c on them (H by
    _z_midpoints, made row-major like F), are cut into whole TILE x TILE
    tiles. _tile_signs bounds each tile's values from its least and
    greatest F and H. A nonnegative tile adds nothing; a negative one adds
    its sum in closed form, sum_c (sum of F_c)(sum of H_c) over the C live
    classes, which differs from its computed values' sum by rounding alone,
    at most about (2 TILE + C) u of its sum of |F_c H_c|, u = 2^-53. The
    undecided tile pairs, in row-major order, are evaluated T at a time
    (T tiles per side: one tile row's worth of values) in one stacked
    product, clipped and summed.
    """
    if n % TILE:
        raise ValueError(f"n must be a multiple of TILE = {TILE}, got {n}")
    series = _series(state)
    eta = cell_midpoints(series.cell, n)
    tiles = (n // TILE, TILE, series.live.size)
    f = _x_factor(series, eta).reshape(tiles)
    h = np.ascontiguousarray(_z_midpoints(series.u, series.kz, n)).reshape(tiles)
    negative, undecided = _tile_signs(f, h)
    settled = float((f.sum(axis=1) @ h.sum(axis=1).T)[negative].sum())
    h = np.ascontiguousarray(h.transpose(0, 2, 1))  # H^T per tile: a batch gathers whole tiles
    ti, tj = np.nonzero(undecided)
    total, step = 0.0, f.shape[0]
    for lo in range(0, ti.size, step):
        vals = f[ti[lo: lo + step]] @ h[tj[lo: lo + step]]
        total -= float(np.minimum(vals, 0.0, out=vals).sum())
        del vals  # freed before the next batch's product, not after it
    return total - settled


def _tile_signs(f: np.ndarray, h: np.ndarray):
    """(negative, undecided) masks over the tile pairs (i, j) of tiled F and H.

    On a tile, class by class, F_c lies in [f_lo, f_hi] with f_lo >= 0 and
    H_c in [h_lo, h_hi], so F_c H_c >= f_hi min(h_lo, 0) + f_lo max(h_lo, 0)
    and F_c H_c <= f_hi max(h_hi, 0) + f_lo min(h_hi, 0); summed over c,
    these are the tile's lower and upper bounds. A tile is negative when
    upper < -margin, nonnegative (in neither mask) when lower >= margin, and
    undecided otherwise.

    Rounding: a computed grid value, or a computed bound, is within
    (C + 1) u A of the exact one (Higham's dot-product bound over the C
    live classes, u = 2^-53), where A = sum_c f_hi max(h_hi, -h_lo) bounds
    sum_c |F_c H_c| on the tile. The margin 4 (C + 1) u A covers both
    roundings twice, so every computed value of a nonnegative tile is >= 0
    and every one of a negative tile is < 0: clipping the computed grid
    would treat them the same way.
    """
    f_lo, f_hi, h_lo, h_hi = f.min(axis=1), f.max(axis=1), h.min(axis=1), h.max(axis=1)
    lower = f_hi @ np.minimum(h_lo, 0.0).T + f_lo @ np.maximum(h_lo, 0.0).T
    upper = f_hi @ np.maximum(h_hi, 0.0).T + f_lo @ np.minimum(h_hi, 0.0).T
    margin = (4 * f.shape[2] + 4) * 2.0 ** -53 * (f_hi @ np.maximum(h_hi, -h_lo).T)
    negative = upper < -margin
    return negative, ~negative & (lower < margin)


def x_bin_integrals(state: CodeState, centres) -> np.ndarray:
    """Unnormalized mass of W in each of the equal x bins centred at centres (B,).

    The B bins have width w = L / B, so they tile one period L. Over one z
    period only the kz = 0 column of the series survives, and a bin
    integrates exp(-2 pi i k x / L) to w exp(-2 pi i k centre / L) sinc(k / B).
    """
    series = _series(state)
    kx, col = _kz0_column(series)
    width = series.cell / centres.size
    phase = np.exp((-TWO_PI / series.cell) * 1j * kx * centres[:, None])
    return series.cell * width * ((phase * np.sinc(kx / centres.size)) @ col).real
