"""Brute-force references and the acceptance checks built on them.

Everything here is slow or literal on purpose: the tests and `zakgross
verify` hold the runtime modules to these definitions, and no runtime module
imports this one.

- Theta sums: one evaluation of the lattice sum and the sub-lattice
  (parity) sums, checked against mpmath and brute force.
- Code states: the position wavefunction, the norm by direct peak-overlap
  summation, the dense Wigner series built from 2-D sub-lattice theta sums
  with its evaluators on grids and points (the independent reference for
  theta._series, which sums the same Gaussian peaks in 1-D and evaluates
  them in separable form), the literal 4-variable Wigner sum of a finitely
  squeezed state and the Gaussian (vacuum) Wigner function, both evaluated
  on tensor grids (eta_x, eta_z) like theta.wigner_theta_grid. The literal
  Wigner sum enumerates the same peak pairs as theta._series, so it checks
  the phase conventions rather than the summation.
  z_factor_sum sums each class's z factor h_c term by term, the reference
  for theta's table and midpoint FFT.
- Measurement: the POVM indicator and marginals from |psi|^2 alone.
- Symplectic: the covariance shift t(S) and the exponent parity identity.
- Quadrature: the cell integral and 1-D bin integrals.
- Checks: the six desk-scale checks that `zakgross verify` runs and the
  acceptance criteria run at their own sizes. Each returns (ok, detail).
"""
from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from . import estimator as est_mod
from .measure import (
    MeasurementSpec,
    bin_of_position,
    exact_probabilities_ideal,
    quadrature_probabilities,
)
from .quadrature import escalate, integrate_bins_x, panel_rule
from .qudit import CodeParams, Gate, clifford_oracle_probabilities
from .symplectic import IntSymplectic, decompose, symplectic_form, t_bar, word_symplectic
from .theta import (
    MAX_TERMS,
    TWO_PI,
    CodeState,
    TruncationOverflow,
    _check_gamma,
    _k_range,
    _sum_terms,
    _theta_terms,
    siegel_theta_batch,
    wigner_theta,
    wigner_theta_grid,
)
from .wigner import RealisticFactor, ideal_input, realistic_input

ONE_MODE = ["F", "F_inv", "P", "P_inv", "X", "Z"]
TWO_MODE = ["SUM", "SUM_inv", "CZ", "CZ_inv"]
SP_TAGS = ["F", "F_inv", "P", "P_inv", "SUM", "SUM_inv", "CZ", "CZ_inv"]


# ---- theta sums ----------------------------------------------------------------


def siegel_theta(gamma, z, tol: float = 1e-14):
    """theta(Gamma, z) as (value, radius). Raises on overflow instead of inf."""
    z = np.asarray(z, dtype=complex).ravel()
    vals, log_scale, radius = siegel_theta_batch(
        gamma, 1j * z.imag, z.real[None, :], tol=tol
    )
    if log_scale > 700.0:
        raise TruncationOverflow(
            f"theta magnitude exp({log_scale:.1f}) overflows a float; "
            "use siegel_theta_batch for the scaled value"
        )
    return complex(vals.reshape(-1)[0] * math.exp(log_scale)), radius


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


def sublattice_theta_batch(gamma, z0, offsets, parity, tol: float = 1e-14):
    """Sum over t congruent to parity mod 2 of the theta summand, batched.

    Returns (values, log_scale, radius): the sum at z0 + x_k is
    values[k] * exp(log_scale); see _sublattice_terms for the identity.
    """
    offsets = np.asarray(offsets, dtype=float)
    f, c, log_scale, radius = _sublattice_terms(gamma, z0, parity, tol)
    if offsets.shape[-1] != f.shape[1]:
        raise ValueError(f"offsets must have last dimension {f.shape[1]}")
    return _sum_terms(f, c, offsets), log_scale, radius


# ---- code states ---------------------------------------------------------------


def wavefunction(state: CodeState, x, tol: float = 1e-16) -> np.ndarray:
    """Position wavefunction values (unnormalized, complex)."""
    x = np.asarray(x, dtype=float)
    d, delta, ell = state.d, state.delta, state.ell
    kmax = _k_range(d, delta, ell, tol)
    psi = np.zeros(x.shape, dtype=complex)
    for j in range(d):
        if state.eps[j] == 0:
            continue
        for k in range(-kmax, kmax + 1):
            mu = (j + d * k) * ell
            psi += (
                state.eps[j]
                * math.exp(-0.5 * delta ** 2 * mu ** 2)
                * np.exp(-((x - mu) ** 2) / (2.0 * delta ** 2))
            )
    return psi


def overlap_norm(state: CodeState, tol: float = 1e-16) -> float:
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
    return total


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


def sublattice_series(state: CodeState, tol: float = 1e-14):
    """The Wigner series of theta._series, built from 2-D sub-lattice theta sums.

    Returns (M, kx, kz, L) in theta._series' convention. Per basis pair the
    A-blocks carry z and the B-blocks x, each a sub-lattice theta sum at
    offset (z/L, 0) or (-x/L, 0): a trigonometric polynomial with
    frequencies 2 s_0 + p_0. Shares no code with the 1-D peak-sum route;
    slow at small delta, and refused by the box caps below about 0.05.
    """
    blocks = []  # (weight, x frequencies, x coefficients, z frequencies, z coefficients)
    parities = [(p, sg) for p in (0, 1) for sg in (0, 1)]
    for j in range(state.d):
        for jp in range(state.d):
            coeff = np.conjugate(state.eps[j]) * state.eps[jp]
            if coeff == 0:
                continue
            gamma_a, za0, gamma_b, zb0, log_c = _pair_blocks(state, j, jp)
            a = {p: _sublattice_terms(gamma_a, za0, p, tol) for p in parities}
            b = {p: _sublattice_terms(gamma_b, zb0, p, tol) for p in parities}
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
    cell = state.d * state.ell
    return m, np.arange(-kx_max, kx_max + 1.0), np.arange(-kz_max, kz_max + 1.0), cell


def _series_axes(series, eta_x, eta_z):
    """(E_x M, E_z): W = Re (E_x M) E_z^T on the grid, row-wise on point pairs."""
    m, kx, kz, cell = series
    ex = np.exp((-TWO_PI / cell) * 1j * np.outer(eta_x, kx))
    return ex @ m, np.exp((TWO_PI / cell) * 1j * np.outer(eta_z, kz))


def dense_series_grid(series, eta_x, eta_z) -> np.ndarray:
    """A dense series (M, kx, kz, L), as sublattice_series returns, on eta_x (x) eta_z."""
    left, ez = _series_axes(series, eta_x, eta_z)
    return np.hstack([left.real, -left.imag]) @ np.hstack([ez.real, ez.imag]).T


def dense_series_points(series, eta) -> np.ndarray:
    """A dense series (M, kx, kz, L) at the points eta (N, 2), one row each."""
    left, ez = _series_axes(series, eta[:, 0], eta[:, 1])
    return (left * ez).real.sum(axis=1)


def z_factor_sum(series, z) -> np.ndarray:
    """h_c(z) = Re sum_b u[c, b] exp(2 pi i kz[b] z / L) of a theta.Series by
    the literal sum over its 2Kz + 1 frequencies: shape (N, C) for the C rows
    of u at points z (N,), reduced mod L first so that a large z keeps its
    phase's digits.
    """
    chunk = 1024  # points per phase block
    z = np.mod(np.asarray(z, dtype=float).ravel(), series.cell)
    phases = (np.exp((TWO_PI / series.cell) * 1j * np.outer(z[lo: lo + chunk], series.kz))
              for lo in range(0, z.size, chunk))
    return np.vstack([(p @ series.u.T).real for p in phases])


def wigner_oracle(state: CodeState, eta_x, eta_z, tol: float = 1e-18) -> np.ndarray:
    """Literal direct-sum values of the unnormalized Wigner function.

    Shape (len(eta_x), len(eta_z)), the same values as
    theta.wigner_theta_grid. Enumerates displacement exponents and peak
    indices literally; shares no code with the series route.
    """
    d, delta, ell = state.d, state.delta, state.ell
    log_tol = math.log(1.0 / tol)

    kmax = _k_range(d, delta, ell, tol)
    ax_max = 2 * d * kmax + 2 * d + int(math.ceil(2.0 * delta * math.sqrt(log_tol) / ell)) + 2
    az_max = int(math.ceil(2.0 * math.sqrt(log_tol) / (ell * delta))) + 2
    ax = np.arange(-ax_max, ax_max + 1)
    az = np.arange(-az_max, az_max + 1)

    # eta-independent inner sum G(a_X, a_Z) over basis pairs and peaks
    g = np.zeros((ax.size, az.size), dtype=complex)
    k = np.arange(-kmax, kmax + 1)
    az_gauss = np.exp(-(ell * delta * az) ** 2 / 4.0)
    for j in range(d):
        for jp in range(d):
            coeff = state.eps[j] * np.conjugate(state.eps[jp])
            if coeff == 0:
                continue
            mu = (j + d * k) * ell  # unconjugated factor's peaks
            mup = (jp + d * k) * ell
            env = np.exp(-0.5 * delta ** 2 * mu ** 2)
            envp = np.exp(-0.5 * delta ** 2 * mup ** 2)
            # cross square couples a_X with mu - mu'
            diffs = mu[:, None] - mup[None, :]  # (k, k')
            sums = mu[:, None] + mup[None, :]
            weight = env[:, None] * envp[None, :]
            for ia, a in enumerate(ax):
                cross = np.exp(-((diffs + ell * a) ** 2) / (4.0 * delta ** 2))
                w2 = weight * cross
                mask = w2 > tol
                if not mask.any():
                    continue
                phase = np.exp(
                    0.5j * (ell * az)[None, :] * (sums[mask][:, None] - ell * a)
                )
                g[ia, :] += coeff * (w2[mask][:, None] * phase).sum(axis=0)
    g *= math.sqrt(math.pi) * delta * az_gauss[None, :]

    # boundary audit: the box must have died out at its edges
    edge = max(
        float(np.max(np.abs(g[0, :]))),
        float(np.max(np.abs(g[-1, :]))),
        float(np.max(np.abs(g[:, 0]))),
        float(np.max(np.abs(g[:, -1]))),
    )
    scale = float(np.max(np.abs(g)))
    if scale > 0 and edge > 1e-12 * scale:
        raise TruncationOverflow(
            f"oracle lattice box is too small: edge magnitude {edge:.2e} "
            f"against peak {scale:.2e}"
        )

    # fold in the displacement phase conventions, then attach eta phases
    half = np.exp(1j * math.pi * np.outer(ax, az) * (1.0 + 1.0 / d))
    vals = _attach_eta_phases(g * half, ax, az, eta_x, eta_z, ell)
    # sum |G| / 2 pi bounds every value, and the phase sums round on that
    # scale, however small the values at the requested points are
    if np.max(np.abs(vals.imag)) > 1e-8 * float(np.abs(g).sum()) / TWO_PI:
        raise ValueError("oracle Wigner values failed to be real")
    return vals.real


def _attach_eta_phases(m_full, ax, az, eta_x, eta_z, ell):
    """(1/2pi) sum_ab m[a,b] e^{i ell (a eta_z - b eta_x)} on the grid eta_x (x) eta_z."""
    e_x = np.exp(-1j * ell * np.outer(np.ravel(eta_x), az))
    e_z = np.exp(1j * ell * np.outer(np.ravel(eta_z), ax))
    return (e_x @ m_full.T) @ e_z.T / TWO_PI


def gaussian_wigner(d: int, eta_x, eta_z, width: float = 1.0, tol: float = 1e-16) -> np.ndarray:
    """Wigner values of a centered Gaussian of the given width, unit norm.

    Shape (len(eta_x), len(eta_z)); integrates to d over one cell, matching
    the code-state convention.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d must be odd and >= 3, got {d}")
    ell = math.sqrt(TWO_PI / d)
    log_tol = math.log(1.0 / tol)
    ax_max = int(math.ceil(2.0 * width * math.sqrt(log_tol) / ell)) + 2
    az_max = int(math.ceil(2.0 * math.sqrt(log_tol) / (ell * width))) + 2
    ax = np.arange(-ax_max, ax_max + 1)
    az = np.arange(-az_max, az_max + 1)
    mag = np.exp(
        -((ell * ax[:, None]) ** 2) / (4.0 * width ** 2)
        - (ell * width * az[None, :]) ** 2 / 4.0
    )
    signs = np.where((ax[:, None] * az[None, :]) % 2, -1.0, 1.0)
    return _attach_eta_phases(mag * signs, ax, az, eta_x, eta_z, ell).real


# ---- measurement ---------------------------------------------------------------


def povm_indicator(spec: MeasurementSpec, period: float, z, eta) -> np.ndarray:
    """1 where points (..., 2n) have every measured position in its z-bin.

    Bins split one period (the state's torus period) into spec.K equal parts.
    z gives one bin index per measured mode, in spec.measured_modes order.
    The position coordinate of mode i sits at component i of eta.
    """
    eta = np.asarray(eta, dtype=float)
    z = tuple(int(o) for o in np.atleast_1d(z))
    if len(z) != len(spec.measured_modes):
        raise ValueError("bin vector length must match the measured mode count")
    if any(not 0 <= o < spec.K for o in z):
        raise ValueError(f"bin indices must lie in [0, {spec.K}), got {z}")
    ok = np.ones(eta.shape[:-1], dtype=bool)
    for mode, want in zip(spec.measured_modes, z):
        got = bin_of_position(eta[..., mode], period, spec.K)
        ok &= got == want
    return ok.astype(float)


def wavefunction_bin_probabilities(
    factor: RealisticFactor, bins: int, shift: float = 0.0
) -> np.ndarray:
    """Marginal oracle: fold |psi|^2 into the cell and bin it.

    Never touches the Wigner machinery; used to validate it.
    """
    state = factor.state
    period = state.d * state.ell
    reach = math.sqrt(2.0 * math.log(1e18)) / state.delta
    n_fold = int(math.ceil(reach / period)) + 1

    def density(s):
        s = np.asarray(s, dtype=float)
        acc = np.zeros_like(s)
        for nn in range(-n_fold, n_fold + 1):
            acc += np.abs(wavefunction(state, s - shift + nn * period)) ** 2
        return acc / factor.norm

    edges = np.linspace(0.0, period, bins + 1)
    vec, _err = integrate_bins_1d(density, edges, panels_per_bin=6, abs_tol=1e-10)
    return vec


# ---- symplectic ----------------------------------------------------------------


def covariance_shift_lattice(S: IntSymplectic) -> np.ndarray:
    """Integer vector v such that the shift is t = (d/2) ell v."""
    om_inv = -symplectic_form(S.n)  # Omega^{-1} = -Omega
    return S.mat @ (om_inv @ t_bar(S))


def covariance_shift(S: IntSymplectic, params: CodeParams) -> np.ndarray:
    """The phase-space shift t accompanying S, as floats."""
    v = covariance_shift_lattice(S).astype(float)
    return (params.d / 2.0) * params.ell * v


def shift_over_ell(S: IntSymplectic, params: CodeParams) -> tuple:
    """t/ell as exact Fractions: (d/2) * S Omega^{-1} t_bar."""
    return tuple(Fraction(params.d * int(x), 2) for x in covariance_shift_lattice(S))


def parity_identity_holds(S: IntSymplectic, a) -> np.ndarray:
    """(Sa)_X . (Sa)_Z == a_X . a_Z + t_bar . a  (mod 2), elementwise over a batch."""
    a = np.asarray(a, dtype=object)
    batch = a.reshape(-1, a.shape[-1])
    n = S.n
    sa = batch @ S.mat.T
    lhs = (sa[:, :n] * sa[:, n:]).sum(axis=1)
    rhs = (batch[:, :n] * batch[:, n:]).sum(axis=1) + batch @ t_bar(S)
    ok = np.array([(int(l) - int(r)) % 2 == 0 for l, r in zip(lhs, rhs)])
    return ok.reshape(a.shape[:-1])


# ---- quadrature ----------------------------------------------------------------


def integrate_cell_2d(
    eval_grid, x_edges, z_edges, abs_tol: float = 1e-9, start_nodes: int = 8, max_nodes: int = 48
):
    """Integral of eval_grid(xs, zs) over the rectangle partition.

    Returns (value, error_estimate); the estimate is the change between the
    final two node levels.
    """

    def level(nodes):
        px, wx = panel_rule(x_edges, nodes)
        pz, wz = panel_rule(z_edges, nodes)
        return float(wx @ eval_grid(px, pz) @ wz)

    return escalate(level, abs_tol, start_nodes, max_nodes)


def integrate_bins_1d(
    f, bin_edges, panels_per_bin: int = 4, abs_tol: float = 1e-10,
    start_nodes: int = 8, max_nodes: int = 48,
):
    """Per-bin integrals of a vectorized 1-D function."""

    def eval_grid(xs, zs):
        return np.outer(np.asarray(f(xs), dtype=float), np.ones(zs.size))

    return integrate_bins_x(
        eval_grid, bin_edges, [0.0, 1.0], panels_per_bin, abs_tol, start_nodes, max_nodes
    )


# ---- checks shared by `zakgross verify` and the acceptance suite ---------------


def random_word(rng, n, length, tags=None):
    """A random gate word of the given length; two-mode tags need n >= 2."""
    word = []
    tag_pool = list(tags) if tags is not None else ONE_MODE + TWO_MODE
    if n < 2:
        tag_pool = [t for t in tag_pool if t not in TWO_MODE]
    for _ in range(length):
        tag = str(rng.choice(tag_pool))
        if tag in TWO_MODE:
            i, j = rng.choice(n, size=2, replace=False)
            word.append(Gate(tag, (int(i), int(j))))
        else:
            word.append(Gate(tag, (int(rng.integers(n)),)))
    return word


def check_gottesman_knill(rng, ds, ns, circuits: int):
    """Ideal circuits against the dense Clifford oracle.

    Ideal inputs, generator words and lattice displacements, binned at K=d;
    `circuits` random circuits per (d, n).
    """
    worst = 0.0
    for d in ds:
        for n in ns:
            params = CodeParams(d=d, n=n)
            for _ in range(circuits):
                inputs = [int(rng.integers(d)) for _ in range(n)]
                word = random_word(rng, n, int(rng.integers(1, 11)))
                disp = rng.integers(0, d, size=2 * n)
                k = int(rng.integers(1, n + 1))
                measured = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))

                state = ideal_input(params, inputs)
                state = state.apply_ops([*word, disp.tolist()])
                spec = MeasurementSpec(measured, d)
                got = exact_probabilities_ideal(state, spec)

                oracle_gates = list(word)
                for m in range(n):
                    oracle_gates += [Gate("X", (m,))] * int(disp[m])
                    oracle_gates += [Gate("Z", (m,))] * int(disp[n + m])
                ref = clifford_oracle_probabilities(params, inputs, oracle_gates, measured)
                worst = max(worst, float(np.abs(got - ref).max()))
    total = circuits * len(ds) * len(ns)
    return worst < 1e-9, (
        f"ideal circuits vs dense oracle, d in {tuple(ds)}, n in {tuple(ns)}, "
        f"{total} random circuits: max dev {worst:.2e} (tol 1e-9)"
    )


def check_theta_oracle(deltas, n_grid: int):
    """Pointwise series values against the literal oracle, n_grid^2 points.

    Both state kinds at each width, d = 3. The deviation is relative to the
    largest magnitude on each grid: the function crosses zero, so a per-point
    quotient is unstable.
    """
    d = 3
    period = d * math.sqrt(TWO_PI / d)
    xs = np.linspace(0.0, period, n_grid, endpoint=False) + 0.0137
    worst = 0.0
    for delta in deltas:
        for st in (CodeState.logical(d, 0, delta), CodeState.phase_state(d, delta)):
            a = wigner_theta(st, np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1))
            b = wigner_oracle(st, xs, xs)
            worst = max(worst, float(np.abs(a - b).max() / np.abs(b).max()))
    return worst < 1e-6, (
        f"theta evaluation vs direct-definition oracle on {n_grid}x{n_grid} grids, "
        f"widths {tuple(deltas)}, both states: max rel dev {worst:.2e} (tol 1e-6)"
    )


def check_normalization(deltas):
    """The 0-logical Wigner function (d = 3), divided by d times its
    peak-overlap norm, integrates to 1 over a cell. The series' own norm,
    L^2 Re M[0, 0] / d, would make this hold by construction.
    """
    d = 3
    period = d * math.sqrt(TWO_PI / d)
    edges = np.linspace(0.0, period, 2 * d + 1)
    worst = 0.0
    for delta in deltas:
        state = CodeState.logical(d, 0, delta)
        scale = d * overlap_norm(state)
        val, _ = integrate_cell_2d(
            lambda xs, zs: wigner_theta_grid(state, xs, zs) / scale, edges, edges, abs_tol=1e-8
        )
        worst = max(worst, abs(val - 1.0))
    return worst < 1e-5, f"normalized cell integral equals 1: max dev {worst:.2e} (tol 1e-5)"


def check_decompose_roundtrip(rng, trials: int):
    """Compose a random word, decompose its matrix and recompose, exactly."""
    for trial in range(trials):
        n = int(rng.integers(1, 4))
        params = CodeParams(d=3, n=n)
        word = random_word(rng, n, int(rng.integers(1, 16)), tags=SP_TAGS)
        s = word_symplectic(word, params)
        if not np.array_equal(s.mat, word_symplectic(decompose(s), params).mat):
            return False, f"round trip broke on trial {trial}"
    return True, f"{trials} compose/decompose/recompose round trips exact"


def calibration(n_seeds: int, epsilon: float, delta_fail: float) -> dict:
    """Estimator calibration on a fixed 2-mode stabilizer circuit.

    Estimates the outcome table at seeds 0..n_seeds-1 against the dense
    oracle. Returns seed 0's drawn and planned sample counts, the
    negativity, the failure count (largest bin error above epsilon), the
    count allowed at delta_fail plus three binomial standard deviations,
    the worst bin error, the largest pooled bias in standard errors, the
    wall time, and whether a repeat of seed 0 is identical.
    """
    d, n = 3, 2
    params = CodeParams(d=d, n=n)
    word = [Gate("F", (0,)), Gate("SUM", (0, 1)), Gate("P", (1,)), Gate("Z", (0,))]
    disp = [0, 1, 2, 0]
    state = ideal_input(params, [1, 0]).apply_ops([*word, disp])
    spec = MeasurementSpec((0, 1), d)
    oracle_gates = list(word) + [Gate("Z", (0,))] * disp[2] + [Gate("X", (1,))] * disp[1]
    exact = clifford_oracle_probabilities(params, [1, 0], oracle_gates, (0, 1))

    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    t0 = time.time()
    fails = 0
    worst = 0.0
    err_sum = np.zeros_like(exact)
    se_sq = np.zeros_like(exact)
    for seed in range(n_seeds):
        rep = est_mod.estimate(state, spec, epsilon, delta_fail, seed=seed)
        if seed == 0:
            first = rep.probabilities
        err = rep.probabilities - exact
        err_sum += err
        se_sq += np.square(rep.std_errors)
        top = float(np.abs(err).max())
        worst = max(worst, top)
        fails += top > epsilon
    again = est_mod.estimate(state, spec, epsilon, delta_fail, seed=0)
    pooled_se = np.sqrt(se_sq / n_seeds / n_seeds)
    return {
        "n_samples": again.n_samples,
        "planned_samples": again.planned_samples,
        "negativity": again.negativity,
        "fails": fails,
        "allowed": n_seeds * delta_fail + 3.0 * math.sqrt(n_seeds * delta_fail * (1 - delta_fail)),
        "worst": worst,
        "bias": float(np.abs(err_sum / n_seeds / np.maximum(pooled_se, 1e-15)).max()),
        "elapsed": time.time() - t0,
        "repeatable": bool(np.array_equal(first, again.probabilities)),
    }


def check_calibration(n_seeds: int, epsilon: float, delta_fail: float):
    """calibration() within its failure allowance, bias under 3 pooled
    standard errors, and seed 0 reproduced exactly.
    """
    c = calibration(n_seeds, epsilon, delta_fail)
    ok = c["fails"] <= c["allowed"] and c["bias"] < 3.0 and c["repeatable"]
    return ok, (
        f"2-mode ideal, {n_seeds} seeds at eps={epsilon}, delta={delta_fail}: "
        f"{c['fails']} failures (allowed {c['allowed']:.1f}), bias {c['bias']:.2f} "
        f"pooled SEs (tol 3), seed 0 repeats exactly: {c['repeatable']}"
    )


def check_realistic_sampler(deltas, epsilon: float, delta_fail: float, seed: int):
    """Displacement-only realistic estimates against quadrature_probabilities.

    A d = 3 phase state, displaced by 0.3 ell in x and measured in 2d bins,
    at each width: every sample of the estimate comes from the realistic
    rejection sampler, and the closed-form table comes from the Fourier
    series, so agreement within epsilon checks the sampler's law.
    """
    d = 3
    params = CodeParams(d=d, n=1)
    spec = MeasurementSpec((0,), 2 * d)
    worst = 0.0
    for delta in deltas:
        state = realistic_input(params, [CodeState.phase_state(d, delta)])
        state = state.apply_ops([[0.3, 0.0]])
        got = est_mod.estimate(state, spec, epsilon, delta_fail, seed=seed).probabilities
        worst = max(worst, float(np.abs(got - quadrature_probabilities(state, spec)).max()))
    return worst <= epsilon, (
        f"displaced phase state, widths {tuple(deltas)}, estimate vs quadrature table: "
        f"max dev {worst:.2e} (tol {epsilon}, delta {delta_fail}, seed {seed})"
    )
