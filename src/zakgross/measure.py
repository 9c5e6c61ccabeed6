"""Modular position measurements: binning, exact and quadrature probabilities.

The measurement reads the position coordinate of each measured mode modulo
one period d*ell and coarse-grains it into K equal bins with half-open edges
k * (d*ell) / K. With K = d on an ideally encoded state the bin index is the
logical outcome; the dense qudit oracle pins which coordinate block carries
that outcome (the first, position block, in this package's layout).

Two exact routes live here. All-ideal states go through integer lattice
arithmetic end to end, so there are no boundary or rounding questions.
Product states whose accumulated map is displacement-only factorize into
per-mode marginals, integrated by quadrature for realistic factors.
Anything beyond that is the estimator's job.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_bins_1d, integrate_bins_x
from .theta import wavefunction
from .wigner import IdealFactor, RealisticFactor, WignerState


@dataclass(frozen=True)
class MeasurementSpec:
    """Which modes are read out, how many bins per mode, and the period.

    Bin k covers [k * period / K, (k+1) * period / K); edges belong to the
    bin on their right.
    """

    measured_modes: tuple
    K: int
    period: float

    def __post_init__(self):
        modes = tuple(int(m) for m in self.measured_modes)
        if len(modes) == 0:
            raise ValueError("at least one mode must be measured")
        if len(set(modes)) != len(modes):
            raise ValueError(f"measured modes must be distinct, got {modes}")
        if any(m < 0 for m in modes):
            raise ValueError(f"mode indices must be non-negative, got {modes}")
        if self.K < 1:
            raise ValueError(f"bin count must be positive, got {self.K}")
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")
        object.__setattr__(self, "measured_modes", modes)

    @classmethod
    def from_params(cls, params, measured_modes, K: int) -> "MeasurementSpec":
        return cls(tuple(measured_modes), int(K), params.torus_period)

    @property
    def bin_edges(self) -> np.ndarray:
        return np.linspace(0.0, self.period, self.K + 1)

    def table_shape(self) -> tuple:
        return (self.K,) * len(self.measured_modes)


def bin_of_position(x, period: float, bins: int) -> np.ndarray:
    """Bin index of a position value folded into [0, period)."""
    frac = np.mod(np.asarray(x, dtype=float), period) / period
    idx = np.floor(frac * bins + 1e-12).astype(int)
    return np.clip(idx, 0, bins - 1)


def povm_indicator(spec: MeasurementSpec, z, eta) -> np.ndarray:
    """1 where points (..., 2n) have every measured position in its z-bin.

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
        got = bin_of_position(eta[..., mode], spec.period, spec.K)
        ok &= got == want
    return ok.astype(float)


def exact_probabilities(state: WignerState, spec: MeasurementSpec) -> np.ndarray:
    """Exact outcome table, shape (K,) * m, summing to 1.

    Dispatches to the integer lattice path for all-ideal states and to
    per-mode quadrature for displacement-only circuits on product inputs.
    """
    _check_spec(state, spec)
    if state.is_ideal():
        return exact_probabilities_ideal(state, spec)
    ident = np.eye(2 * state.params.n, dtype=object)
    if np.array_equal(state.amap.S.mat, ident):
        return quadrature_probabilities(state, spec)
    raise ValueError(
        "exact probabilities need an all-ideal state or a displacement-only "
        "circuit; run the estimator for entangling circuits on realistic inputs"
    )


def exact_probabilities_ideal(
    state: WignerState, spec: MeasurementSpec
) -> np.ndarray:
    """Integer-exact outcome table for an all-ideal state."""
    _check_spec(state, spec)
    joint, weights = lattice_bins(state, spec)
    shape = spec.table_shape()
    flat = np.bincount(joint, weights=weights, minlength=math.prod(shape))
    table = flat.reshape(shape)
    total = table.sum()
    assert abs(total - 1.0) < 1e-12, f"ideal probabilities sum to {total}"
    low = table.min()
    assert low > -1e-9, f"negative exact probability {low}"
    return np.clip(table, 0.0, None)


def lattice_bins(state: WignerState, spec: MeasurementSpec):
    """Flat joint bin index and signed weight of each lattice support point.

    The joint index is row-major over spec.measured_modes. Support points are
    pushed in exact integers (units of ell/2) and folded mod 2d, one period,
    before they are binned, so no point lands on the wrong side of an edge.
    Raises ValueError unless every factor is ideal.
    """
    d = state.params.d
    m2, weights = state.lattice_support()
    pushed = state.amap.push_lattice_half(m2, spec.measured_modes)
    folded = np.mod(pushed, 2 * d).astype(np.int64)
    bins = folded * spec.K // (2 * d)
    return np.ravel_multi_index(tuple(bins.T), spec.table_shape()), weights


def quadrature_probabilities(
    state: WignerState, spec: MeasurementSpec, abs_tol: float = 1e-10
) -> np.ndarray:
    """Per-mode marginal quadrature for a displacement-only circuit.

    Valid because the map then factorizes mode by mode and the Wigner
    function is periodic in the unmeasured momentum coordinate, which is
    integrated over one full period.
    """
    _check_spec(state, spec)
    params = state.params
    ident = np.eye(2 * params.n, dtype=object)
    if not np.array_equal(state.amap.S.mat, ident):
        raise ValueError("quadrature path requires a displacement-only map")
    period = params.torus_period
    k = spec.K
    per_mode = []
    for mode in spec.measured_modes:
        shift = float(state.amap.c[mode]) * params.ell  # position offset
        factor = state.factors[mode]
        if isinstance(factor, IdealFactor):
            vec = _ideal_mode_vector(
                factor, state.amap.c[mode], k, period, params.ell
            )
        else:
            z_edges = np.linspace(0.0, period, 2 * params.d + 1)

            def eval_grid(xs, zs, _f=factor, _s=shift):
                return _f.wigner_grid(xs - _s, zs)

            vec, _err = integrate_bins_x(
                eval_grid, spec.bin_edges, z_edges,
                panels_per_bin=max(2, (2 * params.d) // k + 1),
                abs_tol=abs_tol,
            )
        per_mode.append(vec)
    table = per_mode[0]
    for vec in per_mode[1:]:
        table = np.multiply.outer(table, vec)
    total = table.sum()
    assert abs(total - 1.0) < 1e-7, f"quadrature probabilities sum to {total}"
    return table


def _check_spec(state: WignerState, spec: MeasurementSpec) -> None:
    n = state.params.n
    if any(m >= n for m in spec.measured_modes):
        raise ValueError(
            f"measured modes {spec.measured_modes} out of range for n={n}"
        )
    period = state.params.torus_period
    if abs(spec.period - period) > 1e-9 * period:
        raise ValueError(
            f"measurement period {spec.period} does not match the state's "
            f"torus period {period}"
        )


def _ideal_mode_vector(
    factor: IdealFactor, c_mode, k: int, period: float, ell: float
) -> np.ndarray:
    d = factor.d
    row_mass = factor.table.sum(axis=1) / d
    vec = np.zeros(k)
    two_c = 2 * c_mode
    if two_c.denominator == 1:
        # half-integer displacement: bin indices computed in exact integers
        off = int(two_c)
        for tx in range(d):
            m2x = (2 * tx + off) % (2 * d)
            vec[(m2x * k) // (2 * d)] += row_mass[tx]
    else:
        for tx in range(d):
            b = int(bin_of_position(ell * (tx + float(c_mode)), period, k))
            vec[b] += row_mass[tx]
    return vec


def wavefunction_bin_probabilities(
    factor: RealisticFactor, bins: int, shift: float = 0.0
) -> np.ndarray:
    """Independent marginal oracle: fold |psi|^2 into the cell and bin it.

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
