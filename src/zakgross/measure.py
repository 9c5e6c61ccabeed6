"""Modular position measurements: binning and exact probabilities.

The measurement reads the position coordinate of each measured mode modulo
one period d*ell and coarse-grains it into K equal bins with half-open edges
k * (d*ell) / K. With K = d on an ideally encoded state the bin index is the
logical outcome; the dense qudit oracle pins which coordinate block carries
that outcome (the first, position block, in this package's layout).

Positions are binned by two rules: lattice_bins, (m mod 2d) * K // 2d on
exact pushes in units of ell/2, and bin_of_position, floor(x K / period +
EDGE_TOL) mod K on every float position. They agree on half-lattice points
while the float error stays below EDGE_TOL bins, which sample_binner checks.
All-ideal states get exact tables from the integer rule; displacement-only
circuits on product inputs factorize into per-mode marginals, squeezed ones
integrated from their Fourier series in closed form. Anything beyond that
is the estimator's job. The references these tables are checked against
(the POVM indicator, marginals from |psi|^2) live in oracles.py.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .theta import x_bin_integrals
from .wigner import IdealFactor, WignerState

EDGE_TOL = 1e-9  # bin units: a float position this close below an edge is on it


class BinningPrecisionLost(RuntimeError):
    """Float rounding may move a lattice position across a bin edge."""


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

    def table_shape(self) -> tuple:
        return (self.K,) * len(self.measured_modes)


def bin_of_position(x, period: float, bins: int) -> np.ndarray:
    """Bin index of float positions x: floor(x * bins / period + EDGE_TOL) mod bins.

    No fold into [0, period) comes first, so a value a rounding error below
    an edge (say -4e-16 for 0) lands in the bin the edge opens.
    """
    scaled = np.asarray(x, dtype=float) * bins / period
    return np.mod(np.floor(scaled + EDGE_TOL).astype(np.int64), bins)


def sample_binner(state: WignerState, spec: MeasurementSpec):
    """Map from output-frame points (N, 2n) to flat joint bin indices, as lattice_bins.

    Checked once, before any draw: a measured row of S^-1 that reads only
    ideal-factor columns is a lattice position, possibly on an edge, so
    BinningPrecisionLost is raised when its float push could err by EDGE_TOL bins.
    """
    d, n = state.params.d, state.params.n
    ideal = np.array([isinstance(f, IdealFactor) for f in state.factors] * 2)
    s_inv = state.amap.S.inverse().mat
    for m in spec.measured_modes:
        if not any(s_inv[m][~ideal]):
            # ideal draws are ell * t, 0 <= t < d: each partial sum of S^-1 eta
            # + ell c is at most ell * size, and some 2n + 8 roundings of
            # relative size 2^-53 reach it (Higham, Accuracy and Stability, ch. 3)
            size = (d - 1) * sum(abs(int(a)) for a in s_inv[m]) + abs(state.amap.c[m])
            bound = (2 * n + 8) * 2.0 ** -53 * float(size) * spec.K / d
            if bound >= EDGE_TOL:
                raise BinningPrecisionLost(
                    f"float push of measured mode {m} may be off by {bound:.1e} bins, not "
                    f"below the edge tolerance {EDGE_TOL:.0e}; matrix entries too large"
                )
    return lambda pts: np.ravel_multi_index(
        tuple(bin_of_position(pts[:, m], spec.period, spec.K) for m in spec.measured_modes),
        spec.table_shape(),
    )


def exact_probabilities(state: WignerState, spec: MeasurementSpec) -> np.ndarray:
    """Exact outcome table, shape (K,) * m, summing to 1.

    Dispatches to the integer lattice path for all-ideal states and to
    per-mode marginals for displacement-only circuits on product inputs.
    """
    if state.is_ideal():
        return exact_probabilities_ideal(state, spec)
    return quadrature_probabilities(state, spec)


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
    bins = np.mod(pushed, 2 * d).astype(np.int64) * spec.K // (2 * d)
    return np.ravel_multi_index(tuple(bins.T), spec.table_shape()), weights


def quadrature_probabilities(state: WignerState, spec: MeasurementSpec) -> np.ndarray:
    """Per-mode marginal tables for a displacement-only circuit.

    Valid because the map then factorizes mode by mode and the Wigner
    function is periodic in the unmeasured momentum coordinate, which is
    integrated over one full period. Squeezed factors integrate their
    Fourier series over each bin in closed form.
    """
    _check_spec(state, spec)
    params = state.params
    if not np.array_equal(state.amap.S.mat, np.eye(2 * params.n, dtype=object)):
        raise ValueError(
            "exact probabilities need an all-ideal state or a displacement-only "
            "circuit; run the estimator for entangling circuits on realistic inputs"
        )
    per_mode = [
        _mode_marginal(state.factors[m], state.amap.c[m], spec, params.ell)
        for m in spec.measured_modes
    ]
    table = functools.reduce(np.multiply.outer, per_mode)
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


def _mode_marginal(factor, c_mode, spec: MeasurementSpec, ell: float) -> np.ndarray:
    """Bin probabilities of one mode's position after a displacement by ell * c_mode."""
    if isinstance(factor, IdealFactor):
        # positions ell * (t + c), reduced mod d exactly before the float rule
        units = [float((t + c_mode) % factor.d) for t in range(factor.d)]
        row_mass = factor.table.sum(axis=1) / factor.d
        bins = bin_of_position(units, factor.d, spec.K)
        return np.bincount(bins, weights=row_mass, minlength=spec.K)
    masses = x_bin_integrals(factor.state, spec.K, float(c_mode) * ell)
    return masses / (factor.d * factor.norm)
