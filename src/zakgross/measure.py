"""Modular position measurements: binning and exact probabilities.

The measurement reads the position coordinate of each measured mode modulo
one period d*ell and coarse-grains it into K equal bins with half-open edges
k * (d*ell) / K. With K = d on an ideally encoded state the bin index is the
logical outcome; the dense qudit oracle pins which coordinate block carries
that outcome (the first, position block, in this package's layout).

One binner, made once per (state, spec), maps input-frame draws to joint
bin indices for the exact all-ideal table (over the lattice support), for
sample mode and for the estimator. It pushes ideal columns exactly, mod 2d in
units of ell/2, and the rest in float; bin_of_position, floor(x K / period +
EDGE_TOL) mod K, bins the total, exactly on every half-lattice point.
Displacement-only circuits on product inputs factorize into per-mode
marginals, squeezed ones integrated from their Fourier series in closed
form. Anything beyond that is the estimator's job. The references these
tables are checked against (the POVM indicator, marginals from |psi|^2)
live in oracles.py.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .theta import x_bin_integrals
from .wigner import IdealFactor, WignerState

EDGE_TOL = 1e-9  # bin units: a float position this close below an edge is on it
# share of a sampled table's statistical error that rounding in the float
# push may add; sample mode and the estimator set the binner's budget from it
SLIP_SHARE = 0.01


class ImprecisePush(RuntimeError):
    """The float push of realistic columns may move too many draws across an edge."""


@dataclass(frozen=True)
class MeasurementSpec:
    """Which modes are read out and how many bins per mode.

    Bin k covers [k * period / K, (k+1) * period / K) of the state's torus
    period d * ell; edges belong to the bin on their right.
    """

    measured_modes: tuple
    K: int

    def __post_init__(self):
        modes = tuple(int(m) for m in self.measured_modes)
        if len(modes) == 0:
            raise ValueError("at least one mode must be measured")
        if len(set(modes)) != len(modes):
            raise ValueError(f"measured modes must be distinct, got {modes}")
        if any(m < 0 for m in modes):
            raise ValueError(f"mode indices must be non-negative, got {modes}")
        if isinstance(self.K, bool) or not isinstance(self.K, numbers.Integral) or self.K < 1:
            raise ValueError(f"bin count must be a positive integer, got {self.K!r}")
        object.__setattr__(self, "measured_modes", modes)

    def table_shape(self) -> tuple:
        return (self.K,) * len(self.measured_modes)


def bin_of_position(x, period: float, bins: int) -> np.ndarray:
    """Bin index of float positions x: floor(x * bins / period + EDGE_TOL) mod bins.

    No fold into [0, period) comes first, so a value a rounding error below
    an edge (say -4e-16 for 0) lands in the bin the edge opens.
    """
    scaled = np.asarray(x, dtype=float) * bins / period
    return np.mod(np.floor(scaled + EDGE_TOL).astype(np.int64), bins)


def binner(state: WignerState, spec: MeasurementSpec, slip_budget: float = 0.0):
    """Map from input-frame draws (N, 2n) to flat joint bin indices, made once.

    Each measured position S^-1[m] eta + ell c[m] is read in units of ell/2,
    one period being 2d. Ideal columns hold lattice points ell * t, so their
    part of the sum, with the integer part of 2c, is pushed exactly in int64
    by the row entries reduced mod 2d: reduction is a ring map, so no entry
    size moves a point across an edge. Realistic columns and the fractional
    part of 2c are pushed in float, and bin_of_position bins the total.
    Realistic draws lie in one cell [0, L), so the float part of a row errs
    by at most w = sum |entries| L (terms + 2) 2^-53 in ell/2 units. A draw
    moves to another bin only if it lies within w of an edge, a chance of
    about 2w bins per measured row for a draw spread over the period; the
    binner raises ImprecisePush where that sum exceeds slip_budget, the
    caller's share of its own statistical error (0 admits an exact push
    only: all-ideal states).
    """
    _check_spec(state, spec)
    d, ell = state.params.d, state.params.ell
    ideal = np.array([isinstance(f, IdealFactor) for f in state.factors] * 2)
    rows = state.amap.S.inverse().mat[list(spec.measured_modes)]
    lattice = np.mod(rows[:, ideal], 2 * d).astype(np.int64).T
    real = rows[:, ~ideal].astype(float).T * (2 / ell)
    c2 = [2 * state.amap.c[m] for m in spec.measured_modes]
    whole = np.array([math.floor(x) % (2 * d) for x in c2], dtype=np.int64)
    frac = np.array([float(x - math.floor(x)) for x in c2])
    err = np.abs(real).sum(axis=0) * state.params.torus_period * (real.shape[0] + 2) * 2.0 ** -53
    err *= spec.K / (2 * d)
    slip = 2.0 * float(err.sum())
    if slip > slip_budget:
        raise ImprecisePush(
            f"float push of realistic columns may err by {err.max():.2e} bins, "
            f"moving up to {slip:.2e} of the draws across an edge, beyond the "
            f"budget {slip_budget:.2e}"
        )

    def bins(eta):
        m2 = np.rint(eta[:, ideal] * (2 / ell)).astype(np.int64)
        units = (m2 @ lattice + whole) % (2 * d) + (eta[:, ~ideal] @ real + frac)
        return np.ravel_multi_index(
            tuple(bin_of_position(units, 2 * d, spec.K).T), spec.table_shape()
        )

    return bins


def exact_probabilities(state: WignerState, spec: MeasurementSpec) -> np.ndarray:
    """Exact outcome table, shape (K,) * m, summing to 1.

    Dispatches to the lattice support for all-ideal states and to
    per-mode marginals for displacement-only circuits on product inputs.
    """
    if state.is_ideal():
        return exact_probabilities_ideal(state, spec)
    return quadrature_probabilities(state, spec)


def exact_probabilities_ideal(
    state: WignerState, spec: MeasurementSpec
) -> np.ndarray:
    """Outcome table of an all-ideal state: its lattice support, binned."""
    m2, weights = state.lattice_support()
    bins = binner(state, spec)
    joint = bins(m2 * (state.params.ell / 2))
    shape = spec.table_shape()
    flat = np.bincount(joint, weights=weights, minlength=math.prod(shape))
    table = flat.reshape(shape)
    total = table.sum()
    if not abs(total - 1.0) < 1e-12:
        raise RuntimeError(f"ideal probabilities sum to {total}")
    low = table.min()
    if not low > -1e-9:
        raise RuntimeError(f"negative exact probability {low}")
    return np.clip(table, 0.0, None)


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
    if not abs(total - 1.0) < 1e-7:
        raise RuntimeError(f"quadrature probabilities sum to {total}")
    return table


def _check_spec(state: WignerState, spec: MeasurementSpec) -> None:
    n = state.params.n
    if any(m >= n for m in spec.measured_modes):
        raise ValueError(
            f"measured modes {spec.measured_modes} out of range for n={n}"
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
