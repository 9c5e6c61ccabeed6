"""Modular position measurements: binning and exact probabilities.

The measurement reads the position coordinate of each measured mode modulo
one period d*ell and coarse-grains it into K equal bins with half-open edges
k * (d*ell) / K. With K = d on an ideally encoded state the bin index is the
logical outcome; the dense qudit oracle pins which coordinate block carries
that outcome (the first, position block, in this package's layout).

One binner, made once per (state, spec), maps input-frame draws to joint
bin indices for sample mode and for the estimator. It pushes ideal columns
exactly, mod 2d in units of ell/2, and the rest in float; bin_of_position,
floor(x K / period + EDGE_TOL) mod K, bins the total, exactly on every
half-lattice point. The exact all-ideal table pushes lattice points in
integers alone, through the measured rows of S^-1 reduced mod d, and bins
each by the same offset split and rule as the binner's draws: it lists the
joint lattice support only when r, the number of measured modes, is close
to n and n is small, so that it has few points; otherwise those rows push
each factor's d x d weights onto Z_d^r, where the law of the measured
positions is the convolution of those pushes.
Displacement-only circuits on product inputs factorize into per-mode
marginals, squeezed ones integrated from their Fourier series in closed
form. Anything beyond that is the estimator's job. The references these
tables are checked against (the POVM indicator, marginals from |psi|^2)
live in oracles.py.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qudit import is_integer
from .theta import x_bin_integrals
from .wigner import IdealFactor, WignerState

EDGE_TOL = 1e-9  # bin units: a float position this close below an edge is on it
# share of a sampled table's statistical error that rounding in the float
# push may add; sample mode and the estimator set the binner's budget from it
SLIP_SHARE = 0.01
# listed support points that cost about as much as one roll of the exact
# table's Z_d^r convolution: numpy's per-call cost against its per-element
# one, timed over d in {3, 5, 7, 9} and n - r in 0..4 (BENCH_19.json)
ROLL_POINTS = 50


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
        if not all(map(is_integer, self.measured_modes)):
            raise ValueError(f"mode indices must be integers, got {self.measured_modes!r}")
        modes = tuple(int(m) for m in self.measured_modes)
        if len(modes) == 0:
            raise ValueError("at least one mode must be measured")
        if len(set(modes)) != len(modes):
            raise ValueError(f"measured modes must be distinct, got {modes}")
        if any(m < 0 for m in modes):
            raise ValueError(f"mode indices must be non-negative, got {modes}")
        if not is_integer(self.K) or self.K < 1:
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


def _offset_binner(state: WignerState, spec: MeasurementSpec):
    """bins(lattice, rest): flat joint bins of measured positions in units of ell/2.

    lattice (N, r) int64 is the exact part of each position and rest the
    float part; 2c of the measured rows is split once, its integer part
    joining lattice mod 2d and its fraction joining rest, and
    bin_of_position bins the total. Both the exact table and binner bin
    through here, so the rule and its EDGE_TOL tie live in one place.
    """
    d = state.params.d
    c2 = [2 * state.amap.c[m] for m in spec.measured_modes]
    whole = np.array([math.floor(x) % (2 * d) for x in c2], dtype=np.int64)
    frac = np.array([float(x - math.floor(x)) for x in c2])

    def bins(lattice, rest=0.0):
        units = (lattice + whole) % (2 * d) + (rest + frac)
        return np.ravel_multi_index(
            tuple(bin_of_position(units, 2 * d, spec.K).T), spec.table_shape()
        )

    return bins


def binner(state: WignerState, spec: MeasurementSpec, slip_budget: float = 0.0) -> "Binner":
    """Map from input-frame draws to flat joint bin indices, made once.

    Each measured position S^-1[m] eta + ell c[m] is read in units of ell/2,
    one period being 2d. Ideal columns hold lattice points ell * t, so their
    part of the sum, with the integer part of 2c, is pushed exactly in int64
    by the row entries reduced mod 2d: reduction is a ring map, so no entry
    size moves a point across an edge. Realistic columns and the fractional
    part of 2c are pushed in float, and bin_of_position bins the total.
    Realistic draws lie in one cell [0, L), so the float part of a row errs
    by at most w = sum |entries| L (terms + 2) 2^-53 in ell/2 units, in any
    order of its terms. A draw moves to another bin only if it lies within
    w of an edge, a chance of about 2w bins per measured row for a draw
    spread over the period; the binner raises ImprecisePush where that sum
    exceeds slip_budget, the caller's share of its own statistical error (0
    admits an exact push only: all-ideal states). terms counts the
    realistic columns alone. The push adds each factor's draws into the r
    measured positions as the sampler hands them on (Binner.push), so no
    (draws, 2n) array is needed; a factor whose two columns are zero there,
    any mode outside the light cone of the measured ones, adds nothing.
    """
    _check_spec(state, spec)
    d, ell, n = state.params.d, state.params.ell, state.params.n
    ideal = [isinstance(f, IdealFactor) for f in state.factors]
    rows = state.amap.S.inverse_rows(spec.measured_modes)
    terms = []  # per factor: (ideal, its two columns of the measured rows (2, r)) or None
    for i, exact in enumerate(ideal):
        cols = rows[:, [i, n + i]]
        cols = np.mod(cols, 2 * d).astype(np.int64) if exact else cols.astype(float) * (2 / ell)
        terms.append((exact, cols.T) if cols.any() else None)
    err = sum((np.abs(cols).sum(axis=0) for exact, cols in filter(None, terms) if not exact),
              np.zeros(len(rows)))
    err *= state.params.torus_period * (2 * (n - sum(ideal)) + 2) * 2.0 ** -53 * spec.K / (2 * d)
    slip = 2.0 * float(err.sum())
    if slip > slip_budget:
        raise ImprecisePush(
            f"float push of realistic columns may err by {err.max():.2e} bins, "
            f"moving up to {slip:.2e} of the draws across an edge, beyond the "
            f"budget {slip_budget:.2e}"
        )
    return Binner(tuple(terms), len(rows), 2 * d, 2 / ell, _offset_binner(state, spec))


@dataclass(frozen=True)
class Binner:
    """What binner makes: per factor, its two columns of the measured rows (2, r),
    reduced mod 2d for an ideal factor and in ell/2 units for a realistic
    one, or None where both are zero; and the offset split and bin rule."""

    terms: tuple
    r: int  # measured modes
    period: int  # 2d: one period of a measured position in units of ell/2
    scale: float  # 2 / ell: units of ell/2 per coordinate unit
    to_bins: object  # _offset_binner's bins(lattice, rest)

    def push(self, size: int):
        """(take, done) of one block of size draws, for wigner.sample_blocks.

        take(i, draws) adds factor i's draws (size, 2) into the block's r
        measured positions, ideal ones exactly in int64 and realistic ones
        in float; done(signs) returns (flat joint bins (size,), signs).
        """
        lattice = np.zeros((size, self.r), dtype=np.int64)
        rest = np.zeros((size, self.r))

        def take(i, draws):
            nonlocal lattice, rest  # added into in place
            term = self.terms[i]
            if term is None:
                return
            exact, cols = term
            if exact:
                lattice += np.mod(np.rint(draws * self.scale).astype(np.int64), self.period) @ cols
            else:
                rest += draws @ cols

        return take, lambda signs: (self.to_bins(lattice, rest), signs)

    def __call__(self, eta: np.ndarray) -> np.ndarray:
        """Flat joint bins of input-frame draws eta (N, 2n), each factor's two columns taken in turn."""
        n = len(self.terms)
        take, done = self.push(len(eta))
        for i in range(n):
            take(i, eta[:, i::n])
        return done(None)[0]


def exact_probabilities(state: WignerState, spec: MeasurementSpec) -> np.ndarray:
    """Exact outcome table, shape (K,) * m, summing to 1.

    Dispatches to the convolution on Z_d^r (or, when r is close to n and n
    is small, the lattice support) for all-ideal states and to
    per-mode marginals for displacement-only circuits on product inputs.
    """
    if state.is_ideal():
        return exact_probabilities_ideal(state, spec)
    return quadrature_probabilities(state, spec)


def exact_probabilities_ideal(
    state: WignerState, spec: MeasurementSpec
) -> np.ndarray:
    """Outcome table of an all-ideal state, by the faster of two exact sums.

    The convolution on Z_d^r (_convolution_terms) makes one roll of a
    (d,)*r array per support point of each factor in the light cone of the
    measured modes, sum_i s_i rolls; listing the joint lattice support
    (WignerState.lattice_support) bins prod_i s_i points. A roll costs
    about as much as ROLL_POINTS listed points, so the support is listed
    only when it has at most ROLL_POINTS points per roll: r close to n and
    few modes in all (n = r = 3, d = 3: 27 points against 9 rolls).
    Otherwise the convolution wins by far (n = 10, r = 3, d = 3: 59049
    points against 30 rolls).
    """
    _check_spec(state, spec)
    if not state.is_ideal():
        raise ValueError("the exact ideal table requires all-ideal factors")
    n = state.params.n
    rows = _measured_rows_mod_d(state, spec)
    sizes = [int(np.count_nonzero(f.table)) for f in state.factors]
    rolls = sum(s for i, s in enumerate(sizes) if rows[:, [i, n + i]].any())
    if math.prod(sizes) <= ROLL_POINTS * rolls:
        m2, weights = state.lattice_support()  # 2t in ell/2 units: 2t R mod 2d is exact
        return _table(spec, _offset_binner(state, spec)(m2 @ rows.T), weights)
    return _table(spec, *_convolution_terms(state, spec, rows))


def _measured_rows_mod_d(state: WignerState, spec: MeasurementSpec) -> np.ndarray:
    """The measured rows of S^-1 reduced mod d, (r, 2n) int64, exact on the Python ints."""
    return np.mod(state.amap.S.inverse_rows(spec.measured_modes), state.params.d).astype(np.int64)


def _convolution_terms(state: WignerState, spec: MeasurementSpec, rows) -> tuple:
    """(joint bins, signed masses) of every point of Z_d^r, by convolution.

    The r measured positions of the input lattice point ell t are, in ell/2
    units, 2 u + 2c with u = R t mod d, R = rows. u is a sum of independent
    per-factor terms t_x a + t_z b, a and b the factor's two columns of R, so
    its law on Z_d^r is the convolution of the factors' signed weights
    pushed there: a dense (d,)*r array starting as a unit mass at 0, rolled
    by each support point's term. A factor whose columns vanish mod d (every
    mode outside the light cone of the measured ones) only scales the mass
    by its total. Each u is then binned once by the binner's offset split
    and rule. The cost is O(n d^2 d^r), never above d^n cells.
    """
    d, n = state.params.d, state.params.n
    r = rows.shape[0]
    axes = tuple(range(r))
    mass = np.zeros((d,) * r)
    mass[(0,) * r] = 1.0
    for i, f in enumerate(state.factors):
        tx, tz = np.nonzero(f.table)
        weights = f.table[tx, tz] / d
        a, b = rows[:, i], rows[:, n + i]
        if not (a.any() or b.any()):
            mass *= weights.sum()
            continue
        shifts = (np.outer(tx, a) + np.outer(tz, b)) % d
        mass = sum(w * np.roll(mass, tuple(sh), axes) for w, sh in zip(weights, shifts))
    u = np.indices((d,) * r).reshape(r, -1).T
    return _offset_binner(state, spec)(2 * u), mass.ravel()


def _table(spec: MeasurementSpec, joint, weights) -> np.ndarray:
    """Signed weights added per joint bin: the exact table, checked to be a distribution."""
    shape = spec.table_shape()
    table = np.bincount(joint, weights=weights, minlength=math.prod(shape)).reshape(shape)
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
    """Every table path passes here: the modes must exist and the table be addressable."""
    n = state.params.n
    if any(m >= n for m in spec.measured_modes):
        raise ValueError(
            f"measured modes {spec.measured_modes} out of range for n={n}"
        )
    r = len(spec.measured_modes)
    if spec.K ** r * 8 > np.iinfo(np.intp).max:  # numpy's largest array, in bytes
        raise MemoryError(f"an outcome table of {spec.K}^{r} bins is too large to allocate")


def _mode_marginal(factor, c_mode, spec: MeasurementSpec, ell: float) -> np.ndarray:
    """Bin probabilities of one mode's position after a displacement by ell * c_mode.

    Both branches reduce c_mode mod d exactly before it becomes a float, so
    no offset loses the bits that place it in the period d ell.
    """
    if isinstance(factor, IdealFactor):
        # positions ell * (t + c), reduced mod d exactly before the float rule
        units = [float((t + c_mode) % factor.d) for t in range(factor.d)]
        row_mass = factor.table.sum(axis=1) / factor.d
        bins = bin_of_position(units, factor.d, spec.K)
        return np.bincount(bins, weights=row_mass, minlength=spec.K)
    # bin k covers [k, k + 1) period / K, read on the undisplaced W at -ell (c mod d)
    centres = (np.arange(spec.K) + 0.5) * (factor.d * ell / spec.K) - float(c_mode % factor.d) * ell
    masses = x_bin_integrals(factor.state, centres)
    return masses / (factor.d * factor.norm)
