"""Modular position measurements: binning and exact probabilities.

The measurement reads the position coordinate of each measured mode modulo
one period d*ell and coarse-grains it into K equal bins with half-open edges
k * (d*ell) / K. With K = d on an ideally encoded state the bin index is the
logical outcome; the dense qudit oracle pins which coordinate block carries
that outcome (the first, position block, in this package's layout).

One binner, made once per (state, spec), is the one lattice push-and-bin
routine every table goes through: it reads the measured rows of S^-1 and
their light cone, splits the offset 2c, pushes ideal columns exactly in
int64 and the rest in float, and bins by bin_of_position, floor(x K /
period + EDGE_TOL) mod K, exact on every half-lattice point. The exact
all-ideal table lists the joint lattice support through it when r, the
number of measured modes, is close to n and n is small; otherwise the
binner's columns push each factor's d x d weights onto Z_d^r, where the
law of the measured positions is their convolution. Circuits that move
the measured positions only by displacements factorize on product inputs
into per-mode marginals, squeezed ones integrated from their Fourier
series in closed form. Anything beyond that is the estimator's job. The
references these tables are checked against (the POVM indicator,
marginals from |psi|^2) live in oracles.py.
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
# share of a sampled table's statistical error per draw that rounding in the
# float push may add: the binner's budget is this share of its caller's error
SLIP_SHARE = 0.01
# listed support points that cost about as much as one support point of
# the exact table's Z_d^r convolution. Timed with one gather per factor over
# d in {3, 5, 7, 9}, n <= 6 and n - r in 0..4, the convolution won at every
# ratio above 1 except where r = n and d^r is large, which this count cannot
# see; 3 keeps the n = r = 3, d = 3 table (27 points, 9 support points of
# the convolution) listed, the one listing the benchmark's span test counts
ROLL_POINTS = 3
# index entries (support points x d^r cells x r axes) of one gather of the
# convolution at most: its temporaries stay a fixed multiple of the (d^r, r)
# grid it indexes, never one such grid per support point
GATHER_CELLS = 2 ** 16


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


def binner(state: WignerState, spec: MeasurementSpec, error: float = 0.0) -> "Binner":
    """Map from input-frame draws to flat joint bin indices, made once.

    Each measured position S^-1[m] eta + ell c[m] is read in units of
    ell/2, one period being 2d. Ideal columns hold lattice points ell t, 2t
    in these units, so their part of the sum, with the integer part of 2c,
    is pushed exactly in int64 by the row entries reduced mod d (2t (a + kd)
    = 2t a mod 2d): no entry size moves a point across an edge. Realistic
    columns and the fraction of 2c are pushed in float.
    Realistic draws lie in one cell [0, L), so the float part of a row errs
    by at most w = sum |entries| L (terms + 2) 2^-53 in ell/2 units, in any
    order of its terms. A draw moves to another bin only if it lies within
    w of an edge, a chance of about 2w bins per measured row for a draw
    spread over the period; the binner raises ImprecisePush where that sum
    exceeds SLIP_SHARE of error, the caller's statistical error per draw (0
    for an exact table). terms counts the realistic columns alone. A factor
    whose two columns are zero there (mod d for an ideal one), any mode
    outside the light cone of the measured ones, is held as None.
    """
    _check_spec(state, spec)
    d, ell, n = state.params.d, state.params.ell, state.params.n
    ideal = [isinstance(f, IdealFactor) for f in state.factors]
    rows = state.amap.S.inverse_rows(spec.measured_modes)
    # every factor's two columns (2, r), reduced mod d in one pass
    lattice = np.mod(rows, d).astype(np.int64).reshape(len(rows), 2, n).transpose(2, 1, 0)
    terms = []  # per factor: (ideal, its two columns of the measured rows (2, r)) or None
    for i, exact in enumerate(ideal):
        cols = lattice[i] if exact else (rows[:, [i, n + i]].astype(float) * (2 / ell)).T
        terms.append((exact, cols) if cols.any() else None)
    err = sum((np.abs(cols).sum(axis=0) for exact, cols in filter(None, terms) if not exact),
              np.zeros(len(rows)))
    err *= state.params.torus_period * (2 * (n - sum(ideal)) + 2) * 2.0 ** -53 * spec.K / (2 * d)
    slip, budget = 2.0 * float(err.sum()), SLIP_SHARE * error
    if slip > budget:
        raise ImprecisePush(
            f"float push of realistic columns may err by {err.max():.2e} bins, "
            f"moving up to {slip:.2e} of the draws across an edge, beyond the "
            f"budget {budget:.2e}"
        )
    c2 = [2 * state.amap.c[m] for m in spec.measured_modes]
    whole = np.array([math.floor(x) % (2 * d) for x in c2], dtype=np.int64)
    frac = np.array([float(x - math.floor(x)) for x in c2])
    return Binner(tuple(terms), 2 * d, 2 / ell, spec.K, whole, frac)


@dataclass(frozen=True)
class Binner:
    """What binner makes: per factor, its two columns of the measured rows (2, r),
    reduced mod d for an ideal factor and in ell/2 units for a realistic
    one, or None outside the light cone; and the measured offset 2c, split."""

    terms: tuple
    period: int  # 2d: one period of a measured position in units of ell/2
    scale: float  # 2 / ell: units of ell/2 per coordinate unit
    K: int  # bins per measured mode
    whole: np.ndarray  # (r,) int64: floor(2c) mod 2d
    frac: np.ndarray  # (r,) float: 2c - floor(2c)

    def to_bins(self, lattice, rest=0.0) -> np.ndarray:
        """Flat joint bins of measured positions in ell/2 units before the offset:
        lattice (N, r) int64, exact, takes whole mod 2d and rest, float, takes frac."""
        units = (lattice + self.whole) % self.period + (rest + self.frac)
        shape = (self.K,) * len(self.whole)
        return np.ravel_multi_index(tuple(bin_of_position(units, self.period, self.K).T), shape)

    def push(self, size: int):
        """(take, done) of one block of size draws, for wigner.sample_blocks.

        take(i, draws) adds factor i's draws (size, 2) into the block's r
        measured positions, ideal ones exactly in int64 and realistic ones
        in float; done(signs) returns (flat joint bins (size,), signs).
        """
        lattice = np.zeros((size, len(self.whole)), dtype=np.int64)
        rest = np.zeros((size, len(self.whole)))

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
    is small, the lattice support) for all-ideal states and to per-mode
    marginals where the circuit moves the measured positions only by
    displacements.
    """
    if state.is_ideal():
        return exact_probabilities_ideal(state, spec)
    return quadrature_probabilities(state, spec)


def exact_probabilities_ideal(
    state: WignerState, spec: MeasurementSpec
) -> np.ndarray:
    """Outcome table of an all-ideal state, by the faster of two exact sums.

    Both bin through the state's binner, whose exact integer push the
    lattice points take. The convolution on Z_d^r (_convolution_terms)
    moves a (d,)*r array by each support point of each factor in the light
    cone of the measured modes, gathering many points at once, sum_i s_i
    points in all; listing the joint lattice support
    (WignerState.lattice_support) bins prod_i s_i points. A convolution
    point costs about as much as ROLL_POINTS listed points, so the support
    is listed only when it has at most ROLL_POINTS points per convolution
    point: r close to n and few modes in all (n = r = 3, d = 3: 27 points
    against 9). Otherwise the convolution wins by far (n = 10, r = 3,
    d = 3: 59049 points against 30).
    """
    if not state.is_ideal():
        raise ValueError("the exact ideal table requires all-ideal factors")
    bins = binner(state, spec)
    sizes = [int(np.count_nonzero(f.table)) for f in state.factors]
    moves = sum(s for s, term in zip(sizes, bins.terms) if term is not None)
    if math.prod(sizes) <= ROLL_POINTS * moves:
        m2, weights = state.lattice_support()  # 2t in ell/2 units
        return _table(spec, bins(m2 * (state.params.ell / 2)), weights)
    return _table(spec, *_convolution_terms(state, bins))


def _convolution_terms(state: WignerState, bins: Binner) -> tuple:
    """(joint bins, signed masses) of every point of Z_d^r, by convolution.

    The r measured positions of the input lattice point ell t are, in ell/2
    units, 2 u + 2c with u = R t mod d, R the measured rows of S^-1. u is a
    sum of independent per-factor terms (t_x, t_z) @ cols, cols the factor's
    two columns of R mod d held in bins.terms, so its law on Z_d^r is the
    convolution of the factors' signed weights pushed there: a dense (d,)*r
    array starting as a unit mass at 0, moved by each support point's term.
    A factor's points are gathered from flat indices GATHER_CELLS index
    entries at a time (all of them when d^r is small), and each gather adds
    its weighted copies into the running total as one product. A factor
    outside the light cone of the measured modes only scales the mass by
    its total. Each u is then binned once, 2u by bins.to_bins. The cost is
    O(n d^2 d^r), never above d^n cells; the memory a fixed multiple of the
    (d^r, r) grid of u.
    """
    d = state.params.d
    r = len(bins.whole)
    u = np.indices((d,) * r).reshape(r, -1).T
    strides = d ** np.arange(r - 1, -1, -1)
    step = max(1, GATHER_CELLS // u.size)  # support points gathered at once
    mass = np.zeros(d ** r)
    mass[0] = 1.0
    for f, term in zip(state.factors, bins.terms):
        tx, tz = np.nonzero(f.table)
        weights = f.table[tx, tz] / d
        if term is None:
            mass *= weights.sum()
            continue
        shifts = np.stack([tx, tz], axis=1) @ term[1] % d
        total = np.zeros_like(mass)
        for lo in range(0, len(weights), step):
            part = slice(lo, lo + step)
            # point p moves the mass at v to v + shift_p: u gathers it from u - shift_p
            total += weights[part] @ mass[(u - shifts[part, None]) % d @ strides]
        mass = total
    return bins.to_bins(2 * u), mass


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
    """Per-mode marginal tables where the measured rows of S^-1 are unit rows.

    The measured positions are then the input ones moved by ell c alone
    (P, CZ, Z and their inverses move no position), so on a product input
    they are independent. A marginal integrates the Wigner function over a
    full period of the momentum, where it is periodic.
    """
    _check_spec(state, spec)
    modes = list(spec.measured_modes)
    unit_rows = (np.arange(2 * state.params.n) == np.c_[modes]).astype(int)
    if not np.array_equal(state.amap.S.inverse_rows(modes), unit_rows):
        raise ValueError(
            "exact probabilities need an all-ideal state or a circuit that moves "
            "the measured positions only by displacements; run the estimator for "
            "other circuits on realistic inputs"
        )
    per_mode = [_mode_marginal(state, m, spec.K) for m in modes]
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


def _mode_marginal(state: WignerState, m: int, K: int) -> np.ndarray:
    """Bin probabilities of mode m's position, moved by ell c[m] alone.

    An ideal mode bins its lattice points 2t by a one-mode binner, a
    squeezed one integrates its Fourier series over each bin; both reduce
    c[m] exactly before it becomes a float, losing no bit of its place.
    """
    factor, d, ell = state.factors[m], state.params.d, state.params.ell
    if isinstance(factor, IdealFactor):
        joint = binner(state, MeasurementSpec((m,), K)).to_bins(2 * np.arange(d)[:, None])
        return np.bincount(joint, weights=factor.table.sum(axis=1) / d, minlength=K)
    # bin k covers [k, k + 1) period / K, read on the undisplaced W at -ell (c mod d)
    centres = (np.arange(K) + 0.5) * (d * ell / K) - float(state.amap.c[m] % d) * ell
    return x_bin_integrals(factor.state, centres) / (d * factor.norm)
