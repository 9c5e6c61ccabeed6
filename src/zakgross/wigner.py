"""Phase-space states: per-mode input factors plus an accumulated affine map.

A circuit acting on a product input never needs more than this pair: ops
only update the affine map, exactly, a whole op list on one working copy
(AffineMap.then_ops), while the input factors hold all the state-specific
data. Evaluation pulls points back through the map; sampling draws input
points, which measure.binner pushes forward, and the exact all-ideal table
pushes each factor's weights onto the measured rows alone, or lists the
joint lattice support when that is faster, for a few modes
(measure.exact_probabilities_ideal). The total negativity is a product over
factors and is manifestly invariant under gates, since the map drops out of
any integral over a full cell. A realistic factor's negativity integrates
|W| over one cell by midpoint sums on doubling n x n grids; each level is
theta.negative_sum(state, n), which evaluates only the tiles whose sign its
separable bounds leave undecided and settles the rest in closed form.

Ideal factors carry a d x d table of discrete Wigner weights supported on
the integer lattice ell * Z^2 (one cell), and sample it directly; realistic
factors carry a finite-envelope CodeState, evaluated through its separable
series, whose z half is one Taylor table per state, and sampled by rejection
under the certified bound theta.abs_envelope sums from that table.
theta.propose draws and scores the proposals, so the rejection loop here
only sizes rounds and accepts on the unnormalized |W| / E, with the sign
of W. One seeded generator, SplitMix64, a counter hashed in numpy integer
arithmetic so that no call loads numpy.random, draws a call's samples in
blocks of at most BLOCK draws (sample_blocks), and a rejection round
proposes at most ROUND points, so neither the draw count nor n sets a
call's working set: each factor hands its block of draws to a take
callback (measure.binner's adds them into the measured positions, the full
frame writes its two columns), and a round's surplus accepted draws start
the call's next block.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .qudit import CodeParams, gross_wigner_table, logical_index
from .symplectic import AffineMap
from .theta import (
    CodeState,
    abs_envelope,
    cell_midpoints,
    code_state_norm,
    negative_sum,
    propose,
    wigner_theta,
    wigner_theta_grid,
)

BLOCK = 2048  # draws a call hands on and reduces at a time
# proposals a rejection round scores at most: twice BLOCK, so that one round
# fills a block wherever the acceptance rate is above about one half
ROUND = 4096
SEED = 0  # the seed of sample mode, estimates and verify when none is given
SEED_LIMIT = 2 ** 64  # seeds lie in [0, SEED_LIMIT): SplitMix64 keys on one 64-bit word
NEGATIVITY_TOL = 1e-6  # default tolerance of the negativity cell integral


@dataclass(frozen=True)
class IdealFactor:
    """Discrete Wigner weights of one ideally encoded mode.

    table[t_x, t_z] sums to d for a unit-trace input; entries may be
    negative. The continuous Wigner function is the comb with weight
    table[t]/d on the point ell * t of each cell.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError(f"table shape {t.shape} is not square")
        if not abs(t.sum() - t.shape[0]) <= 1e-9:  # a NaN entry fails too
            raise ValueError(f"table sums to {t.sum()}, expected d = {t.shape[0]}")
        object.__setattr__(self, "table", t)

    @property
    def d(self) -> int:
        return self.table.shape[0]

    @classmethod
    def logical(cls, d: int, j: int) -> "IdealFactor":
        table = np.zeros((d, d))
        table[logical_index(d, j), :] = 1.0
        return cls(table)

    @classmethod
    def from_density_matrix(cls, params_1mode: CodeParams, rho) -> "IdealFactor":
        if params_1mode.n != 1:
            raise ValueError(f"need single-mode params, got n={params_1mode.n}")
        return cls(gross_wigner_table(params_1mode, rho))

    def negativity(self) -> float:
        return float(np.abs(self.table).sum() / self.d)


@dataclass(frozen=True)
class RealisticFactor:
    """A finite-envelope code state on one mode."""

    state: CodeState

    def __post_init__(self):
        code_state_norm(self.state)  # builds the series: a bad state fails here

    @property
    def norm(self) -> float:
        return code_state_norm(self.state)

    @property
    def d(self) -> int:
        return self.state.d

    def wigner(self, eta) -> np.ndarray:
        """Normalized values: integral over one cell is 1."""
        return wigner_theta(self.state, eta) / (self.d * self.norm)

    def wigner_grid(self, eta_x, eta_z) -> np.ndarray:
        vals = wigner_theta_grid(self.state, eta_x, eta_z)
        vals /= self.d * self.norm
        return vals

    def negativity(self, tol: float = NEGATIVITY_TOL) -> float:
        return _negativity(self.state, tol)


@functools.lru_cache(maxsize=64)
def _negativity(state: CodeState, tol: float) -> float:
    """Cell integral of |W| for the unit-norm state, cached per (state, tol)."""
    scale = state.d * code_state_norm(state)
    return _abs_integral(lambda xs: negative_sum(state, xs.size) / scale, state.d * state.ell, tol)


def _abs_integral(level, period: float, tol: float) -> float:
    """integral of |W| over one cell [0, period)^2 = 1 + 2 * (negative mass).

    level(xs) returns -sum of min(v, 0) over the grid of normalized values
    on xs (x) xs, xs = cell_midpoints(period, n): summed over the whole grid
    (the criterion 5 oracles), or by theta.negative_sum(state, n), which
    builds the same grid, settles most tiles from sign bounds and agrees
    with the whole grid up to rounding. The positive part integrates to
    exactly 1, so only the negative mass is computed numerically: midpoint
    sums on the full cell at doubling resolutions until two levels agree.
    Midpoint handles the |.| kinks at the sign boundary at second order,
    which the agreement check verifies.
    """
    prev = neg_mass = None
    for n_grid in (512, 1024, 2048, 4096):
        xs = cell_midpoints(period, n_grid)
        prev, neg_mass = neg_mass, level(xs) * (period / n_grid) ** 2
        if prev is not None and abs(neg_mass - prev) <= 0.5 * tol:
            return 1.0 + 2.0 * neg_mass
    raise RuntimeError(
        f"negative-mass refinement did not settle below {tol:.1e}: {prev} -> {neg_mass} "
        f"at {n_grid}^2 points, a change of {abs(neg_mass - prev):.1e}")


@dataclass(frozen=True)
class WignerState:
    """Product input factors transported by the accumulated affine map."""

    factors: tuple
    amap: AffineMap

    @property
    def params(self) -> CodeParams:
        return self.amap.params

    def __post_init__(self):
        if len(self.factors) != self.params.n:
            raise ValueError(f"need {self.params.n} factors, got {len(self.factors)}")
        for f in self.factors:
            if f.d != self.params.d:
                raise ValueError("factor dimension differs from params.d")

    # -- constructors --

    @classmethod
    def from_factors(cls, params: CodeParams, factors) -> "WignerState":
        return cls(tuple(factors), AffineMap.identity(params))

    # -- circuit action --

    def apply_ops(self, ops) -> "WignerState":
        """Apply a list of ops, each a Gate, an IntSymplectic or a
        displacement by 2n reals in units of ell, composed on one working
        copy of the map (AffineMap.then_ops); this state's map is left as
        it is."""
        return replace(self, amap=self.amap.then_ops(ops))

    # -- queries --

    def is_ideal(self) -> bool:
        return all(isinstance(f, IdealFactor) for f in self.factors)

    def negativity(self) -> float:
        """Product over factors; exactly invariant under the circuit map."""
        total = 1.0
        for f in self.factors:
            total *= f.negativity()
        return total

    def evaluate(self, eta) -> np.ndarray:
        """Normalized Wigner values at output-frame points (..., 2n).

        Realistic factors evaluate their theta form; ideal factors are delta
        combs, so they contribute their lattice weight when the pulled-back
        point snaps onto the lattice (within 1e-9 * ell) and zero otherwise.
        """
        eta = np.asarray(eta, dtype=float)
        n = self.params.n
        if eta.shape[-1] != 2 * n:
            raise ValueError(f"points must have last dimension {2 * n}")
        back = self.amap.pullback(eta.reshape(-1, 2 * n))
        out = np.ones(back.shape[0])
        for i, f in enumerate(self.factors):
            coords = back[:, (i, n + i)]
            if isinstance(f, IdealFactor):
                out = out * _ideal_comb_value(f, coords, self.params.ell)
            else:
                out = out * f.wigner(coords)
        return out.reshape(eta.shape[:-1])

    # -- sampling from |W| --

    def lattice_support(self):
        """All jointly supported lattice points of an all-ideal state.

        Returns (m2 (N, 2n) ints in ell/2 units, weights (N,) signed,
        summing to 1). Zero-weight points are dropped. N grows as d^n, so
        the exact ideal table lists it only when it has at most
        measure.ROLL_POINTS points per support point of the convolution on
        Z_d^r; it is also the enumeration that table is checked against.
        """
        if not self.is_ideal():
            raise ValueError("lattice support requires all-ideal factors")
        pts, wts = np.zeros((1, 0), dtype=int), np.ones(1)
        for f in self.factors:
            tx, tz = np.nonzero(f.table)
            pts = np.hstack([np.repeat(pts, tx.size, axis=0),
                             np.tile(tx, len(pts))[:, None], np.tile(tz, len(pts))[:, None]])
            wts = np.repeat(wts, tx.size) * np.tile(f.table[tx, tz] / self.params.d, wts.size)
        # columns (x1, z1, x2, z2, ...): regroup to (x..., z...), in ell/2 units
        return 2 * np.hstack([pts[:, 0::2], pts[:, 1::2]]), wts

    def sampler(self):
        """Build one generator's draw loop: draw(count, rng, take).

        A call makes the next count draws from |W|/M, factor by factor
        in mode order, hands factor i's (count, 2) draws (x, z) to
        take(i, draws) and returns the signs (count,), multiplied over the
        factors. The draws array is reused, so take copies what it keeps.
        A realistic factor's last proposal round may accept a few more draws
        than a call needs; they begin its next call, so a sampler serves one
        generator. Each realistic factor's envelope table is built once per state.
        """
        factor_samplers = [
            _ideal_sampler(f, self.params) if isinstance(f, IdealFactor) else _rejection_sampler(f)
            for f in self.factors
        ]

        def draw(count: int, rng: SplitMix64, take):
            signs, draws = np.ones(count), np.empty((count, 2))
            for i, fs in enumerate(factor_samplers):
                fs(count, rng, draws, signs)
                take(i, draws)
            return signs

        return draw


class SplitMix64:
    """SplitMix64 (Steele, Lea & Flood 2014) on a counter: the generator of every draw.

    Output k = 1, 2, ... of seed s is mix64(s + k * GAMMA mod 2^64), computed
    on uint64 arrays, so any split of the stream into calls draws the same
    values. random and standard_normal are the two Generator methods the
    samplers call; a numpy Generator serves them too.
    """

    GAMMA = np.uint64(0x9E3779B97F4A7C15)  # the counter's step: 2^64 over the golden ratio
    MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))

    def __init__(self, seed: int):
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
        self.seed, self.drawn = np.uint64(seed), 0

    def bits(self, n: int) -> np.ndarray:
        """The stream's next n outputs, uint64."""
        z = np.arange(self.drawn + 1, self.drawn + n + 1, dtype=np.uint64)
        self.drawn += n
        z *= self.GAMMA
        z += self.seed
        for shift, mult in self.MIX:
            z ^= z >> np.uint64(shift)
            z *= mult
        z ^= z >> np.uint64(31)
        return z

    def random(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1): the top 53 bits of each output, times 2^-53."""
        return (self.bits(n) >> np.uint64(11)).astype(float) * 2.0 ** -53

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normals by Box-Muller on the next 2h uniforms, h = ceil(n / 2).

        The first h uniforms u set the radii r = sqrt(-2 ln(1 - u)) and the
        last h the angles 2 pi u, whose cos and sin come from one tangent,
        t = tan(pi u), as (1 - t^2) / (1 + t^2) and 2t / (1 + t^2): a
        second trigonometric call would cost more than the rest of the
        transform. The first n of the h values r cos followed by the h
        values r sin are returned.
        """
        half = -(-n // 2)
        u = self.random(2 * half)
        t = np.tan(np.pi * u[half:])  # |t| < 2e16, so t^2 cannot overflow
        scale = np.sqrt(-2.0 * np.log1p(-u[:half])) / (1.0 + t * t)
        return np.concatenate([scale * (1.0 - t * t), scale * (2.0 * t)])[:n]


def full_frame(n: int):
    """The input-frame push: push(size) -> (take, done), for sample_blocks.

    take(i, draws) writes factor i's draws (size, 2) into columns i and
    n + i of one (size, 2n) array (x of every mode, then z of every mode),
    and done(signs) returns (that array, signs).
    """
    def push(size: int):
        eta_in = np.empty((size, 2 * n))

        def take(i, draws):
            eta_in[:, i::n] = draws  # a view of columns i and n + i

        return take, lambda signs: (eta_in, signs)

    return push


def ideal_input(params: CodeParams, kets) -> WignerState:
    """Ideal product state from logical indices or d x d qudit densities."""
    entries = list(kets)
    if len(entries) != params.n:
        raise ValueError(f"need {params.n} mode entries, got {len(entries)}")
    single = CodeParams(params.d, 1)
    return WignerState.from_factors(params, [
        IdealFactor.logical(params.d, e) if np.ndim(e) == 0
        else IdealFactor.from_density_matrix(single, np.asarray(e)) for e in entries
    ])


def realistic_input(params: CodeParams, states) -> WignerState:
    """Finite-envelope product state, one CodeState per mode."""
    states = list(states)
    if len(states) != params.n:
        raise ValueError(f"need {params.n} mode states, got {len(states)}")
    return WignerState.from_factors(params, map(RealisticFactor, states))


def sample_blocks(state: WignerState, seed: int, count: int, push):
    """Yield done(signs) per block of count draws from |W|/M, in order.

    One generator and one WignerState.sampler draw blocks of at most BLOCK
    draws; push(size) returns a block's (take, done): take(i, draws) gets
    factor i's draws, and done(signs) what the block yields (full_frame's
    points and signs, or Binner.push's joint bins and signs). The caller
    reduces the blocks as they come; a smaller count draws a prefix.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = SplitMix64(seed)
    draw = state.sampler()
    for lo in range(0, count, BLOCK):
        part = min(BLOCK, count - lo)
        take, done = push(part)
        yield done(draw(part, rng, take))


def sample_input(state: WignerState, seed: int, count: int):
    """Draw (input-frame points (N, 2n), signs (N,)) from |W|/M: the sample_blocks draws."""
    pts, signs = zip(*sample_blocks(state, seed, count, full_frame(state.params.n)))
    return np.vstack(pts), np.concatenate(signs)


def sample_abs(state: WignerState, seed: int, count: int):
    """Draw (output-frame points (N, 2n), signs (N,)) from |W|/M: the
    sample_input draws pushed forward through the map.
    """
    pts, signs = sample_input(state, seed, count)
    return state.amap.push_float(pts), signs


def _ideal_comb_value(factor: IdealFactor, coords: np.ndarray, ell: float):
    """Comb weight table[t]/d where the point snaps to ell * t, else 0."""
    units = coords / ell
    t = np.rint(units)
    ok = np.max(np.abs(units - t), axis=-1) <= 1e-9
    d = factor.d
    tx = np.mod(t[:, 0].astype(int), d)
    tz = np.mod(t[:, 1].astype(int), d)
    return np.where(ok, factor.table[tx, tz] / d, 0.0)


def _ideal_sampler(factor: IdealFactor, params: CodeParams):
    tx, tz = np.nonzero(factor.table)
    w = factor.table[tx, tz]
    probs = np.abs(w) / np.abs(w).sum()
    # numpy's Generator.choice draws by this table, one uniform a pick; cdf[-1]
    # is exactly 1 and every uniform is below 1, so no pick passes the end
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    signs_tab = np.sign(w)
    pts = np.stack([tx, tz], axis=-1).astype(float) * params.ell

    def sample(count, rng, out, signs):
        idx = cdf.searchsorted(rng.random(count), side="right")
        out[:] = pts[idx]
        signs *= signs_tab[idx]

    return sample


class EnvelopeViolated(RuntimeError):
    """A proposal's |W| exceeded the certified envelope; only rounding could do it."""


def _rejection_sampler(factor: RealisticFactor):
    """One generator's draws from |W| / M of one realistic factor, under theta.abs_envelope.

    theta.propose draws each round's proposals from the envelope and scores
    them, W and E both unnormalized; a proposal is accepted with chance
    |W| / E and carries the sign of W. A call writes the next count
    accepted draws, in order, into out (count, 2) and multiplies their
    signs into signs (count,). A round proposes at most ROUND points:
    enough for the draws still owed plus two standard deviations, at the
    sampler's proposals per accepted draw so far, or at M_env / M (the
    envelope's mass over the negativity) before any, so a call seldom
    needs a second round. The few accepted draws a call does not use open
    its next call, so none is wasted but the last call's.
    """
    env = abs_envelope(factor.state)
    total_env = env.mass / (factor.d * factor.norm)  # in units of the normalized W's mass
    first = total_env / factor.negativity()  # proposals per draw: the inverse acceptance rate
    proposed = accepted = 0
    spare = np.empty((0, 3))  # accepted (x, z, sign) rows no call has written yet

    def sample(count, rng, out, signs):
        nonlocal proposed, accepted, spare
        done = 0
        while True:
            use, spare = spare[: count - done], spare[count - done:]
            rows = slice(done, done + len(use))
            out[rows] = use[:, :2]
            signs[rows] *= use[:, 2]
            done += len(use)
            if done == count:
                spare = spare.copy()  # the rest alone, not the round it is a view of
                return
            # the acceptance rate is M / total_env and M >= 1, so no rate exceeds total_env
            per_draw = min(proposed / accepted, total_env) if accepted else first
            owed = count - done
            batch = min(ROUND, math.ceil((owed + 2.0 * math.sqrt(owed)) * per_draw))
            x, z, values, bounds = propose(env, batch, rng)
            ratio = np.abs(values) / bounds
            if np.any(ratio > 1.0):
                raise EnvelopeViolated(f"envelope violated by factor {float(ratio.max()):.3f}")
            acc = np.flatnonzero(rng.random(batch) < ratio)
            proposed += batch
            accepted += acc.size
            if proposed > 20000 and accepted < 0.01 * proposed:
                raise RuntimeError("rejection sampling efficiency fell below 1 percent")
            spare = np.stack([x[acc], z[acc], np.sign(values[acc])], axis=-1)
            del x, z, values, bounds, ratio  # freed before the next round's proposals, not after

    return sample
