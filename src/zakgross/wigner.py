"""Phase-space states: per-mode input factors plus an accumulated affine map.

A circuit acting on a product input never needs more than this pair: gates
only update the affine map (exactly, in integer/Fraction arithmetic), while
the input factors hold all the state-specific data. Evaluation pulls points
back through the map; sampling draws input points, which measure.binner
pushes forward. The total negativity is a product over factors and is
manifestly invariant under gates, since the map drops out of any integral
over a full cell.

Ideal factors carry a d x d table of discrete Wigner weights supported on
the integer lattice ell * Z^2 (one cell); realistic factors carry a
finite-envelope CodeState evaluated through the theta machinery.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .qudit import CodeParams, Gate, gross_wigner_table
from .symplectic import AffineMap, IntSymplectic
from .theta import CodeState, code_state_norm, wigner_theta, wigner_theta_grid

MAX_STREAM = 100_000  # draws per seed stream at most
ENVELOPE_GRID = 1024  # Wigner grid points per axis behind the sampling envelope
ENVELOPE_CELLS = 256  # envelope cells per axis
ENVELOPE_HEADROOM = 1.15  # factor on the largest sampled |W| per cell


@dataclass(frozen=True)
class IdealFactor:
    """Discrete Wigner weights of one ideally encoded mode.

    table[t_x, t_z] sums to d for a unit-trace input; entries may be
    negative. The continuous Wigner function is the comb with weight
    table[t]/d on the point ell * t of each cell.
    """

    d: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (self.d, self.d):
            raise ValueError(f"table shape {t.shape}, expected {(self.d, self.d)}")
        if abs(t.sum() - self.d) > 1e-9:
            raise ValueError(f"table sums to {t.sum()}, expected d = {self.d}")
        object.__setattr__(self, "table", t)

    @classmethod
    def logical(cls, d: int, j: int) -> "IdealFactor":
        table = np.zeros((d, d))
        table[j % d, :] = 1.0
        return cls(d, table)

    @classmethod
    def from_density_matrix(cls, params_1mode: CodeParams, rho) -> "IdealFactor":
        if params_1mode.n != 1:
            raise ValueError(f"need single-mode params, got n={params_1mode.n}")
        return cls(params_1mode.d, gross_wigner_table(params_1mode, rho))

    def negativity(self) -> float:
        return float(np.abs(self.table).sum() / self.d)


@dataclass(frozen=True)
class RealisticFactor:
    """A finite-envelope code state on one mode, with its norm cached."""

    state: CodeState
    norm: float

    @classmethod
    def make(cls, state: CodeState) -> "RealisticFactor":
        return cls(state, code_state_norm(state))

    @property
    def d(self) -> int:
        return self.state.d

    def wigner(self, eta) -> np.ndarray:
        """Normalized values: integral over one cell is 1."""
        return wigner_theta(self.state, eta) / (self.d * self.norm)

    def wigner_grid(self, eta_x, eta_z) -> np.ndarray:
        return wigner_theta_grid(self.state, eta_x, eta_z) / (self.d * self.norm)

    def negativity(self, tol: float = 1e-6) -> float:
        return _negativity(self.state, tol)


@functools.lru_cache(maxsize=64)
def _negativity(state: CodeState, tol: float) -> float:
    """Cell integral of |W| for the unit-norm state, cached per (state, tol)."""
    factor = RealisticFactor.make(state)
    return _abs_integral(factor.wigner_grid, factor.d * state.ell, tol)


def _abs_integral(eval_grid, period: float, tol: float) -> float:
    """integral of |W| over one cell [0, period)^2 = 1 + 2 * (negative mass).

    eval_grid(xs, zs) gives normalized values on a tensor grid. The positive
    part integrates to exactly 1, so only the negative mass is computed
    numerically: midpoint sums on the full cell at doubling resolutions until
    two levels agree. Midpoint handles the |.| kinks at the sign boundary at
    second order, which the agreement check verifies.
    """
    prev = None
    for n_grid in (512, 1024, 2048, 4096):
        xs = (np.arange(n_grid) + 0.5) * period / n_grid
        vals = eval_grid(xs, xs)
        neg_mass = float(-np.minimum(vals, 0.0, out=vals).sum()) * (period / n_grid) ** 2
        if prev is not None and abs(neg_mass - prev) <= 0.5 * tol:
            return 1.0 + 2.0 * neg_mass
        prev = neg_mass
    raise RuntimeError(
        f"negative-mass refinement did not settle below {tol:.1e}: "
        f"{prev} -> {neg_mass}"
    )


@dataclass(frozen=True)
class WignerState:
    """Product input factors transported by the accumulated affine map."""

    params: CodeParams
    factors: tuple
    amap: AffineMap

    def __post_init__(self):
        if len(self.factors) != self.params.n:
            raise ValueError(
                f"need {self.params.n} factors, got {len(self.factors)}"
            )
        for f in self.factors:
            if f.d != self.params.d:
                raise ValueError("factor dimension differs from params.d")

    # -- constructors --

    @classmethod
    def from_factors(cls, params: CodeParams, factors) -> "WignerState":
        return cls(params, tuple(factors), AffineMap.identity(params))

    # -- circuit action --

    def apply_gate(self, gate: Gate) -> "WignerState":
        return replace(self, amap=self.amap.then(gate))

    def apply_word(self, gates) -> "WignerState":
        out = self
        for g in gates:
            out = out.apply_gate(g)
        return out

    def apply_displacement(self, c_vec) -> "WignerState":
        return replace(self, amap=self.amap.then_displacement(c_vec))

    def apply_symplectic(self, s_mat) -> "WignerState":
        """Apply the Gaussian action of an explicit integer symplectic matrix.

        The matrix's covariance shift is folded into the map's offset; no
        extra half-lattice offset is added (generator gates carry their own
        offsets through their tagged constructors instead).
        """
        sg = s_mat if isinstance(s_mat, IntSymplectic) else IntSymplectic(s_mat)
        if sg.n != self.params.n:
            raise ValueError(
                f"matrix acts on {sg.n} modes, state has {self.params.n}"
            )
        zero = tuple([Fraction(0)] * (2 * self.params.n))
        return replace(self, amap=self.amap.then_affine(sg, zero))

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
        summing to 1). Zero-weight points are dropped.
        """
        if not self.is_ideal():
            raise ValueError("lattice support requires all-ideal factors")
        d, n = self.params.d, self.params.n
        pts = [np.zeros((1, 0), dtype=int)]
        wts = [np.ones(1)]
        for f in self.factors:
            tx, tz = np.nonzero(f.table)
            w = f.table[tx, tz] / d
            old_p = pts[-1]
            old_w = wts[-1]
            rep = np.repeat(old_p, tx.size, axis=0)
            tile_x = np.tile(tx, old_p.shape[0])[:, None]
            tile_z = np.tile(tz, old_p.shape[0])[:, None]
            pts.append(np.hstack([rep, tile_x, tile_z]))
            wts.append(np.repeat(old_w, tx.size) * np.tile(w, old_w.size))
        raw = pts[-1]
        # columns currently (x1, z1, x2, z2, ...): regroup to (x..., z...)
        xcols = raw[:, 0::2]
        zcols = raw[:, 1::2]
        return np.hstack([2 * xcols, 2 * zcols]), wts[-1]

    def sampler(self):
        """Build a per-state sampler of (input-frame points, signs).

        The returned callable maps (count, rng) to (eta_in (N, 2n) floats,
        signs (N,)), drawn per factor; measure.binner pushes them forward.
        Envelope tables for realistic factors are built once.
        """
        factor_samplers = [
            _ideal_sampler(f, self.params) if isinstance(f, IdealFactor) else _rejection_sampler(f)
            for f in self.factors
        ]
        n = self.params.n

        def sample(count: int, rng: np.random.Generator):
            cols = []
            signs = np.ones(count)
            for fs in factor_samplers:
                eta_i, sg = fs(count, rng)
                cols.append(eta_i)
                signs = signs * sg
            eta_in = np.empty((count, 2 * n))
            for i, eta_i in enumerate(cols):
                eta_in[:, i] = eta_i[:, 0]
                eta_in[:, n + i] = eta_i[:, 1]
            return eta_in, signs

        return sample


def ideal_input(params: CodeParams, kets) -> WignerState:
    """Ideal product state from logical indices or d x d qudit densities."""
    entries = list(kets)
    if len(entries) != params.n:
        raise ValueError(f"need {params.n} mode entries, got {len(entries)}")
    single = CodeParams(params.d, 1)
    factors = []
    for e in entries:
        if np.ndim(e) == 0:
            factors.append(IdealFactor.logical(params.d, int(e)))
        else:
            factors.append(IdealFactor.from_density_matrix(single, np.asarray(e)))
    return WignerState.from_factors(params, factors)


def realistic_input(params: CodeParams, states) -> WignerState:
    """Finite-envelope product state, one CodeState per mode."""
    states = list(states)
    if len(states) != params.n:
        raise ValueError(f"need {params.n} mode states, got {len(states)}")
    return WignerState.from_factors(params, (RealisticFactor.make(s) for s in states))


def seed_streams(seed: int, total: int) -> list:
    """Split `total` draws into seed streams [(SeedSequence, count)].

    ceil(total / MAX_STREAM) streams of equal size (the first total % n_streams
    take one extra), seeded by SeedSequence(seed).spawn. The split depends only
    on (seed, total), so results do not depend on how streams meet workers.
    """
    n_streams = max(1, math.ceil(total / MAX_STREAM))
    base, extra = divmod(total, n_streams)
    seqs = np.random.SeedSequence(seed).spawn(n_streams)
    return [(seq, base + (i < extra)) for i, seq in enumerate(seqs)]


def sample_input(state: WignerState, seed: int, count: int):
    """Draw (input-frame points (N, 2n), signs (N,)) from |W|/M.

    Deterministic per seed: the seed_streams draws, concatenated in stream
    order.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    sampler = state.sampler()
    draws = [
        sampler(size, np.random.default_rng(seq))
        for seq, size in seed_streams(seed, count)
    ]
    return np.vstack([p for p, _ in draws]), np.concatenate([s for _, s in draws])


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
    d = factor.d
    ell = params.ell
    tx, tz = np.nonzero(factor.table)
    w = factor.table[tx, tz]
    probs = np.abs(w) / np.abs(w).sum()
    signs_tab = np.sign(w)
    pts = np.stack([tx, tz], axis=-1).astype(float) * ell

    def sample(count, rng):
        idx = rng.choice(probs.size, size=count, p=probs)
        return pts[idx], signs_tab[idx]

    return sample


def _rejection_sampler(factor: RealisticFactor):
    grid, cells = ENVELOPE_GRID, ENVELOPE_CELLS
    period = factor.d * factor.state.ell
    xs = (np.arange(grid) + 0.5) * period / grid
    vals = factor.wigner_grid(xs, xs)
    sub = grid // cells
    env = np.abs(vals).reshape(cells, sub, cells, sub).max(axis=(1, 3)) * ENVELOPE_HEADROOM
    cell_w = period / cells
    masses = env.ravel()
    cum = np.cumsum(masses / masses.sum())
    total_env = masses.sum() * cell_w ** 2

    def sample(count, rng):
        out = np.empty((count, 2))
        out_signs = np.empty(count)
        filled = 0
        proposed = 0
        accepted = 0
        while filled < count:
            batch = max(1024, int(1.3 * (count - filled) * total_env))
            u = rng.random(batch)
            cell_idx = np.searchsorted(cum, u)
            ix, iz = np.unravel_index(cell_idx, (cells, cells))
            px = (ix + rng.random(batch)) * cell_w
            pz = (iz + rng.random(batch)) * cell_w
            w_here = factor.wigner(np.stack([px, pz], axis=-1))
            bound = env[ix, iz]
            ratio = np.abs(w_here) / bound
            if np.any(ratio > 1.0):
                raise RuntimeError(
                    f"envelope violated by factor {float(ratio.max()):.3f}; "
                    "increase the headroom"
                )
            acc = rng.random(batch) < ratio
            proposed += batch
            accepted += int(acc.sum())
            if proposed > 20000 and accepted < 0.01 * proposed:
                raise RuntimeError(
                    "rejection sampling efficiency fell below 1 percent"
                )
            take = min(count - filled, int(acc.sum()))
            sel = np.where(acc)[0][:take]
            out[filled: filled + take, 0] = px[sel]
            out[filled: filled + take, 1] = pz[sel]
            out_signs[filled: filled + take] = np.sign(w_here[sel])
            filled += take
        return out, out_signs

    return sample
