"""Phase-space states: per-mode input factors plus an accumulated affine map.

A circuit acting on a product input never needs more than this pair: gates
only update the affine map (exactly, in integer/Fraction arithmetic), while
the input factors hold all the state-specific data. Evaluation pulls points
back through the map; sampling draws input points, which measure.binner
pushes forward. The total negativity is a product over factors and is
manifestly invariant under gates, since the map drops out of any integral
over a full cell.

Ideal factors carry a d x d table of discrete Wigner weights supported on
the integer lattice ell * Z^2 (one cell), and sample it directly; realistic
factors carry a finite-envelope CodeState, evaluated through its separable
series and sampled by rejection under the certified bound theta.abs_envelope
builds from the same series.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .qudit import CodeParams, Gate, gross_wigner_table
from .symplectic import AffineMap, IntSymplectic
from .theta import CodeState, abs_envelope, code_state_norm, wigner_theta, wigner_theta_grid

MAX_STREAM = 100_000  # draws per seed stream at most
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
        if abs(t.sum() - t.shape[0]) > 1e-9:
            raise ValueError(f"table sums to {t.sum()}, expected d = {t.shape[0]}")
        object.__setattr__(self, "table", t)

    @property
    def d(self) -> int:
        return self.table.shape[0]

    @classmethod
    def logical(cls, d: int, j: int) -> "IdealFactor":
        table = np.zeros((d, d))
        table[j % d, :] = 1.0
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
    factor = RealisticFactor(state)
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
        f"negative-mass refinement did not settle below {tol:.1e}: {prev} -> {neg_mass}")


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

    def apply_gate(self, gate: Gate) -> "WignerState":
        return replace(self, amap=self.amap.then(gate))

    def apply_word(self, gates) -> "WignerState":
        return functools.reduce(WignerState.apply_gate, gates, self)

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
        pts, wts = np.zeros((1, 0), dtype=int), np.ones(1)
        for f in self.factors:
            tx, tz = np.nonzero(f.table)
            pts = np.hstack([np.repeat(pts, tx.size, axis=0),
                             np.tile(tx, len(pts))[:, None], np.tile(tz, len(pts))[:, None]])
            wts = np.repeat(wts, tx.size) * np.tile(f.table[tx, tz] / self.params.d, wts.size)
        # columns (x1, z1, x2, z2, ...): regroup to (x..., z...), in ell/2 units
        return 2 * np.hstack([pts[:, 0::2], pts[:, 1::2]]), wts

    def sampler(self):
        """Build a per-state sampler of (input-frame points, signs).

        The returned callable maps (count, rng) to (eta_in (N, 2n) floats,
        signs (N,)), drawn per factor; measure.binner pushes them forward.
        Each realistic factor's envelope table is built once per state.
        """
        factor_samplers = [
            _ideal_sampler(f, self.params) if isinstance(f, IdealFactor) else _rejection_sampler(f)
            for f in self.factors
        ]
        n = self.params.n

        def sample(count: int, rng: np.random.Generator):
            draws = [fs(count, rng) for fs in factor_samplers]
            # (count, 2, n): x of every mode, then z of every mode
            eta_in = np.stack([p for p, _ in draws], axis=-1).reshape(count, 2 * n)
            return eta_in, np.prod([s for _, s in draws], axis=0)

        return sample


def ideal_input(params: CodeParams, kets) -> WignerState:
    """Ideal product state from logical indices or d x d qudit densities."""
    entries = list(kets)
    if len(entries) != params.n:
        raise ValueError(f"need {params.n} mode entries, got {len(entries)}")
    single = CodeParams(params.d, 1)
    return WignerState.from_factors(params, [
        IdealFactor.logical(params.d, int(e)) if np.ndim(e) == 0
        else IdealFactor.from_density_matrix(single, np.asarray(e)) for e in entries
    ])


def realistic_input(params: CodeParams, states) -> WignerState:
    """Finite-envelope product state, one CodeState per mode."""
    states = list(states)
    if len(states) != params.n:
        raise ValueError(f"need {params.n} mode states, got {len(states)}")
    return WignerState.from_factors(params, map(RealisticFactor, states))


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


def sample_streams(state: WignerState, seed: int, count: int, reduce, threads: int = 1) -> list:
    """[reduce(points, signs)] per seed_streams(seed, count) stream, in stream order.

    Each stream draws input-frame points and signs from |W|/M with its own
    generator, so no result depends on `threads` (a thread pool when > 1).
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    sampler, streams = state.sampler(), seed_streams(seed, count)

    def one(seq, size):
        return reduce(*sampler(size, np.random.default_rng(seq)))

    if threads > 1 and len(streams) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, *zip(*streams)))
    return [one(seq, size) for seq, size in streams]


def sample_input(state: WignerState, seed: int, count: int):
    """Draw (input-frame points (N, 2n), signs (N,)) from |W|/M: the sample_streams draws."""
    draws = sample_streams(state, seed, count, lambda pts, signs: (pts, signs))
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
    tx, tz = np.nonzero(factor.table)
    w = factor.table[tx, tz]
    probs = np.abs(w) / np.abs(w).sum()
    signs_tab = np.sign(w)
    pts = np.stack([tx, tz], axis=-1).astype(float) * params.ell

    def sample(count, rng):
        idx = rng.choice(probs.size, size=count, p=probs)
        return pts[idx], signs_tab[idx]

    return sample


class EnvelopeViolated(RuntimeError):
    """A proposal's |W| exceeded the certified envelope; only rounding could do it."""


def _rejection_sampler(factor: RealisticFactor):
    """Draws from |W| / M of one realistic factor, under theta.abs_envelope.

    Each proposal picks a (class c, z cell j) pair in proportion to
    bound[c, j] (every comb has the same mass), z uniformly in cell j and x
    exactly from the comb f_c, a wrapped Gaussian of width delta / sqrt 2
    about c ell / 2; it is accepted with chance |W| / sum_c f_c(x) bound[c, j].
    """
    state = factor.state
    env = abs_envelope(state)
    cells = env.bound.shape[1]
    period = factor.d * state.ell
    scale = factor.d * factor.norm  # factor.wigner divides the series by it
    total_env = env.mass / scale

    def sample(count, rng):
        draws, proposed, accepted = [], 0, 0
        while accepted < count:
            # proposals per draw: a first round assumes 1, later ones the rate seen,
            # at most total_env (the acceptance rate is M / total_env, and M >= 1)
            per_draw = min(proposed / max(accepted, 1), total_env) if proposed else 1.0
            batch = max(1024, int((count - accepted) * per_draw))
            c, j = np.divmod(np.searchsorted(env.cum, rng.random(batch), side="right"), cells)
            gauss = state.delta / math.sqrt(2) * rng.standard_normal(batch)
            eta = np.stack([np.mod(c * (state.ell / 2) + gauss, period),
                            (j + rng.random(batch)) * (period / cells)], axis=-1)
            w_here = factor.wigner(eta)
            ratio = np.abs(w_here) * scale / env.at(eta[:, 0], j)
            if np.any(ratio > 1.0):
                raise EnvelopeViolated(f"envelope violated by factor {float(ratio.max()):.3f}")
            acc = np.flatnonzero(rng.random(batch) < ratio)
            proposed += batch
            accepted += acc.size
            if proposed > 20000 and accepted < 0.01 * proposed:
                raise RuntimeError("rejection sampling efficiency fell below 1 percent")
            draws.append((eta[acc], np.sign(w_here[acc])))
        return tuple(np.concatenate(parts)[:count] for parts in zip(*draws))

    return sample
