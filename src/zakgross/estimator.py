"""Monte Carlo outcome estimation by signed sampling of the Wigner mass.

Sampling |W| and carrying the sign gives an unbiased estimate of each outcome
probability with spread controlled by the total absolute mass M (the
negativity): every single-sample contribution to a bin is exactly -M, 0, or
+M. The Hoeffding bound fixes the sample count

    N = ceil((2 / epsilon^2) * M^2 * ln(2 / delta_fail))

so that each fixed bin estimate is within epsilon of truth except with
probability delta_fail. One sample stream serves all bins at once; the bound
still holds per bin. Samples come from wigner.seed_streams, equal streams
seeded through SeedSequence.spawn, so a run is reproducible for a given seed
regardless of how streams are assigned to workers.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .measure import SLIP_SHARE, MeasurementSpec, binner
from .wigner import WignerState, seed_streams

MAX_SAMPLES = 200_000_000


class InfeasiblePlan(ValueError):
    """The Hoeffding sample count exceeds the configured cap."""


@dataclass(frozen=True)
class EstimatePlan:
    n_samples: int
    negativity: float
    epsilon: float
    delta_fail: float


@dataclass
class EstimateReport:
    """Raw per-bin estimates; values may leave [0, 1] and that is meaningful.

    Clamping would bias the estimator, so the raw table is primary and
    clamped() is only a convenience view.
    """

    probabilities: np.ndarray
    std_errors: np.ndarray
    n_samples: int
    negativity: float
    epsilon: float
    delta_fail: float
    seed: int
    wall_time_s: float = field(compare=False, default=0.0)

    def clamped(self) -> np.ndarray:
        return np.clip(self.probabilities, 0.0, 1.0)

    def to_dict(self) -> dict:
        return {
            "probabilities": self.probabilities.tolist(),
            "std_errors": self.std_errors.tolist(),
            "n_samples": self.n_samples,
            "negativity": self.negativity,
            "epsilon": self.epsilon,
            "delta_fail": self.delta_fail,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
        }


def plan(
    epsilon: float,
    delta_fail: float,
    negativity: float,
    max_samples: int = MAX_SAMPLES,
) -> EstimatePlan:
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < delta_fail < 1:
        raise ValueError(f"delta_fail must lie in (0, 1), got {delta_fail}")
    if negativity < 1.0 - 1e-9:
        raise ValueError(f"negativity must be >= 1, got {negativity}")
    n = math.ceil(
        (2.0 / epsilon ** 2) * negativity ** 2 * math.log(2.0 / delta_fail)
    )
    if n > max_samples:
        raise InfeasiblePlan(
            f"required sample count {n} exceeds the cap {max_samples}; raise "
            f"the cap to at least {n} or relax epsilon/delta_fail "
            f"(negativity {negativity:.6g})"
        )
    return EstimatePlan(
        n_samples=n, negativity=negativity, epsilon=epsilon, delta_fail=delta_fail
    )


def estimate(
    state: WignerState,
    spec: MeasurementSpec,
    est_plan: EstimatePlan,
    seed: int,
    threads: int = 1,
) -> EstimateReport:
    t0 = time.perf_counter()
    # a draw that slips a bin biases each cell by at most M / n, so a slip
    # chance p costs at most M p of the epsilon budget
    bins = binner(state, spec, SLIP_SHARE * est_plan.epsilon / est_plan.negativity)
    shape = spec.table_shape()
    flat_bins = int(np.prod(shape))
    pos = np.zeros(flat_bins, dtype=np.int64)
    neg = np.zeros(flat_bins, dtype=np.int64)

    streams = seed_streams(seed, est_plan.n_samples)

    sampler = state.sampler()

    def run_stream(seq, size):
        pts, sgn = sampler(size, np.random.default_rng(seq))
        idx, spos = bins(pts), sgn > 0
        return (
            np.bincount(idx[spos], minlength=flat_bins),
            np.bincount(idx[~spos], minlength=flat_bins),
        )

    # streams are seed-indexed, counts integer: the reduction is exact and
    # order-independent, so threading cannot change the result
    if threads > 1 and len(streams) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_stream, *zip(*streams)))
    else:
        results = [run_stream(sq, sz) for sq, sz in streams]
    for pos_part, neg_part in results:
        pos += pos_part
        neg += neg_part

    m_total = est_plan.negativity
    n_tot = est_plan.n_samples
    est = m_total * (pos - neg) / n_tot
    second = m_total ** 2 * (pos + neg) / n_tot
    var = np.maximum(second - est ** 2, 0.0) / n_tot
    return EstimateReport(
        probabilities=est.reshape(shape),
        std_errors=np.sqrt(var).reshape(shape),
        n_samples=n_tot,
        negativity=m_total,
        epsilon=est_plan.epsilon,
        delta_fail=est_plan.delta_fail,
        seed=seed,
        wall_time_s=time.perf_counter() - t0,
    )
