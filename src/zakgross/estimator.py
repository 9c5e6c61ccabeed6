"""Monte Carlo outcome estimation by signed sampling of the Wigner mass.

Sampling |W| and carrying the sign gives an unbiased estimate of each outcome
probability with spread controlled by the total absolute mass M (the
negativity): every single-sample contribution to a bin is exactly -M, 0, or
+M. The Hoeffding bound fixes the sample count

    N = ceil((2 / epsilon^2) * M^2 * ln(2 / delta_fail))

so that each fixed bin estimate is within epsilon of truth except with
probability delta_fail. One sample stream serves all bins at once; the bound
still holds per bin. Samples come from wigner.sample_streams, equal streams
seeded through SeedSequence.spawn and drawn in order, so a run is
reproducible for a given seed.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .measure import SLIP_SHARE, MeasurementSpec, binner
from .wigner import WignerState, sample_streams

MAX_SAMPLES = 200_000_000


class InfeasiblePlan(ValueError):
    """The Hoeffding sample count exceeds MAX_SAMPLES."""


@dataclass
class EstimateReport:
    """Raw per-bin estimates; values may leave [0, 1] and that is meaningful.

    Clamping would bias the estimator, so the table is reported raw. Only
    estimate builds a report, so its sample count always backs its epsilon.
    """

    probabilities: np.ndarray
    std_errors: np.ndarray
    n_samples: int
    negativity: float
    epsilon: float
    delta_fail: float
    seed: int
    wall_time_s: float = field(compare=False, default=0.0)

    def to_dict(self) -> dict:
        """Every field in declaration order, the tables as nested lists."""
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(self).items()}


def sample_count(epsilon: float, delta_fail: float, negativity: float) -> int:
    """The Hoeffding sample count N for (epsilon, delta_fail) at negativity M."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < delta_fail < 1:
        raise ValueError(f"delta_fail must lie in (0, 1), got {delta_fail}")
    if negativity < 1.0 - 1e-9:
        raise ValueError(f"negativity must be >= 1, got {negativity}")
    n = math.ceil(
        (2.0 / epsilon ** 2) * negativity ** 2 * math.log(2.0 / delta_fail)
    )
    if n > MAX_SAMPLES:
        raise InfeasiblePlan(
            f"required sample count {n} exceeds the cap {MAX_SAMPLES}; relax "
            f"epsilon/delta_fail (negativity {negativity:.6g})"
        )
    return n


def estimate(
    state: WignerState,
    spec: MeasurementSpec,
    epsilon: float,
    delta_fail: float,
    seed: int,
) -> EstimateReport:
    t0 = time.perf_counter()
    m_total = state.negativity()
    n_tot = sample_count(epsilon, delta_fail, m_total)
    # a draw that slips a bin biases each cell by at most M / n, so a slip
    # chance p costs at most M p of the epsilon budget
    bins = binner(state, spec, SLIP_SHARE * epsilon / m_total)
    shape = spec.table_shape()
    flat_bins = math.prod(shape)
    pos = neg = 0  # integer counts, so their sum over blocks and streams is exact
    for idx, sgn in sample_streams(state, seed, n_tot, bins.push):
        spos = sgn > 0
        pos += np.bincount(idx[spos], minlength=flat_bins)
        neg += np.bincount(idx[~spos], minlength=flat_bins)

    est = m_total * (pos - neg) / n_tot
    second = m_total ** 2 * (pos + neg) / n_tot
    var = np.maximum(second - est ** 2, 0.0) / n_tot
    return EstimateReport(
        probabilities=est.reshape(shape),
        std_errors=np.sqrt(var).reshape(shape),
        n_samples=n_tot,
        negativity=m_total,
        epsilon=epsilon,
        delta_fail=delta_fail,
        seed=seed,
        wall_time_s=time.perf_counter() - t0,
    )
