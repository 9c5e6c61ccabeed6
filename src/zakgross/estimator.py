"""Monte Carlo outcome estimation by signed sampling of the Wigner mass.

Sampling |W| and carrying the sign gives an unbiased estimate of each outcome
probability with spread controlled by the total absolute mass M (the
negativity): every single-sample contribution to a bin is exactly -M, 0, or
+M. The Hoeffding bound fixes the sample count

    N = ceil((2 / epsilon^2) * M^2 * ln(2 / delta_fail))

so that each fixed bin estimate is within epsilon of truth except with
probability delta_fail. One sample stream serves all bins at once; the bound
still holds per bin. Samples come from wigner.sample_blocks, one
wigner.SplitMix64 stream per seed drawn in order, so a run is reproducible
for a given seed.

That count assumes every draw swings over the full range +-M, while a real
bin's draws are mostly 0. So estimate plans the Hoeffding count at
delta_fail / 2 and stops at the first block boundary where a betting
confidence sequence (Waudby-Smith & Ramdas 2024, JRSS-B 86:1) puts every
bin within epsilon at level delta_fail / 2 (see stopping_rule). Ville's
inequality covers the sequence at any stopping time, and Hoeffding covers
the planned count, so each bin is still within epsilon except with
probability delta_fail; the draws are a prefix of the planned ones.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .measure import MeasurementSpec, binner
from .wigner import WignerState, sample_blocks

MAX_SAMPLES = 200_000_000


class InfeasiblePlan(ValueError):
    """The Hoeffding sample count exceeds MAX_SAMPLES."""


@dataclass
class EstimateReport:
    """Raw per-bin estimates; values may leave [0, 1] and that is meaningful.

    Clamping would bias the estimator, so the table is reported raw. Only
    estimate builds a report, so its sample count always backs its epsilon:
    n_samples were drawn, and planned_samples is where it would have
    stopped had the stopping rule never fired.
    """

    probabilities: np.ndarray
    std_errors: np.ndarray
    n_samples: int
    planned_samples: int
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


def stopping_rule(epsilon: float, delta_fail: float, negativity: float):
    """The rule cleared(pos, neg, n): is every bin within epsilon at level delta_fail / 2?

    pos and neg are each bin's integer counts of + and - draws among n. A
    draw reads x = 1, 1/2 or 0 in a bin (sign +, elsewhere, sign -), whose
    mean lies within eps' = epsilon / 2M of the draws' mean exactly when the
    estimate lies within epsilon. For the bets lam_j = 2^-(j+1), j < J, J the
    least count whose last bet falls below eps' / (1/4 + eps'^2), the
    capital sum_j prod_i (1 + lam_j (x_i - m)) / J is a nonnegative
    martingale at the true mean m, and it falls as m grows. A bin clears
    when that capital at m = mean - eps', and the reflected capital at
    mean + eps', both reach 2 / alpha with alpha = delta_fail / 2 (or m lies
    outside [0, 1]). Bins never drawn read 1/2 on every draw, so one row
    stands for all of them.
    """
    eps = epsilon / (2.0 * negativity)
    n_bets = math.floor(-math.log2(eps / (0.25 + eps * eps))) + 1
    lam = 0.5 ** np.arange(1, n_bets + 1)
    level = math.log(4.0 * n_bets / delta_fail)

    def clears(hi, lo, n):
        # capital against the mean m = mean - eps' with hi the x = 1 counts
        m = (0.5 + (hi - lo) / (2.0 * n) - eps)[:, None]
        log_k = (hi[:, None] * np.log1p(lam * (1.0 - m)) + (n - hi - lo)[:, None]
                 * np.log1p(lam * (0.5 - m)) + lo[:, None] * np.log1p(-lam * m))
        return (m[:, 0] <= 0) | (np.logaddexp.reduce(log_k, axis=1) >= level)

    def cleared(pos, neg, n: int) -> bool:
        drawn = (pos + neg) > 0
        hi, lo = pos[drawn], neg[drawn]
        if not drawn.all():
            hi, lo = np.append(hi, 0), np.append(lo, 0)
        return bool(clears(hi, lo, n).all() and clears(lo, hi, n).all())

    return cleared


def estimate(
    state: WignerState,
    spec: MeasurementSpec,
    epsilon: float,
    delta_fail: float,
    seed: int,
) -> EstimateReport:
    t0 = time.perf_counter()
    m_total = state.negativity()
    planned = sample_count(epsilon, delta_fail / 2, m_total)
    cleared = stopping_rule(epsilon, delta_fail, m_total)
    # a draw that slips a bin biases each cell by at most M / n, so a slip
    # chance p costs at most M p of epsilon: the error per draw is epsilon / M
    bins = binner(state, spec, epsilon / m_total)
    shape = spec.table_shape()
    flat_bins = math.prod(shape)
    pos = neg = 0  # integer counts, so their sum over blocks is exact
    n_tot = 0
    for idx, sgn in sample_blocks(state, seed, planned, bins.push):
        spos = sgn > 0
        pos += np.bincount(idx[spos], minlength=flat_bins)
        neg += np.bincount(idx[~spos], minlength=flat_bins)
        n_tot += sgn.size
        if cleared(pos, neg, n_tot):
            break

    est = m_total * (pos - neg) / n_tot
    second = m_total ** 2 * (pos + neg) / n_tot
    var = np.maximum(second - est ** 2, 0.0) / n_tot
    return EstimateReport(
        probabilities=est.reshape(shape),
        std_errors=np.sqrt(var).reshape(shape),
        n_samples=n_tot,
        planned_samples=planned,
        negativity=m_total,
        epsilon=epsilon,
        delta_fail=delta_fail,
        seed=seed,
        wall_time_s=time.perf_counter() - t0,
    )
