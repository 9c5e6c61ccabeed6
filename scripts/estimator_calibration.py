"""Empirical calibration of the Monte Carlo probability estimator.

Runs the same two-mode stabilizer circuit across many seeds, compares each
estimate against the dense-algebra reference, and reports the empirical
failure rate (largest bin error above epsilon) next to the planned bound.
The planned sample count is conservative, so the observed rate should sit
far below delta_fail. The run itself is zakgross.oracles.calibration, the
check behind acceptance criterion 6 and `zakgross verify`.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zakgross.oracles import calibration


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--delta-fail", type=float, default=0.1)
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    c = calibration(args.seeds, args.epsilon, args.delta_fail, threads=args.threads)
    est_plan = c["plan"]
    rate = c["fails"] / args.seeds
    print(f"# plan: {est_plan.n_samples} samples per seed (M = {est_plan.negativity:.6f})")
    print(f"# {args.seeds} seeds in {c['elapsed']:.1f}s")
    print(f"empirical failure rate: {rate:.4f} (planned bound {args.delta_fail})")
    print(f"worst single-seed bin error: {c['worst']:.5f} (epsilon {args.epsilon})")
    print(f"largest pooled bias: {c['bias']:.2f} standard errors")
    exponent = args.epsilon ** 2 * est_plan.n_samples / (2.0 * est_plan.negativity ** 2)
    hoeffding = 2.0 * math.exp(-exponent)
    print(f"per-bin tail bound at this plan: {hoeffding:.2e}")
    return 0 if rate <= args.delta_fail else 1


if __name__ == "__main__":
    sys.exit(main())
