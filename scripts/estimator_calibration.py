"""Empirical calibration of the Monte Carlo probability estimator.

Runs the same two-mode stabilizer circuit across many seeds, compares each
estimate against the dense-algebra reference, and reports the empirical
failure rate (largest bin error above epsilon) next to the planned bound.
Each estimate stops once its betting confidence sequence puts every bin
within epsilon, at most at its planned count (the Hoeffding count at
delta_fail / 2); both counts are printed for seed 0. The bound is
conservative, so the observed rate should sit far below delta_fail. The
run itself is zakgross.oracles.calibration, the check behind acceptance
criterion 6 and `zakgross verify`.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zakgross.oracles import calibration


def int_at_least(low: int):
    """An argparse type: a decimal integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        if not text.lstrip("+-").isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def open_unit(text: str) -> float:
    """An argparse type: a number in the open interval (0, 1), else a usage error (exit 2)."""
    val = float(text)
    if not 0 < val < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return val


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=open_unit, default=0.05)
    parser.add_argument("--delta-fail", type=open_unit, default=0.1)
    parser.add_argument("--seeds", type=int_at_least(1), default=200)
    args = parser.parse_args(argv)

    c = calibration(args.seeds, args.epsilon, args.delta_fail)
    planned, negativity = c["planned_samples"], c["negativity"]
    rate = c["fails"] / args.seeds
    print(f"# plan: {planned} samples per seed, {c['n_samples']} drawn at seed 0 "
          f"(M = {negativity:.6f})")
    print(f"# {args.seeds} seeds in {c['elapsed']:.1f}s")
    print(f"empirical failure rate: {rate:.4f} (planned bound {args.delta_fail})")
    print(f"worst single-seed bin error: {c['worst']:.5f} (epsilon {args.epsilon})")
    print(f"largest pooled bias: {c['bias']:.2f} standard errors")
    exponent = args.epsilon ** 2 * planned / (2.0 * negativity ** 2)
    hoeffding = 2.0 * math.exp(-exponent)
    print(f"per-bin tail bound at the planned count: {hoeffding:.2e} "
          f"(its share of the bound {args.delta_fail / 2})")
    return 0 if rate <= args.delta_fail else 1


if __name__ == "__main__":
    sys.exit(main())
