"""Write the paper-regime estimator circuit as a seeded circuit document.

    python3 scripts/paper_regime.py [--n 50] [--word-seed 0] [--out circuit.json]
    zakgross run circuit.json --mode estimate --out result.json

The circuit is the README's paper regime: d = 3, n modes, phase states on
modes 0 and 1 and logical 0 on the rest, all at delta = 0.01 (40 dB); a
word of 10 n gates drawn by numpy.random.default_rng(word_seed), each tag
uniform over F, F_inv, P, P_inv, SUM and CZ by rng.integers(6), then its
modes by rng.choice(n, size=2, replace=False) for SUM and CZ and
rng.integers(n) otherwise; modes 0-2 measured with K = 3; estimator
epsilon 0.02, delta_fail 0.05 and seed 1. At n = 50 the plan is 95,379
samples (M = 2.09), of which the estimate draws 6,144 before its stopping
rule puts every bin within epsilon. The document depends only on the
arguments, so its time and peak-RSS figures can be measured again on any
tree, e.g. with perfbench/child.py, which reports both for one CLI call.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

D, DELTA, PHASE_MODES = 3, 0.01, 2
TAGS = ("F", "F_inv", "P", "P_inv", "SUM", "CZ")
MEASURED, K = [0, 1, 2], 3
ESTIMATOR = {"epsilon": 0.02, "delta_fail": 0.05, "seed": 1}


def int_at_least(low: int):
    """An argparse type: a decimal integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        if not text.lstrip("+-").isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def paper_regime_circuit(n: int = 50, word_seed: int = 0) -> dict:
    """The circuit document of the paper regime at n modes (n >= 3)."""
    rng = np.random.default_rng(word_seed)
    ops = []
    for _ in range(10 * n):
        tag = TAGS[int(rng.integers(len(TAGS)))]
        if tag in ("SUM", "CZ"):
            modes = [int(v) for v in rng.choice(n, size=2, replace=False)]
        else:
            modes = [int(rng.integers(n))]
        ops.append({"gate": tag, "modes": modes})
    phase = {"realistic": {"kind": "phase_state", "delta": DELTA}}
    logical = {"realistic": {"kind": "logical", "j": 0, "delta": DELTA}}
    return {
        "format": "zakgross-circuit/1",
        "d": D,
        "n": n,
        "inputs": [phase] * PHASE_MODES + [logical] * (n - PHASE_MODES),
        "ops": ops,
        "measurement": {"modes": MEASURED, "K": K},
        "estimator": dict(ESTIMATOR),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int_at_least(len(MEASURED)), default=50)
    parser.add_argument("--word-seed", type=int_at_least(0), default=0)
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    args = parser.parse_args(argv)
    text = json.dumps(paper_regime_circuit(args.n, args.word_seed)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
