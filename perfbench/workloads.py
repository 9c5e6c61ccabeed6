"""Seeded workload generators.

Each workload is a list of ops; an op is a list of CLI invocations (argv
lists for `zakgross.cli.main`), each run in its own fresh interpreter. The
generators depend only on the workload seed and the op index, never on the
program under test, so the program receives nothing but the files written
here and the argv.
"""
from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("ideal-exact", "realistic-estimate", "negativity-sweep")

FORMAT_TAG = "zakgross-circuit/1"
D = 3
MEASURED = [0, 1, 2]
K = 3

# ideal-exact: the paper's exact ideal path. All its work is per-gate affine
# map updates (symplectic) and the 3^10-point lattice enumeration, push and
# bin loop (wigner, symplectic, measure); it does no theta work at all.
IDEAL_N = 10
IDEAL_GATES = 400
IDEAL_TAGS = ("F", "F_inv", "P", "P_inv", "SUM", "CZ", "X", "Z")
# The dense oracle reaches 3^7 = 2187 <= 3125 amplitudes, so the twin that
# checks the generator's gate semantics has 7 modes. It runs only the first
# TWIN_GATES gates of its stream: 400 gates scramble the measured modes into a
# uniform table, which a wrong gate or a wrong composition would still give,
# while after 24 gates every variant's twin reaches only 3 of the 27 outcomes.
TWIN_N = 7
TWIN_GATES = 24
# Op i runs variant (seed + i) % VARIANTS: a run cycles through every
# variant in a fixed order, so its medians do not hang on one circuit (the
# variants' peak RSS differs by up to 8%), and the number of ops that fit in
# a run changes its mix by at most a part of one cycle. Each variant's table
# is recorded in reference.json.
VARIANTS = 4

# realistic-estimate: the paper's realistic path (negativity grids, envelope
# build, pointwise theta inside rejection sampling, push and binning). Only
# five gates, so symplectic barely shows. The phase state's delta = 0.5 is the
# width at which the sampler's heuristic envelope is known to be violated, so
# this workload keeps showing that defect as failed ops.
REALISTIC_INPUTS = [
    {"realistic": {"kind": "phase_state", "delta": 0.5}},
    {"realistic": {"kind": "logical", "j": 0, "delta": 0.25}},
    {"realistic": {"kind": "logical", "j": 0, "delta": 0.25}},
]
REALISTIC_OPS = [
    {"gate": "P", "modes": [0]},
    {"gate": "CZ", "modes": [0, 1]},
    {"gate": "CZ", "modes": [1, 2]},
    {"gate": "P_inv", "modes": [2]},
    {"gate": "displace", "c": [1, 0, 2, 0, 0, 0]},
]
EPSILON = 0.04
DELTA_FAIL = 0.1

# negativity-sweep: the paper's headline computation, pure theta grid work
# (512^2 to 4096^2 midpoint levels) with no sampling and no gates. It uses
# the same theta layer as realistic-estimate, but on grids instead of points,
# so a change that speeds one form and slows the other shows.
SWEEP_KINDS = ("phase_state", "logical_0")
SWEEP_DELTAS = "0.5,0.3,0.25"

# Wall time of one op, interpreter start included, on the 2-core Xeon VM the
# benchmark was built on; it sets how many ops a run of --seconds holds.
OP_WALL_S = {"ideal-exact": 4.5, "realistic-estimate": 12.5, "negativity-sweep": 9.0}


def _random_symplectic(rng, n: int) -> list:
    """Integer symplectic matrix (Omega = [[0, I], [-I, 0]]) from block shears.

    A product of lower shears [[I, 0], [C, I]] and upper shears [[I, B],
    [0, I]] with symmetric integer C, B is symplectic for any entries.
    """
    s = np.eye(2 * n, dtype=np.int64)
    for lower in (True, False, True):
        b = np.zeros((n, n), dtype=np.int64)
        for _ in range(n):
            i, j = (int(v) for v in rng.integers(n, size=2))
            v = int(rng.choice([-1, 1]))
            b[i, j] += v
            if i != j:
                b[j, i] += v
        shear = np.eye(2 * n, dtype=np.int64)
        if lower:
            shear[n:, :n] = b
        else:
            shear[:n, n:] = b
        s = s @ shear
    return s.tolist()


def op_count(workload: str, seconds: float) -> int:
    """Ops in a run of `seconds`: as many as fit at the workload's nominal op
    wall time (OP_WALL_S), at least two. The count depends on nothing
    measured, so a seed always runs the same ops, and its failed ops repeat."""
    return max(2, int(seconds / OP_WALL_S[workload]))


def op_seed(seed: int, op_index: int) -> int:
    """Per-op seed drawn from the workload seed and the op index."""
    return int(np.random.SeedSequence([seed, op_index]).generate_state(1)[0])


def ideal_variant(seed: int, op_index: int) -> int:
    return (seed + op_index) % VARIANTS


def ideal_circuit(variant: int, n: int = IDEAL_N, gates: int = IDEAL_GATES,
                  with_symplectic: bool = True) -> dict:
    """The ideal-exact circuit document of a variant in range(VARIANTS).

    The circuits of one variant with different n draw from separate streams;
    with the same n, a shorter word is a prefix of the longer one.
    """
    rng = np.random.default_rng([variant, n])
    kets = [int(v) for v in rng.integers(D, size=n)]
    ops = []
    for _ in range(gates):
        tag = IDEAL_TAGS[int(rng.integers(len(IDEAL_TAGS)))]
        if tag in ("SUM", "CZ"):
            modes = [int(v) for v in rng.choice(n, size=2, replace=False)]
        else:
            modes = [int(rng.integers(n))]
        ops.append({"gate": tag, "modes": modes})
    if with_symplectic:
        # validates a user matrix too, midway so later gates compose with it
        ops.insert(gates // 2, {"gate": "symplectic", "matrix": _random_symplectic(rng, n)})
    return {
        "format": FORMAT_TAG,
        "d": D,
        "n": n,
        "inputs": [{"ideal_logical": j} for j in kets],
        "ops": ops,
        "measurement": {"modes": MEASURED, "K": K},
    }


def twin_circuit(variant: int) -> dict:
    """The 7-mode twin of a variant: the first TWIN_GATES gates, no symplectic op."""
    return ideal_circuit(variant, n=TWIN_N, gates=TWIN_GATES, with_symplectic=False)


def realistic_circuit(seed: int, op_index: int) -> dict:
    return {
        "format": FORMAT_TAG,
        "d": D,
        "n": len(REALISTIC_INPUTS),
        "inputs": REALISTIC_INPUTS,
        "ops": REALISTIC_OPS,
        "measurement": {"modes": MEASURED, "K": K},
        "estimator": {
            "epsilon": EPSILON,
            "delta_fail": DELTA_FAIL,
            "seed": op_seed(seed, op_index),
        },
    }


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


def op_invocations(workload: str, seed: int, op_index: int, work: str) -> list:
    """The argv lists of one op, writing its input files under `work`.

    Every invocation writes its result with --out to a file named by the
    returned list's second element: [(argv, out_path), ...].
    """
    if workload == "ideal-exact":
        circ = _write(os.path.join(work, f"op{op_index}-circuit.json"),
                      ideal_circuit(ideal_variant(seed, op_index)))
        out = os.path.join(work, f"op{op_index}.json")
        return [(["run", circ, "--mode", "exact", "--threads", "1", "--out", out], out)]
    if workload == "realistic-estimate":
        circ = _write(os.path.join(work, f"op{op_index}-circuit.json"),
                      realistic_circuit(seed, op_index))
        out = os.path.join(work, f"op{op_index}.json")
        return [(["run", circ, "--mode", "estimate", "--threads", "1", "--out", out], out)]
    if workload == "negativity-sweep":
        calls = []
        for kind in SWEEP_KINDS:
            out = os.path.join(work, f"op{op_index}-{kind}.csv")
            calls.append((["negativity", "--d", str(D), "--kind", kind,
                           "--deltas", SWEEP_DELTAS, "--threads", "1", "--out", out], out))
        return calls
    raise ValueError(f"unknown workload {workload!r}")
