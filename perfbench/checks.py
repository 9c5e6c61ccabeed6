"""Output checks. Each returns (ok, detail); a failed check fails its op.

The reference tables of ideal-exact and the negativity rows were recorded
by `record.py` into reference.json. The estimate reference and the 7-mode
oracle are computed here, with the zakgross library and its dense qudit
oracle, outside the timed ops.
"""
from __future__ import annotations

import json
import os

import numpy as np

import workloads as wl

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
SWEEP_TOL = 1e-6  # the negativity sweep's own --tol default
LOGICAL_LOGM = (2.9e-4, 3.1e-4)  # the paper's "order 3e-4" at delta = 0.25
PHASE_LOGM, PHASE_LOGM_TOL = 0.37, 0.01  # the phase state's negativity floor


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def read_table(path: str) -> np.ndarray:
    with open(path) as handle:
        return np.array(json.load(handle)["probabilities"], dtype=float)


def read_sweep(path: str) -> list:
    with open(path) as handle:
        lines = handle.read().split()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_ideal_table(table: np.ndarray, recorded) -> tuple:
    total, low = float(table.sum()), float(table.min())
    if abs(total - 1.0) > 1e-12:
        return False, f"table sums to {total!r}"
    if low < 0:
        return False, f"negative entry {low!r}"
    if recorded is None:
        return False, "no recorded reference table"
    dev = float(np.max(np.abs(table - np.asarray(recorded))))
    return dev <= 1e-12, f"max deviation from the recorded table {dev:.1e}"


def check_twin(table: np.ndarray, oracle: np.ndarray) -> tuple:
    dev = float(np.max(np.abs(table - oracle)))
    return dev <= 1e-9, f"{wl.TWIN_N}-mode twin vs dense oracle {dev:.1e}"


def check_estimate(table: np.ndarray, reference: np.ndarray) -> tuple:
    err = float(np.max(np.abs(table - reference)))
    return err <= wl.EPSILON, f"max bin error {err / wl.EPSILON:.3f} epsilon"


def check_sweep(rows: dict, recorded: dict) -> tuple:
    """rows and recorded map a kind to its [delta, M, log M] rows."""
    def log_m(kind, delta):
        return next((r[2] for r in rows.get(kind, []) if r[0] == delta), None)

    lg, ph = log_m("logical_0", 0.25), log_m("phase_state", 0.25)
    if lg is None or not LOGICAL_LOGM[0] <= lg <= LOGICAL_LOGM[1]:
        return False, f"logical_0 log M at 0.25 is {lg!r}"
    if ph is None or abs(ph - PHASE_LOGM) > PHASE_LOGM_TOL:
        return False, f"phase_state log M at 0.25 is {ph!r}"
    worst = 0.0
    for kind, want in recorded.items():
        got = rows.get(kind, [])
        if [r[0] for r in got] != [r[0] for r in want]:
            return False, f"{kind} deltas {[r[0] for r in got]}"
        worst = max([worst] + [abs(g[1] - w[1]) for g, w in zip(got, want)])
    return worst <= SWEEP_TOL, f"max negativity deviation from the record {worst:.1e}"


def twin_oracle(variant: int) -> np.ndarray:
    """Dense-oracle outcome table of a variant's 7-mode ideal-exact twin."""
    from zakgross.qudit import CodeParams, Gate, clifford_oracle_probabilities

    doc = wl.twin_circuit(variant)
    kets = [item["ideal_logical"] for item in doc["inputs"]]
    gates = [Gate(op["gate"], tuple(op["modes"])) for op in doc["ops"]]
    return clifford_oracle_probabilities(CodeParams(wl.D, wl.TWIN_N), kets, gates, wl.MEASURED)


def estimate_reference() -> np.ndarray:
    """Quadrature table of realistic-estimate with only its displacement.

    P and CZ are diagonal in position, so they leave the measured position
    statistics unchanged.
    """
    from zakgross.circuit_io import build_state, parse_circuit
    from zakgross.measure import quadrature_probabilities

    doc = wl.realistic_circuit(0, 0)
    doc["ops"] = [op for op in doc["ops"] if op["gate"] == "displace"]
    spec = parse_circuit(json.dumps(doc))
    return quadrature_probabilities(build_state(spec), spec.measurement)
