"""Circuit documents: JSON schema, validation, state building, and runs.

Schema "zakgross-circuit/1" (all keys required unless noted):

    {
      "format": "zakgross-circuit/1",
      "d": 3, "n": 2,
      "inputs": [
        {"ideal_logical": 0},
        {"ideal_table": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]},
        {"realistic": {"kind": "logical", "j": 0, "delta": 0.25}},
        {"realistic": {"kind": "phase_state", "delta": 0.25}}
      ],
      "ops": [
        {"gate": "F", "modes": [0]},
        {"gate": "SUM", "modes": [0, 1]},
        {"gate": "symplectic", "matrix": [[...2n x 2n ints...]]},
        {"gate": "displace", "c": [1, 0, 0.5, 0]}
      ],
      "measurement": {"modes": [0], "K": 3},
      "estimator": {"epsilon": 0.05, "delta_fail": 0.1, "seed": 7}   // optional, 0 <= seed < 2^64
    }

ideal_table entries are numbers or [re, im] pairs. Displacements are in
units of ell. A key the schema does not name is an error. Validation walks
the whole document and reports every problem with its JSON path before
giving up.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import estimator as est_mod
from .measure import MeasurementSpec, binner, exact_probabilities
from .qudit import GATE_NAMES, CodeParams, Gate, is_integer
from .symplectic import IntSymplectic
from .theta import CodeState
from .wigner import (
    NEGATIVITY_TOL, SEED, SEED_LIMIT, IdealFactor, RealisticFactor, WignerState, sample_blocks,
)

FORMAT_TAG = "zakgross-circuit/1"
RESULT_TAG = "zakgross-result/1"
SAMPLES = 10_000  # sample-mode draws unless a run asks for another count
TOP_KEYS = ("format", "d", "n", "inputs", "ops", "measurement", "estimator")
OP_FIELD = {"symplectic": "matrix", "displace": "c"}  # an op's key besides gate; a gate's is modes


class SchemaError(ValueError):
    """Invalid circuit document; .errors lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    params: CodeParams
    inputs: tuple  # one IdealFactor or RealisticFactor per mode
    ops: tuple  # each a Gate, an IntSymplectic or a displacement tuple of 2n reals
    measurement: MeasurementSpec
    estimator: dict | None


def _reject_non_finite(name: str):
    # json.loads accepts NaN, Infinity and -Infinity; none is a valid number here
    raise SchemaError([f"at $: non-finite number {name} is not allowed"])


def _finite_float(text: str) -> float:
    # a literal such as 1e400 overflows to inf without being NaN or Infinity
    val = float(text)
    if not math.isfinite(val):
        _reject_non_finite(text)
    return val


def _is_number(x) -> bool:
    # JSON true and false load as bool, a subclass of int; neither is a number
    return is_integer(x) or isinstance(x, float)


def _reject_unknown(obj: dict, known, path: str, err):
    for key in obj:
        if key not in known:
            err(f"{path}.{key}", f"unknown key (expected one of {', '.join(known)})")


def parse_circuit(text: str) -> CircuitSpec:
    try:
        doc = json.loads(
            text, parse_constant=_reject_non_finite, parse_float=_finite_float
        )
    except json.JSONDecodeError as exc:
        raise SchemaError([f"at $: not valid JSON ({exc.msg} at line {exc.lineno})"])
    errors = []

    def err(path, msg):
        errors.append(f"at {path}: {msg}")

    if not isinstance(doc, dict):
        raise SchemaError(["at $: document must be a JSON object"])
    _reject_unknown(doc, TOP_KEYS, "$", err)
    if doc.get("format") != FORMAT_TAG:
        err("$.format", f"expected {FORMAT_TAG!r}, got {doc.get('format')!r}")

    d = doc.get("d")
    n = doc.get("n")
    if not is_integer(d) or d < 3:
        err("$.d", f"must be an odd integer >= 3, got {d!r}")
        d = 3
    elif d % 2 == 0:
        err("$.d", "d must be odd")
        d = 3
    if not is_integer(n) or n < 1:
        err("$.n", f"must be a positive integer, got {n!r}")
        n = 1
    params = CodeParams(d, n)

    inputs = _parse_inputs(doc.get("inputs"), params, err)
    ops = _parse_ops(doc.get("ops"), params, err)
    measurement = _parse_measurement(doc.get("measurement"), params, err)
    est = _parse_estimator(doc.get("estimator"), err)

    if errors:
        raise SchemaError(errors)
    # a series may overflow (exit 3), so none is built before the document is valid (exit 2)
    factors = tuple(RealisticFactor(x) if isinstance(x, CodeState) else x for x in inputs)
    return CircuitSpec(params, factors, tuple(ops), measurement, est)


def _parse_inputs(raw, params, err):
    """One IdealFactor or (still unbuilt) CodeState per mode."""
    out = []
    if not isinstance(raw, list) or len(raw) != params.n:
        err("$.inputs", f"must be a list with one entry per mode (n={params.n})")
        return out
    d = params.d
    for i, item in enumerate(raw):
        path = f"$.inputs[{i}]"
        if not isinstance(item, dict) or len(item) != 1:
            err(path, "must be an object with exactly one input key")
            continue
        (key, val), = item.items()
        if key == "ideal_logical":
            try:
                out.append(IdealFactor.logical(d, val))
            except ValueError as exc:
                err(f"{path}.ideal_logical", str(exc))
        elif key == "ideal_table":
            rho = _parse_complex_matrix(val, d, f"{path}.ideal_table", err)
            if rho is not None:
                try:
                    out.append(IdealFactor.from_density_matrix(CodeParams(d, 1), rho))
                except ValueError as exc:
                    err(f"{path}.ideal_table", str(exc))
        elif key == "realistic":
            state = _parse_realistic(val, d, f"{path}.realistic", err)
            if state is not None:
                out.append(state)
        else:
            err(path, f"unknown input key {key!r}")
    return out


def _parse_complex_matrix(val, d, path, err):
    if not isinstance(val, list) or len(val) != d:
        err(path, f"must be a {d} x {d} matrix")
        return None
    rho = np.zeros((d, d), dtype=complex)
    for r, row in enumerate(val):
        if not isinstance(row, list) or len(row) != d:
            err(f"{path}[{r}]", f"must be a row of {d} entries")
            return None
        for c, entry in enumerate(row):
            if _is_number(entry):
                rho[r, c] = entry
            elif (
                isinstance(entry, list)
                and len(entry) == 2
                and all(_is_number(x) for x in entry)
            ):
                rho[r, c] = complex(entry[0], entry[1])
            else:
                err(f"{path}[{r}][{c}]", "entries must be numbers or [re, im]")
                return None
    return rho


def _parse_realistic(val, d, path, err):
    if not isinstance(val, dict):
        err(path, "must be an object with kind/delta")
        return None
    _reject_unknown(val, ("kind", "delta", "j"), path, err)
    kind = val.get("kind")
    delta = val.get("delta")
    if not _is_number(delta) or not 0 < delta < 2:
        err(f"{path}.delta", f"must be a number in (0, 2), got {delta!r}")
        return None
    if kind == "logical":
        try:
            return CodeState.logical(d, val.get("j"), float(delta))
        except ValueError as exc:
            err(f"{path}.j", str(exc))
            return None
    if kind == "phase_state":
        if "j" in val:
            err(f"{path}.j", "applies only to kind 'logical'")
            return None
        return CodeState.phase_state(d, float(delta))
    err(f"{path}.kind", f"must be 'logical' or 'phase_state', got {kind!r}")
    return None


def _parse_ops(raw, params, err):
    out = []
    if raw is None:
        err("$.ops", "missing (use [] for no gates)")
        return out
    if not isinstance(raw, list):
        err("$.ops", "must be a list")
        return out
    n = params.n
    gates = {}  # (tag, modes) -> its valid Gate, for modes given as exact ints

    def at(field, msg):  # op i's JSON path is built only when an error is reported there
        err(f"$.ops[{i}]{field}", msg)

    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "gate" not in item:
            at("", "must be an object with a 'gate' key")
            continue
        tag = item["gate"]
        if not isinstance(tag, str):
            at(".gate", f"must be a string, got {tag!r}")
            continue
        if len(item) > 2:  # a valid op has exactly two keys, so only a longer one is examined
            _reject_unknown(item, ("gate", OP_FIELD.get(tag, "modes")), f"$.ops[{i}]", err)
        if tag in GATE_NAMES:
            modes = item.get("modes")
            # only exact ints key the cache, so true (a bool) never matches 1
            key = ((tag, tuple(modes)) if type(modes) is list and all(type(m) is int for m in modes)
                   else None)
            gate = gates.get(key)
            if gate is None:
                try:  # Gate checks the modes' type, sign, count and distinctness
                    gate = Gate(tag, modes)
                except ValueError as exc:
                    at(".modes", str(exc))
                    continue
                if max(gate.modes) >= n:
                    at(".modes", f"mode indices must lie in [0, {n})")
                    continue
                if key is not None:
                    gates[key] = gate
            out.append(gate)
        elif tag == "symplectic":
            mat = item.get("matrix")
            if not isinstance(mat, list):
                at(".matrix", "must be a 2n x 2n integer matrix")
                continue
            try:
                arr = np.array(mat, dtype=object)
                if arr.shape != (2 * n, 2 * n):
                    raise ValueError(f"shape {arr.shape}, expected {(2*n, 2*n)}")
                out.append(IntSymplectic(arr))
            except ValueError as exc:
                at(".matrix", str(exc))
        elif tag == "displace":
            c = item.get("c")
            if (
                not isinstance(c, list)
                or len(c) != 2 * n
                or not all(_is_number(x) for x in c)
            ):
                at(".c", f"must be a list of 2n = {2*n} numbers")
                continue
            out.append(tuple(c))
        else:
            at(".gate", f"unknown gate tag {tag!r}")
    return out


def _parse_measurement(raw, params, err):
    fallback = MeasurementSpec((0,), params.d)
    if not isinstance(raw, dict):
        err("$.measurement", "must be an object with modes and K")
        return fallback
    _reject_unknown(raw, ("modes", "K"), "$.measurement", err)
    modes = raw.get("modes")
    k = raw.get("K")
    if not isinstance(modes, list) or not all(is_integer(m) for m in modes):
        err("$.measurement.modes", "must be a list of integers")
        return fallback
    if any(not 0 <= m < params.n for m in modes):
        err("$.measurement.modes", f"mode indices must lie in [0, {params.n})")
        return fallback
    if not is_integer(k) or k < 1:
        err("$.measurement.K", f"must be a positive integer, got {k!r}")
        return fallback
    try:
        return MeasurementSpec(modes, k)
    except ValueError as exc:
        err("$.measurement", str(exc))
        return fallback


def _parse_estimator(raw, err):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        err("$.estimator", "must be an object")
        return None
    _reject_unknown(raw, ("epsilon", "delta_fail", "seed"), "$.estimator", err)
    eps = raw.get("epsilon")
    delta = raw.get("delta_fail")
    seed = raw.get("seed", SEED)
    ok = True
    if not _is_number(eps) or not 0 < eps < 1:
        err("$.estimator.epsilon", f"must be a number in (0, 1), got {eps!r}")
        ok = False
    if not _is_number(delta) or not 0 < delta < 1:
        err("$.estimator.delta_fail", f"must be a number in (0, 1), got {delta!r}")
        ok = False
    if not is_integer(seed) or not 0 <= seed < SEED_LIMIT:
        err("$.estimator.seed", f"must be a non-negative integer below 2^64, got {seed!r}")
        ok = False
    if not ok:
        return None
    return {"epsilon": float(eps), "delta_fail": float(delta), "seed": seed}


def build_state(spec: CircuitSpec) -> WignerState:
    """The input product state with every op applied, composed at once."""
    return WignerState.from_factors(spec.params, spec.inputs).apply_ops(spec.ops)


def run(
    spec: CircuitSpec,
    mode: str,
    seed: int | None = None,
    n_samples: int = SAMPLES,
) -> dict:
    """Execute a parsed circuit and return a result document (JSON-ready)."""
    if mode not in ("exact", "sample", "estimate"):
        raise ValueError(f"mode must be exact, sample, or estimate, got {mode!r}")
    state = build_state(spec)
    mspec = spec.measurement
    base = {
        "format": RESULT_TAG,
        "mode": mode,
        "d": spec.params.d,
        "n": spec.params.n,
        "measured_modes": list(mspec.measured_modes),
        "K": mspec.K,
    }
    if mode == "exact":
        probs = exact_probabilities(state, mspec)
        base["probabilities"] = probs.tolist()
        return base
    if mode == "sample":
        if n_samples > est_mod.MAX_SAMPLES:
            raise est_mod.InfeasiblePlan(
                f"sample count {n_samples} exceeds the cap {est_mod.MAX_SAMPLES}")
        negativity = state.negativity()
        if negativity > 1.0 + 1e-9:
            raise ValueError(
                "sample mode draws outcomes directly and therefore requires a "
                "positive Wigner function (negativity = 1); this input has "
                f"negativity {negativity:.6g}. Use estimate mode instead."
            )
        use_seed = SEED if seed is None else seed
        # frequencies of n draws err by about 1 / sqrt(n)
        bins = binner(state, mspec, 1 / math.sqrt(max(n_samples, 1)))
        blocks = sample_blocks(state, use_seed, n_samples, bins.push)
        joint = np.concatenate([idx for idx, _ in blocks])
        shape = mspec.table_shape()
        outcomes = np.stack(np.unravel_index(joint, shape), axis=-1)
        counts = np.bincount(joint, minlength=math.prod(shape)).reshape(shape)
        base.update(
            {
                "seed": use_seed,
                "n_samples": int(n_samples),
                "outcomes": outcomes.tolist(),
                "counts": counts.tolist(),
                "frequencies": (counts / n_samples).tolist(),
            }
        )
        return base
    # estimate
    if spec.estimator is None:
        raise ValueError(
            "estimate mode needs an 'estimator' section (epsilon, delta_fail, seed)"
        )
    est = spec.estimator
    use_seed = est["seed"] if seed is None else seed
    report = est_mod.estimate(state, mspec, est["epsilon"], est["delta_fail"], use_seed)
    base.update(report.to_dict())
    return base


def negativity_sweep(kind: str, deltas, d: int, tol: float = NEGATIVITY_TOL) -> list:
    """Rows (delta, negativity, log negativity) for one input family."""
    if kind not in ("logical_0", "phase_state"):
        raise ValueError(f"kind must be logical_0 or phase_state, got {kind!r}")
    rows = []
    for delta in map(float, deltas):
        if kind == "logical_0":
            state = CodeState.logical(d, 0, delta)
        else:
            state = CodeState.phase_state(d, delta)
        m = RealisticFactor(state).negativity(tol)
        rows.append((delta, m, float(np.log(m))))
    return rows


def sweep_csv(rows) -> str:
    lines = ["delta,negativity,log_negativity"]
    for delta, m, logm in rows:
        lines.append(f"{delta:.6g},{m:.12g},{logm:.12g}")
    return "\n".join(lines) + "\n"
