"""Spans around calls into the zakgross layers, recorded from outside.

`install` wraps the public functions the per-layer metrics need, in every
zakgross module that holds a reference to them, so the program itself
carries no tracing code. Each call records a span (id, parent id, op id,
name, start, end) plus the counts named for that function. Spans stay in
memory until the op ends; `layer_metrics` turns one op's spans into the
per-layer metrics.
"""
from __future__ import annotations

import functools
import math
import sys
import time


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans = []
        self._stack = []
        self.last_map = None  # result of the latest AffineMap.then_affine

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "op": self.op_id, "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(self, args, kwargs, result))
            return result

        return traced


def _points(arr) -> int:
    shape = getattr(arr, "shape", None)
    if shape is None:
        return len(arr)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _keep_map(tracer, args, kwargs, result):
    tracer.last_map = result
    return {}


def _support(tracer, args, kwargs, result):
    return {"support_points": len(result[1])}


def _grid(tracer, args, kwargs, result):
    return {"points": int(result.size)}


def _pointwise(tracer, args, kwargs, result):
    return {"points": _points(args[1])}


def _box_terms(tracer, args, kwargs, result):
    gamma, offsets = args[0], args[2]
    m = len(gamma)
    batch = math.prod(getattr(offsets, "shape", (len(offsets),))) // m
    return {"box_terms": (2 * result[2] + 1) ** m * max(batch, 1)}


def _estimate(tracer, args, kwargs, result):
    return {"samples": int(result.n_samples)}


def _traced_sampler(tracer, original):
    """WignerState.sampler whose returned draw callable is traced as well."""
    from zakgross.wigner import RealisticFactor

    def sampler(state, *args, **kwargs):
        draw = original(state, *args, **kwargs)
        realistic = sum(isinstance(f, RealisticFactor) for f in state.factors)

        def drawn(tr, a, kw, res):
            return {"accepted": int(a[0]) * realistic, "factors": realistic}

        return tracer.wrap("wigner.draw", draw, drawn)

    return sampler


def _targets():
    """(span name, owner, attribute, counts) for every traced function."""
    from zakgross import cli, circuit_io, estimator, measure, quadrature, theta, wigner
    from zakgross.symplectic import AffineMap
    from zakgross.wigner import RealisticFactor, WignerState

    return [
        ("circuit_io.parse_circuit", circuit_io, "parse_circuit", None),
        ("circuit_io.build_state", circuit_io, "build_state", None),
        ("symplectic.then_affine", AffineMap, "then_affine", _keep_map),
        ("symplectic.push_lattice_half", AffineMap, "push_lattice_half", None),
        ("symplectic.push_float", AffineMap, "push_float", None),
        ("wigner.lattice_support", WignerState, "lattice_support", _support),
        ("wigner.negativity", RealisticFactor, "negativity", None),
        ("wigner.sampler", WignerState, "sampler", None),
        ("wigner.factor_wigner", RealisticFactor, "wigner", _pointwise),
        ("measure.exact_probabilities", measure, "exact_probabilities", None),
        ("theta.wigner_theta_grid", theta, "wigner_theta_grid", _grid),
        ("theta.wigner_theta", theta, "wigner_theta", _pointwise),
        ("theta.siegel_theta_batch", theta, "siegel_theta_batch", _box_terms),
        ("estimator.estimate", estimator, "estimate", _estimate),
        ("quadrature.integrate_bins_x", quadrature, "integrate_bins_x", None),
        ("cli.write_atomic", cli, "write_atomic", None),
    ]


def install(tracer: Tracer) -> None:
    """Replace each target, and every module-level alias of it, by a wrapper."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "zakgross" or name.startswith("zakgross.")]
    for name, owner, attr, counts in _targets():
        original = getattr(owner, attr)
        if name == "wigner.sampler":
            original = _traced_sampler(tracer, original)
        wrapped = tracer.wrap(name, original, counts)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)


# ---- per-layer metrics of one op ---------------------------------------------

def _dur(span) -> float:
    return span["end"] - span["start"]


def self_time(span, children) -> float:
    """Span duration minus the part of it its child spans cover."""
    covered, last = 0.0, span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], last), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            last = hi
    return _dur(span) - covered


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, s_entry_bits: int = 0) -> dict:
    """Per-layer metrics of one op from its spans (0 where a layer is idle)."""
    by_name = {}
    children = {}
    index = {s["id"]: s for s in spans}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def total(name, key=None):
        group = by_name.get(name, [])
        return sum(s.get(key, 0) for s in group) if key else sum(_dur(s) for s in group)

    def under(span_name, ancestor):
        """Spans called span_name with an ancestor called ancestor."""
        out = []
        for s in by_name.get(span_name, []):
            p = s["parent"]
            while p is not None and index[p]["name"] != ancestor:
                p = index[p]["parent"]
            if p is not None:
                out.append(s)
        return out

    gates = by_name.get("symplectic.then_affine", [])
    negs = by_name.get("wigner.negativity", [])
    grid_s, grid_pts = total("theta.wigner_theta_grid"), total("theta.wigner_theta_grid", "points")
    point_s, point_n = total("theta.wigner_theta"), total("theta.wigner_theta", "points")
    draw_s = total("wigner.draw")
    accepted = total("wigner.draw", "accepted")
    draws = by_name.get("wigner.draw", [])
    factors = max((s.get("factors", 0) for s in draws), default=0)
    proposals = sum(s["points"] for s in under("wigner.factor_wigner", "wigner.draw"))
    est_s, samples = total("estimator.estimate"), total("estimator.estimate", "samples")
    return {
        "circuit_io.parse_s": total("circuit_io.parse_circuit"),
        "circuit_io.build_state_s": total("circuit_io.build_state"),
        "symplectic.gates": len(gates),
        "symplectic.gate_ms": 1e3 * sum(map(_dur, gates)) / len(gates) if gates else 0.0,
        "symplectic.s_entry_bits": s_entry_bits,
        "symplectic.push_lattice_s": total("symplectic.push_lattice_half"),
        "symplectic.push_float_s": total("symplectic.push_float"),
        "wigner.support_points": total("wigner.lattice_support", "support_points"),
        "wigner.lattice_support_s": total("wigner.lattice_support"),
        "measure.exact_s": total("measure.exact_probabilities"),
        "measure.exact_self_s": sum(self_time(s, children.get(s["id"], []))
                                    for s in by_name.get("measure.exact_probabilities", [])),
        "wigner.negativity_s": sum(map(_dur, negs)),
        "wigner.negativity_grid_calls": (len(under("theta.wigner_theta_grid", "wigner.negativity"))
                                         / len(negs) if negs else 0.0),
        "theta.grid_calls": len(by_name.get("theta.wigner_theta_grid", [])),
        "theta.grid_points": grid_pts,
        "theta.grid_s": grid_s,
        "theta.grid_points_per_s": _rate(grid_pts, grid_s),
        "theta.point_evals": point_n,
        "theta.point_s": point_s,
        "theta.points_per_s": _rate(point_n, point_s),
        "theta.box_terms_computed": total("theta.siegel_theta_batch", "box_terms"),
        "wigner.sampler_build_s": total("wigner.sampler"),
        "wigner.draw_s": draw_s,
        "wigner.proposals": proposals,
        "wigner.accepted": accepted,
        "wigner.acceptance": accepted / proposals if proposals else 0.0,
        "wigner.accepted_per_s_per_factor": _rate(accepted / factors, draw_s) if factors else 0.0,
        "estimator.estimate_s": est_s,
        "estimator.samples": samples,
        "estimator.samples_per_s": _rate(samples, est_s),
        "estimator.self_s": sum(self_time(s, children.get(s["id"], []))
                                for s in by_name.get("estimator.estimate", [])),
        "cli.write_s": total("cli.write_atomic"),
    }
