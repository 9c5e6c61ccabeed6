"""Command-line entry points.

Subcommands:
    run         execute a circuit JSON in exact, sample, or estimate mode
    wigner      tabulate a single-mode normalized Wigner function as CSV
    negativity  sweep negativity over squeezing values as CSV
    decompose   factor an integer symplectic matrix into generator gates
    verify      run the desk-scale oracle-agreement suite

Exit codes: 0 success, 1 verification failure, 2 schema/usage error,
3 numeric failure (series truncation, non-convergence, sampling abort, a
table too large to allocate), 4 infeasible estimation plan. Output files
are written atomically.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .circuit_io import (
    SAMPLES,
    SchemaError,
    negativity_sweep,
    parse_circuit,
    run as run_circuit,
    sweep_csv,
)
from .estimator import InfeasiblePlan
from .symplectic import IntSymplectic, decompose
from .theta import CodeState, cell_midpoints
from .wigner import NEGATIVITY_TOL, SEED, RealisticFactor


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    with open(args.circuit) as handle:
        spec = parse_circuit(handle.read())
    result = run_circuit(
        spec,
        args.mode,
        seed=args.seed,
        n_samples=args.samples,
        threads=args.threads,
    )
    _emit(args, json.dumps(result, indent=2) + "\n")
    return 0


def _make_state(args) -> CodeState:
    if args.kind == "logical":
        return CodeState.logical(args.d, 0 if args.j is None else args.j, args.delta)
    if args.j is not None:
        raise ValueError("--j applies only to --kind logical")
    return CodeState.phase_state(args.d, args.delta)


def _cmd_wigner(args) -> int:
    factor = RealisticFactor(_make_state(args))
    period = args.d * factor.state.ell
    xs = cell_midpoints(period, args.grid)
    vals = factor.wigner_grid(xs, xs)
    lines = ["eta_x,eta_z,wigner"]
    for i, x in enumerate(xs):
        for j, z in enumerate(xs):
            lines.append(f"{x:.12g},{z:.12g},{vals[i, j]:.12g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_negativity(args) -> int:
    _emit(args, sweep_csv(negativity_sweep(args.kind, args.deltas, args.d, tol=args.tol)))
    return 0


def _cmd_decompose(args) -> int:
    with open(args.matrix) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise SchemaError(["at $: expected an object with a 'matrix' key"])
    try:
        s = IntSymplectic(np.array(doc["matrix"], dtype=object))
    except ValueError as exc:
        raise SchemaError([f"at $.matrix: {exc}"])
    word = decompose(s)
    out = {
        "format": "zakgross-word/1",
        "n": s.n,
        "length": len(word),
        "gates": [{"gate": g.name, "modes": list(g.modes)} for g in word],
    }
    _emit(args, json.dumps(out, indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    from . import oracles

    seed = SEED if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    checks = [
        ("gottesman-knill agreement", oracles.check_gottesman_knill, (rng, (3,), (2,), 20)),
        ("theta vs direct-definition oracle", oracles.check_theta_oracle, ((0.3,), 5)),
        ("normalization (cell integral = 1)", oracles.check_normalization, ((0.3,),)),
        ("symplectic decompose round-trip", oracles.check_decompose_roundtrip, (rng, 20)),
        ("estimator calibration", oracles.check_calibration, (10, 0.1, 0.2)),
        ("realistic sampler law", oracles.check_realistic_sampler, ((0.5, 0.05), 0.05, 0.01, seed)),
    ]
    lines = []
    failed = 0
    for name, check, check_args in checks:
        try:
            ok, detail = check(*check_args)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failed += not ok
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if failed:
        lines.append(f"{failed} of {len(checks)} checks FAILED")
    else:
        lines.append(f"all {len(checks)} checks passed")
    _emit(args, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _positive_tol(text: str) -> float:
    val = float(text)
    if not (math.isfinite(val) and val > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return val


def _deltas(text: str) -> list:
    """An argparse type: comma-separated floats, at least one, else a usage error."""
    deltas = [float(tok) for tok in text.split(",") if tok.strip()]
    if not deltas:
        raise argparse.ArgumentTypeError(f"must list at least one value, got {text!r}")
    return deltas


def int_at_least(low: int):
    """An argparse type: a decimal integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        if not text.lstrip("+-").isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zakgross",
        description="Phase-space simulator for encoded qudit Clifford circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads", type=int_at_least(1), default=1, help="worker threads for sampling"
    )
    common.add_argument("--out", default=None, help="output file (default stdout)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int_at_least(0), default=None, help="override RNG seed")

    p_run = sub.add_parser("run", parents=[common, seeded], help="execute a circuit JSON")
    p_run.add_argument("circuit", help="path to a zakgross-circuit/1 JSON file")
    p_run.add_argument(
        "--mode", choices=["exact", "sample", "estimate"], default="exact"
    )
    p_run.add_argument(
        "--samples", type=int_at_least(1), default=SAMPLES, help="draw count for sample mode"
    )
    p_run.set_defaults(func=_cmd_run)

    p_wig = sub.add_parser(
        "wigner", parents=[common], help="tabulate a single-mode Wigner function"
    )
    p_wig.add_argument("--d", type=int, default=3)
    p_wig.add_argument("--kind", choices=["logical", "phase_state"], default="logical")
    p_wig.add_argument("--j", type=int, default=None, help="logical index (--kind logical; default 0)")
    p_wig.add_argument("--delta", type=float, required=True)
    p_wig.add_argument("--grid", type=int_at_least(1), default=81, help="points per axis")
    p_wig.set_defaults(func=_cmd_wigner)

    p_neg = sub.add_parser(
        "negativity", parents=[common], help="negativity sweep over squeezing"
    )
    p_neg.add_argument("--d", type=int, default=3)
    p_neg.add_argument(
        "--kind", choices=["logical_0", "phase_state"], default="logical_0"
    )
    p_neg.add_argument(
        "--deltas", type=_deltas, required=True, help="comma-separated squeezing values"
    )
    p_neg.add_argument(
        "--tol", type=_positive_tol, default=NEGATIVITY_TOL, help="integral tolerance"
    )
    p_neg.set_defaults(func=_cmd_negativity)

    p_dec = sub.add_parser(
        "decompose", parents=[common], help="factor a symplectic matrix into gates"
    )
    p_dec.add_argument("matrix", help="JSON file with a 'matrix' key")
    p_dec.set_defaults(func=_cmd_decompose)

    p_ver = sub.add_parser(
        "verify", parents=[common, seeded], help="run the oracle-agreement suite"
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        for line in exc.errors:
            print(f"schema error: {line}", file=sys.stderr)
        return 2
    except InfeasiblePlan as exc:
        print(f"infeasible plan: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"schema error: invalid JSON ({exc})", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
