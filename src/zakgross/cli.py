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

import gc
import json
import math
import os
import sys
import tempfile
from types import SimpleNamespace

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
from .wigner import NEGATIVITY_TOL, SEED, SEED_LIMIT, RealisticFactor


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
    result = run_circuit(spec, args.mode, seed=args.seed, n_samples=args.samples)
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
        raise ValueError(f"must be a positive finite number, got {text}")
    return val


def _deltas(text: str) -> list:
    """A flag type: comma-separated floats, at least one, else a usage error."""
    deltas = [float(tok) for tok in text.split(",") if tok.strip()]
    if not deltas:
        raise ValueError(f"must list at least one value, got {text!r}")
    return deltas


def _int_at_least(low: int):
    """A flag type: a decimal integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        if not text.lstrip("+-").isdecimal() or int(text) < low:
            raise ValueError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _seed(text: str) -> int:
    """A flag type: an integer in [0, 2^64), the seeds SplitMix64 keys on, else a usage error."""
    seed = _int_at_least(0)(text)
    if seed >= SEED_LIMIT:
        raise ValueError(f"must be an integer >= 0 and below 2^64, got {text!r}")
    return seed


def _one_of(*choices: str):
    """A flag type: one of the given words, else a usage error."""
    def parse(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise ValueError(f"invalid choice: {text!r} (choose from {listed})")
        return text

    return parse


REQUIRED = object()  # the default of a flag that must be given
COMMON = {
    "--threads": (_int_at_least(1), 1, "kept for existing command lines; selects nothing"),
    "--out": (str, None, "output file (default stdout)"),
}
SEEDED = {**COMMON, "--seed": (_seed, None, "override RNG seed")}
# name -> (help, {positional: help}, {flag: (type, default or REQUIRED, help)}).
# main calls the module's _cmd_<name>, looked up at call time so that a
# wrapper installed after import is the one that runs.
COMMANDS = {
    "run": ("execute a circuit JSON", {"circuit": "path to a zakgross-circuit/1 JSON file"}, {
        **SEEDED,
        "--mode": (_one_of("exact", "sample", "estimate"), "exact", "exact, sample or estimate"),
        "--samples": (_int_at_least(1), SAMPLES, "draw count for sample mode"),
    }),
    "wigner": ("tabulate a single-mode Wigner function", {}, {
        **COMMON,
        "--d": (int, 3, "qudit dimension"),
        "--kind": (_one_of("logical", "phase_state"), "logical", "logical or phase_state"),
        "--j": (int, None, "logical index (--kind logical; default 0)"),
        "--delta": (float, REQUIRED, "squeezing"),
        "--grid": (_int_at_least(1), 81, "points per axis"),
    }),
    "negativity": ("negativity sweep over squeezing", {}, {
        **COMMON,
        "--d": (int, 3, "qudit dimension"),
        "--kind": (_one_of("logical_0", "phase_state"), "logical_0", "logical_0 or phase_state"),
        "--deltas": (_deltas, REQUIRED, "comma-separated squeezing values"),
        "--tol": (_positive_tol, NEGATIVITY_TOL, "integral tolerance"),
    }),
    "decompose": ("factor a symplectic matrix into gates",
                  {"matrix": "JSON file with a 'matrix' key"}, COMMON),
    "verify": ("run the oracle-agreement suite", {}, SEEDED),
}


def _usage(command=None) -> str:
    if command is None:
        return f"usage: zakgross [-h] {{{','.join(COMMANDS)}}} ..."
    _, positionals, flags = COMMANDS[command]
    words = [f"{flag} {flag[2:].upper()}" if default is REQUIRED else f"[{flag} {flag[2:].upper()}]"
             for flag, (_, default, _) in flags.items()]
    return " ".join([f"usage: zakgross {command} [-h]", *words, *positionals])


def _print_help(command=None):
    if command is None:
        about = "Phase-space simulator for encoded qudit Clifford circuits."
        rows = [(name, spec[0]) for name, spec in COMMANDS.items()]
    else:
        about, positionals, flags = COMMANDS[command]
        rows = list(positionals.items())
        for flag, (_, default, text) in flags.items():
            if default is REQUIRED:
                text += " (required)"
            elif default is not None:
                text += f" (default {default})"
            rows.append((f"{flag} {flag[2:].upper()}", text))
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(name) for name, _ in rows)
    print("\n".join([_usage(command), "", about, ""] + [f"  {n:<{width}}  {t}" for n, t in rows]))
    raise SystemExit(0)


def _fail(command, message: str):
    prog = "zakgross" if command is None else f"zakgross {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _is_flag(arg: str) -> bool:
    """Whether arg is an option word; '-', a negative number or a spaced string is a value."""
    if not arg.startswith("-") or arg == "-" or " " in arg:
        return False
    return arg.startswith("--") or not arg[1:].replace(".", "", 1).isdecimal()


def parse_args(argv):
    """The command and its values, read from argv by the COMMANDS table.

    Takes `--flag value`, `--flag=value`, and a unique prefix of a flag
    when no flag matches exactly; the last of repeated flags wins. A usage
    error prints the usage line and exits 2; -h or --help prints the help
    and exits 0.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--h", "--he", "--hel", "--help"):
        _print_help()
    if command not in COMMANDS:
        _fail(None, "the following arguments are required: command" if command is None else
              f"argument command: invalid choice: {command!r} (choose from "
              f"{', '.join(map(repr, COMMANDS))})")
    _, positionals, flags = COMMANDS[command]
    values = {flag[2:]: default for flag, (_, default, _) in flags.items()}
    extra, rest = [], list(argv[1:])
    while rest:
        arg = rest.pop(0)
        if not _is_flag(arg):
            extra.append(arg)
            continue
        word, eq, text = arg.partition("=")
        named = [word] if word in flags else [
            flag for flag in [*flags, "--help"] if word.startswith("--") and flag.startswith(word)]
        if word == "-h" or named == ["--help"]:
            _print_help(command)
        if len(named) != 1:
            _fail(command, f"ambiguous option: {word} could match {', '.join(named)}" if named
                  else f"unrecognized arguments: {arg}")
        flag, kind = named[0], flags[named[0]][0]
        if not eq:
            if not rest or _is_flag(rest[0]):
                _fail(command, f"argument {flag}: expected one argument")
            text = rest.pop(0)
        try:
            values[flag[2:]] = kind(text)
        except ValueError as exc:
            message = f"invalid {kind.__name__} value: {text!r}" if kind in (int, float) else exc
            _fail(command, f"argument {flag}: {message}")
    missing = list(positionals)[len(extra):] + [
        flag for flag in flags if values[flag[2:]] is REQUIRED]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if len(extra) > len(positionals):
        _fail(command, f"unrecognized arguments: {' '.join(extra[len(positionals):])}")
    return SimpleNamespace(command=command, **values, **dict(zip(positionals, extra)))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    command = globals()[f"_cmd_{args.command}"]  # read at call time, so a wrapper set later runs
    # what is alive at entry lives until exit: collections in the command scan
    # only the command's own objects, and nothing stays frozen for the caller
    gc.freeze()
    try:
        return command(args)
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
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
