"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/record.py

Runs every ideal-exact circuit variant and both negativity sweeps through
the CLI, checks each ideal table's sum and sign and its 7-mode twin against
the dense oracle (whose table must not be uniform, so that the twin check
has power), and writes perfbench/reference.json. Rerun only when a
change to the program is meant to change these outputs.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

import checks
import run
import workloads as wl


def _cli(argv: list) -> None:
    call = run.run_child([json.dumps(argv)])
    if call["exit"] != 0:
        raise SystemExit(f"{argv[0]} failed: {call['error']}")


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    work = os.path.join(run.OUT, "record")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "out.json")
    circ = os.path.join(work, "circuit.json")
    tables = {}
    for variant in range(wl.VARIANTS):
        oracle = checks.twin_oracle(variant)
        if np.allclose(oracle, 1.0 / oracle.size):
            raise SystemExit(f"variant {variant}: the twin's oracle table is uniform")
        for doc in (wl.twin_circuit(variant), wl.ideal_circuit(variant)):
            with open(circ, "w") as handle:
                json.dump(doc, handle)
            _cli(["run", circ, "--mode", "exact", "--threads", "1", "--out", out])
            table = checks.read_table(out)
            if doc["n"] == wl.TWIN_N:
                ok, detail = checks.check_twin(table, oracle)
            else:
                ok, detail = checks.check_ideal_table(table, table)
            if not ok:
                raise SystemExit(f"variant {variant}, {doc['n']} modes: {detail}")
        tables[str(variant)] = table.tolist()
        print(f"variant {variant}: recorded", flush=True)
    sweeps = {}
    for kind in wl.SWEEP_KINDS:
        csv = os.path.join(work, f"{kind}.csv")
        _cli(["negativity", "--d", str(wl.D), "--kind", kind, "--deltas", wl.SWEEP_DELTAS,
              "--threads", "1", "--out", csv])
        sweeps[kind] = checks.read_sweep(csv)
    ok, detail = checks.check_sweep(sweeps, sweeps)
    if not ok:
        raise SystemExit(f"negativity sweep: {detail}")
    with open(checks.REFERENCE, "w") as handle:
        json.dump({"ideal-exact": tables, "negativity-sweep": sweeps}, handle)
        handle.write("\n")
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
