"""One zakgross CLI invocation in a fresh interpreter, timed from inside.

    python3 child.py ROOT                                  # import only
    python3 child.py ROOT ARGV_JSON                        # one invocation
    python3 child.py ROOT ARGV_JSON OP_ID SPANS_OUT        # traced invocation

Prints one JSON line: setup_s (wall time of `import zakgross.cli`), main_s
and main_cpu_s (wall and CPU time of `zakgross.cli.main(argv)`), exit,
error_class, error and maxrss_mb (peak resident memory of this process). A traced invocation also
writes its spans, one JSON object per line, to SPANS_OUT.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time


def _catch_error_class(cli, caught: list) -> None:
    """Note the exception class a subcommand raises before main maps it to an exit code."""
    for name in [k for k in vars(cli) if k.startswith("_cmd_")]:
        command = getattr(cli, name)

        def noted(args, _command=command):
            try:
                return _command(args)
            except Exception as exc:
                caught.append(type(exc).__name__)
                raise

        setattr(cli, name, noted)


def main() -> int:
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import zakgross.cli as cli

    record = {"setup_s": time.perf_counter() - t0}
    if len(sys.argv) > 2:
        argv = json.loads(sys.argv[2])
        tracer = None
        if len(sys.argv) > 4:
            import tracer as tracing

            tracer = tracing.Tracer(sys.argv[3])
            tracing.install(tracer)
        caught = []
        _catch_error_class(cli, caught)
        err = io.StringIO()
        t1, c1 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an uncaught error exits 1 for a user too
                caught.append(type(exc).__name__)
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        record["main_s"] = time.perf_counter() - t1
        record["main_cpu_s"] = time.process_time() - c1
        record["exit"] = code
        record["error_class"] = caught[-1] if caught else None
        record["error"] = err.getvalue().strip().splitlines()[0] if err.getvalue().strip() else None
        if tracer is not None:
            final = tracer.last_map
            record["s_entry_bits"] = (max(abs(int(v)).bit_length() for v in final.S.mat.ravel())
                                      if final is not None else 0)
            with open(sys.argv[4], "w") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
