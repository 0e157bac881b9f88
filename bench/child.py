"""One pass of a workload in a fresh interpreter.

Usage: python3 child.py <repo root>, with a JSON request on stdin:
{"commands": [argv, ...], "trace": bool, "spans_path": str | null}.
An empty command list only measures set-up.  An untraced pass runs under
the host-speed probe of probe.py, whose time is taken out of the pass's
wall, CPU and command times.  The reply is one JSON object on stdout.
Nothing but the standard library and torsion13 is imported before the
set-up clock stops, so set-up is the bare interpreter plus
`import torsion13.cli`.
"""

import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")
import torsion13.cli  # noqa: E402  (the import is what set-up measures)

# CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from probe import Probe  # noqa: E402  (beside this file, on sys.path)


def run_commands(commands: list, probe: Probe) -> list:
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        error = None
        exit_code = None
        probed = probe.total_s
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                exit_code = torsion13.cli.main(list(argv))
            except SystemExit as exc:
                exit_code = exc.code
            except Exception as exc:  # a raising command is a failed operation
                error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        latency = end - start - (probe.total_s - probed)
        results.append({"argv": argv, "exit_code": exit_code, "error": error,
                        "latency_s": latency, "start": start, "end": end,
                        "stdout": out.getvalue()})
    return results


def main():
    request = json.load(sys.stdin)
    reply = {"ready": READY}
    tracer = None
    if request["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        unwrapped = tracer.unwrapped_references()
        if unwrapped:
            sys.exit(f"tracing left unwrapped references: {unwrapped}")
    if request["commands"]:
        # a traced pass is not probed: the probe would run inside its spans
        probe = Probe()
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        with probe if tracer is None else contextlib.nullcontext():
            reply["results"] = run_commands(request["commands"], probe)
        reply["wall_s"] = time.perf_counter() - wall_start - probe.total_s
        reply["cpu_s"] = time.process_time() - cpu_start - probe.total_s
        reply["probe_s"] = probe.times
        reply["probe_at"] = probe.starts
        # ru_maxrss is in KiB on Linux
        reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        reply["trace"] = tracer.summary()
        if request.get("spans_path"):
            tracer.dump(request["spans_path"])
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
