"""Benchmark of the torsion13 verifier, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs its CLI
commands through `torsion13.cli.main(argv)` in a fresh child interpreter,
one child at a time, and every command is checked against the frozen
answers in gate.py.  With --trace 0 the run reports the end-to-end metrics
of BENCHMARK.json, with pass timings scaled to a quiet host by the probe of
probe.py; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics.  The last line of stdout is the result
object; the line before it, also written to bench/out/, is the run record
with every answer.  See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import gate
from probe import PERIOD_S, QUIET_S
from tracing import COUNT, TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("verify_all", "point_search", "cubic_fields")
SEARCH_CURVES = ("d1", "d2", "d2min", "x")
SEARCH_HEIGHT = 150
FAMILY_HEIGHT = 20
FAMILY_SAMPLES = 96
FINGERPRINT_BOUND = 5000
SETUP_SAMPLES_PER_PASS = 3
LOCAL_PROBES = 5  # fewest probes whose mean scales one command's latency
# a hung pass ends the run; with --seconds 40 the run still exits within 180 s
CHILD_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _rationals(height: int) -> list:
    """Nonzero p/q in lowest terms with |p|, q <= height, in a fixed order."""
    return [Fraction(sign * p, q) for q in range(1, height + 1)
            for p in range(1, height + 1) if gcd(p, q) == 1 for sign in (-1, 1)]


def candidate_count(height: int) -> int:
    """Number of u of height <= height a point search tries, 0 included."""
    return 1 + len(_rationals(height))


def workload_commands(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "verify_all":
        return [["verify-all", "--json-only"]]
    if workload == "point_search":
        curves = list(SEARCH_CURVES)
        rng.shuffle(curves)
        return [["search", "--curve", curve, "--height", str(SEARCH_HEIGHT), "--json-only"]
                for curve in curves]
    parameters = rng.sample(_rationals(FAMILY_HEIGHT), FAMILY_SAMPLES)
    return [["family", "verify", "--t", f"{t.numerator}/{t.denominator}", "--json-only"]
            for t in parameters] + \
        [["sporadic", "verify", "--fingerprint-bound", str(FINGERPRINT_BOUND), "--json-only"]]


def is_latency_command(workload: str, argv: list) -> bool:
    """Commands whose latencies make verdict_p50_ms and verdict_p90_ms."""
    return workload != "cubic_fields" or argv[0] == "family"


def run_child(commands: list, trace: bool = False, spans_path: Path | None = None) -> dict:
    """Run one pass (or, with no commands, only set-up) in a fresh interpreter."""
    request = json.dumps({"commands": commands, "trace": trace,
                          "spans_path": str(spans_path) if spans_path else None})
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, "-s", str(BENCH / "child.py"), str(ROOT)],
                              input=request, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    reply = json.loads(proc.stdout)
    reply["setup_s"] = reply.pop("ready") - spawned
    return reply


def host_scale(reply: dict) -> float:
    """QUIET_S over the mean probe time of an untraced pass; a timing of the
    pass multiplied by it is the timing on a quiet host (see probe.py)."""
    if not reply["probe_s"]:
        raise BenchmarkError(f"a pass shorter than the probe period ({PERIOD_S} s)")
    return QUIET_S / statistics.fmean(reply["probe_s"])


def command_scale(reply: dict, result: dict) -> float:
    """QUIET_S over the mean time of the probes taken during a command, or of
    the LOCAL_PROBES nearest its middle when fewer fell within it: the host's
    speed changes within a pass, and the slowest commands show it most."""
    probes = list(zip(reply["probe_at"], reply["probe_s"]))
    during = [s for at, s in probes if result["start"] <= at <= result["end"]]
    if len(during) < LOCAL_PROBES:
        middle = (result["start"] + result["end"]) / 2
        nearest = sorted(probes, key=lambda probe: abs(probe[0] - middle))
        during = [s for _, s in nearest[:LOCAL_PROBES]]
    return QUIET_S / statistics.fmean(during)


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _stdout_bytes(results: list) -> int:
    # elapsed_ms is the only nondeterministic field; count it as 0
    text = "".join(r["stdout"] for r in results)
    return len(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text).encode())


def layer_metrics(reply: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    trace = reply["trace"]
    metrics = {}
    for _, _, name, kind in TARGETS:
        if kind == COUNT:
            metrics[name] = trace["counts"][name]
            continue
        stats = trace["spans"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in ("calls", "total_s", "self_s"):
            metrics[f"{name}.{key}"] = stats[key]
    derived = trace["derived"]
    pairs = derived["hyperelliptic.count_points.pairs"]
    candidates = sum(candidate_count(h) for h in derived.get("search_heights", []))
    evals = derived["fields.splitting_fingerprint.evals"]
    metrics.update({
        "hyperelliptic.count_points.pairs": pairs,
        "hyperelliptic.count_points.ns_per_pair":
            metrics["hyperelliptic.count_points.total_s"] / pairs * 1e9 if pairs else 0.0,
        "hyperelliptic.search_rational_points.candidates": candidates,
        "hyperelliptic.search_rational_points.hits":
            derived["hyperelliptic.search_rational_points.hits"],
        "hyperelliptic.search_rational_points.us_per_candidate":
            metrics["hyperelliptic.search_rational_points.total_s"] / candidates * 1e6
            if candidates else 0.0,
        "fields.splitting_fingerprint.evals": evals,
        "fields.splitting_fingerprint.ns_per_eval":
            metrics["fields.splitting_fingerprint.total_s"] / evals * 1e9 if evals else 0.0,
        "cli.reports": sum(r["stdout"].count('"check_id"') for r in reply["results"]),
        "cli.stdout_bytes": _stdout_bytes(reply["results"]),
    })
    return metrics


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Run passes for about `seconds`; returns (record, result)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commands = workload_commands(workload, seed)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(), "git_commit": git_commit(),
    }
    deadline = time.perf_counter() + seconds
    run_child([])  # warm-up: bytecode compilation and file cache, not measured
    passes = []
    while True:
        started = time.perf_counter()
        # set-up samples are spread over the run, and each is scaled by the
        # probe of the pass that follows it
        setup = [run_child([])["setup_s"] for _ in range(SETUP_SAMPLES_PER_PASS)]
        traced = trace and len(passes) % 2 == 1
        first_traced = traced and not any(p["traced"] for p in passes)
        spans_path = OUT / f"spans-{workload}-seed{seed}.json" if first_traced else None
        reply = run_child(commands, traced, spans_path)
        reply["traced"] = traced
        reply["duration_s"] = time.perf_counter() - started
        reply["setup_samples"] = setup + [reply["setup_s"]]
        passes.append(reply)
        next_traced = trace and len(passes) % 2 == 1
        same_kind = [p["duration_s"] for p in passes if p["traced"] == next_traced]
        next_cost = max(same_kind or [p["duration_s"] for p in passes])
        if len(passes) >= (2 if trace else 1) and time.perf_counter() + next_cost > deadline:
            break

    attempted = failed = 0
    errors = []
    for reply in passes:
        n, bad, answers, problems = gate.tally(reply["results"])
        attempted, failed = attempted + n, failed + bad
        errors.extend(problems)
        reply["answers"] = answers
    untraced = [p for p in passes if not p["traced"]]
    for reply in untraced:
        reply["scale"] = host_scale(reply)
    latencies = [(r["latency_s"] * 1000, command_scale(p, r)) for p in untraced
                 for r in p["results"] if is_latency_command(workload, r["argv"])]
    scaled_latencies = [ms * scale for ms, scale in latencies]
    wall = statistics.median(p["wall_s"] for p in untraced)
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in traced) / wall
        record["trace_absent"] = traced[0]["trace"]["absent"]
        record["trace_observer_errors"] = traced[0]["trace"]["observer_errors"]
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
        record["trace_counts_repeat"] = all(m[name] == per_pass[0][name]
                                            for m in per_pass for name in counts)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s * p["scale"] for p in untraced
                                         for s in p["setup_samples"]),
            "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in untraced),
            "verdict_p50_ms": statistics.median(scaled_latencies),
            "verdict_p90_ms": _p90(scaled_latencies),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "ok_frac": 1 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    record.update({
        "loadavg_end": os.getloadavg(),
        "setup_samples": sum(len(p["setup_samples"]) for p in passes),
        "latency_samples": len(latencies),
        # the scaled metrics as measured, before scaling
        "unscaled": {"setup_s": statistics.median(s for p in passes
                                                  for s in p["setup_samples"]),
                     "wall_s": wall,
                     "verdict_p50_ms": statistics.median(ms for ms, _ in latencies),
                     "verdict_p90_ms": _p90([ms for ms, _ in latencies])},
        "passes": [{"probe_samples": len(p["probe_s"]), "scale": p.get("scale"),
                    **{key: p[key] for key in ("traced", "wall_s", "cpu_s", "setup_s",
                                               "peak_rss_mb")}} for p in passes],
        "answers": passes[0]["answers"],
        "errors": errors,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torsion13" / "cli.py").is_file():
        print(f"error: no torsion13 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
