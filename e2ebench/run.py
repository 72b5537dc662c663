#!/usr/bin/env python3
"""End-to-end benchmark of the Arcade water-treatment analysis engine.

Run from the repository root:

    python3 e2ebench/run.py --workload paper --seed 1 --seconds 22 --trace 0

Builds the benchmark program (e2ebench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), then:

--trace 0  runs fresh processes one after another.  In each, the first
           operation is a set-up sample.  All but the last stop there; in the
           last, further operations run back to back (one client, closed
           loop) for the whole --seconds.  Prints every end-to-end metric.
--trace 1  runs one single-threaded traced process, prints every per-layer
           metric and writes the spans as Chrome trace-event JSON under
           $CARGO_TARGET_DIR/e2ebench-traces/.

Every operation's outputs are checked against e2ebench/references/; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exits non-zero without a result when the program cannot
be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "individual", "reduced", "modules")
# One set-up sample per fresh process: SETUP_MIN processes at least, more
# while the set-up-only ones have taken under SETUP_BUDGET_S, SETUP_MAX at
# most, so that a set-up of a tenth of a second gets as steady a median as
# one of several seconds.
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 3.0
THREADS = min(4, os.cpu_count() or 1)
# Runner and explorer threads per workload.  One thread where more buy
# little and only bring the scheduler of a shared host into the timings:
# paper's cells take about a millisecond each, and modules is serial but for
# exploring 8,129-state chains, which 4 threads did not make faster.
WORKLOAD_THREADS = {"paper": 1, "individual": THREADS, "reduced": THREADS, "modules": 1}
CHILD_TIMEOUT_S = 170

# Per-layer metrics printed with --trace 1, in output order, with units.
LAYER_UNITS = {
    "sweep.expand_s": "s", "sweep.export_s": "s", "sweep.export_bytes": "B",
    "compile.calls": "count", "compile.busy_s": "s", "compile.states": "count",
    "compile.transitions": "count", "compile.states_per_s": "1/s",
    "lint.busy_s": "s",
    "session.compile_hit_ratio": "ratio", "session.steady_hit_ratio": "ratio",
    "symmetry.states_full": "count", "symmetry.states_explored": "count",
    "lump.busy_s": "s", "lump.states_in": "count", "lump.states_out": "count",
    "steady.calls": "count", "steady.busy_s": "s",
    "transient.calls": "count", "transient.grid_points": "count",
    "transient.reliability_s": "s", "transient.survivability_s": "s",
    "transient.instantaneous_cost_s": "s", "transient.accumulated_cost_s": "s",
    "foxglynn.hits": "count", "foxglynn.misses": "count",
    "kernel.steps": "count", "kernel.left_ns_per_nnz": "ns", "kernel.right_ns_per_nnz": "ns",
    "kernel.bytes_per_step": "B", "kernel.gbytes_per_s": "GB/s",
    "kernel.flops_per_byte": "flop/B", "kernel.working_set_bytes": "B",
    "modules.translate_s": "s", "prism.write_s": "s", "prism.parse_s": "s",
    "prism.bytes": "B", "explore.busy_s": "s", "explore.states_per_s": "1/s",
    "csl.queries": "count", "csl.steady_s": "s", "csl.until_s": "s",
    "csl.reward_transient_s": "s",
    "memory.chain_bytes": "B",
    "bench.probe_s": "s",
    "trace.op_wall_s": "s", "trace.unattributed_s": "s",
    "trace.untraced_single_thread_s": "s", "trace.overhead_ratio": "ratio", "trace.ops": "count",
}

# Layer self times that, with trace.unattributed_s, sum to trace.op_wall_s.
SELF_TIMES = [name for name, unit in LAYER_UNITS.items()
              if unit == "s" and not name.startswith("trace.")]


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources next to e2ebench/; run from a full checkout")
    bdir = os.path.join(build_root(), "e2ebench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "arcade_e2e", "-j", str(THREADS)])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "arcade_e2e")


def run_child(binary, args):
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark process timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark process failed (exit %d): %s" % (proc.returncode, " ".join(args)))
    return json.loads(lines[-1])


def print_context(ctx):
    print("context: %s build, %s, nproc %d, %s, L2 %.1f MiB/core, L3 %.0f MiB, "
          "%d runner threads" % (
              ctx["build_type"], ctx["compiler"], ctx["nproc"], ctx["cpu_model"],
              ctx["l2_bytes"] / 2**20, ctx["l3_bytes"] / 2**20, ctx["threads"]))
    if ctx["build_type"] != "Release":
        fail("refusing to report from a %s build" % ctx["build_type"])


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); the median when that percentile would be below the
    50th (fewer than 20 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(binary, args):
    def process(seconds):
        return run_child(binary, [
            "measure", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--threads", str(WORKLOAD_THREADS[args.workload]),
            "--refs", os.path.join(HERE, "references")])

    runs = []
    start = time.monotonic()
    while len(runs) < SETUP_MIN - 1 or (
            len(runs) < SETUP_MAX - 1 and time.monotonic() - start < SETUP_BUDGET_S):
        runs.append(process(0.0))
    runs.append(process(args.seconds))
    print_context(runs[-1]["context"])
    samples = runs[-1]["samples"]
    if not samples:
        fail("every operation threw")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    setup = statistics.median(r["setup_s"] for r in runs)
    tail_value, tail_pct = tail(samples)
    metrics = {
        "setup_s": (setup, "s"),
        "sweep_p50_s": (statistics.median(samples), "s"),
        "sweep_tail_s": (tail_value, "s"),
        "results_per_s": (runs[-1]["results"] / sum(samples), "1/s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_kib"] for r in runs) / 1024.0, "MiB"),
    }
    beyond = 10 if tail_pct > 50.0 else len(samples) // 2
    notes = {
        "setup_s": "median of %d fresh processes: main() to the end of the first operation"
                   % len(runs),
        "sweep_p50_s": "median of %d operations after the set-up one, each on a fresh session"
                       % len(samples),
        "sweep_tail_s": "p%.1f of %d operations, %d beyond it" % (tail_pct, len(samples), beyond),
        "results_per_s": "result cells (modules: checked queries) per second of operation time",
        "peak_rss_mib": "peak resident set after the first operation, median of %d processes"
                        % len(runs),
    }
    for name, (value, unit) in metrics.items():
        print("%-14s %14.6g %-4s  %s" % (name, value, unit, notes[name]))
    print("%-14s %14.6g %-4s  %d failed of %d attempted operations" % (
        "error_rate", failed / attempted, "", failed, attempted))
    correct = failed == 0 and all(r["self_test"] for r in runs)
    return correct, attempted, failed, metrics


def trace(binary, args):
    out_dir = os.path.join(build_root(), "e2ebench-traces")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "%s-seed%d.json" % (args.workload, args.seed))
    run = run_child(binary, [
        "trace", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--refs", os.path.join(HERE, "references"),
        "--trace-out", trace_path])
    print_context(run["context"])
    raw = run["metrics"]
    if set(raw) != set(LAYER_UNITS):
        fail("per-layer metric set differs from LAYER_UNITS")
    metrics = {name: (raw[name], unit) for name, unit in LAYER_UNITS.items()}
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    ctx = run["context"]
    ws = raw["kernel.working_set_bytes"]
    level = ("L2" if ws <= ctx["l2_bytes"] else
             "L3" if ws <= ctx["l3_bytes"] else "DRAM")
    print("kernel bytes and flops are computed from array sizes, not measured; working set "
          "%.2f MiB against L2 %.1f MiB/core and L3 %.0f MiB: %s-resident" % (
              ws / 2**20, ctx["l2_bytes"] / 2**20, ctx["l3_bytes"] / 2**20, level))
    total = sum(raw[name] for name in SELF_TIMES)
    print("layer self times %.6f s + unattributed %.6f s = %.6f s; traced operation wall %.6f s"
          % (total, raw["trace.unattributed_s"], total + raw["trace.unattributed_s"],
             raw["trace.op_wall_s"]))
    print("tracing overhead: traced %.6f s / untraced single-thread %.6f s = %.4f" % (
        raw["trace.op_wall_s"] - raw["bench.probe_s"], raw["trace.untraced_single_thread_s"],
        raw["trace.overhead_ratio"]))
    print("trace written to " + os.path.relpath(trace_path, ROOT))
    correct = run["failed"] == 0 and run["self_test"]
    return correct, run["attempted"], run["failed"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    print("workload %s, seed %d, %.0f s, %s" % (
        args.workload, args.seed, args.seconds,
        "traced (single thread)" if args.trace else
        "set-up processes, the last one then a closed loop with one client, %d threads"
        % WORKLOAD_THREADS[args.workload]))
    correct, attempted, failed, metrics = (trace if args.trace else measure)(binary, args)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
