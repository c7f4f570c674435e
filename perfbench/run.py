#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a checkout. The first call configures and builds the
library and the perfbench binary from source into .bench_build/ (CMake,
Release); later calls only re-check the build. Build output goes to stderr,
so the last stdout line is always the benchmark's JSON result.

Workloads (see BENCHMARK.json for why each was chosen):
  sweep           paper Fig. 9-11 latency grid, 20 ExternalGraphRuntime runs
  serve-distinct  profile-bound solo QueryServer, every query its own source
  serve-churn     queue-bound solo QueryServer, 24 reused profiles
  fleet-churn     queue-bound 4-replica FleetServer under shedding and faults

--seed drives every generated input (graph and query stream); the same seed
gives the same inputs and the same simulated-result checksum, which each run
prints. --trace 1 reports the per-layer split instead of the end-to-end
metrics and writes the host-time spans to .bench_build/traces/. The simulated
model is not validated against hardware, so no accuracy figure is reported.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["sweep", "serve-distinct", "serve-churn", "fleet-churn"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_workload(workload, args, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--size", args.size]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{args.seed}.json")]
    if args.expect_checksum:
        cmd += ["--expect-checksum", args.expect_checksum]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(text):
    """The result object on the last stdout line, or None when there is none."""
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input (self-test only)")
    parser.add_argument("--expect-checksum", default="",
                        help="hex checksum the simulated results must match")
    args = parser.parse_args()

    if not build():
        return 2

    if args.workload != "all":
        code, out = run_workload(args.workload, args, args.trace)
        sys.stdout.write(out)
        if code == 0 and last_json(out) is None:
            return 1
        return code

    # Every workload in turn; the summary line folds their results, with
    # metrics named <workload>.<metric>.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_workload(workload, args, args.trace)
        sys.stdout.write(out)
        result = last_json(out)
        if code != 0 or result is None:
            summary["correct"] = False
        if result is None:
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
