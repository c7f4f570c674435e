#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the binary, runs every workload at tiny size with tracing off and on,
and checks that:
  * each run passes its correctness gate and exits 0;
  * the end-to-end run prints exactly the end_to_end metrics of
    BENCHMARK.json, and the traced run exactly the per_layer metrics, each
    with its declared unit;
  * the traced run prints the same simulated-result checksum as the
    untraced run (the taps are passive) and writes a span file;
  * a checksum that does not match trips the gate: the run exits nonzero
    and reports correct=false.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

SECONDS = "0.5"


def invoke(workload, trace, extra=()):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    checksum = next((l.split()[-1] for l in lines
                     if l.startswith(f"checksum {workload} ")), None)
    return proc.returncode, json.loads(lines[-1]), checksum


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if not run.build():
        return 2

    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            print("FAIL:", what)

    for workload in run.WORKLOADS:
        checksums = {}
        for trace in (0, 1):
            extra = []
            trace_file = os.path.join(run.BUILD_DIR, "traces",
                                      f"selftest-{workload}.json")
            if trace:
                os.makedirs(os.path.dirname(trace_file), exist_ok=True)
                if os.path.exists(trace_file):
                    os.remove(trace_file)
                extra = ["--trace-out", trace_file]
            code, result, checksums[trace] = invoke(workload, trace, extra)
            tag = f"{workload} trace={trace}"
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{tag}: gate failed ({result})")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == expected[trace],
                   f"{tag}: metrics/units differ from BENCHMARK.json: "
                   f"missing {sorted(set(expected[trace]) - set(printed))}, "
                   f"extra {sorted(set(printed) - set(expected[trace]))}, "
                   f"units {[(k, printed[k], expected[trace][k]) for k in printed if k in expected[trace] and printed[k] != expected[trace][k]]}")
            if trace:
                expect(os.path.exists(trace_file), f"{tag}: no span file")
        expect(checksums[0] is not None and checksums[0] == checksums[1],
               f"{workload}: traced checksum {checksums[1]} != "
               f"untraced {checksums[0]}")
        print(f"{workload}: checksum {checksums[0]}")

        wrong = format(int(checksums[0] or "0", 16) ^ 1, "016x")
        code, result, _ = invoke(workload, 0, ["--expect-checksum", wrong])
        expect(code != 0 and not result["correct"] and result["failed"] >= 1,
               f"{workload}: mismatched checksum did not trip the gate")

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
