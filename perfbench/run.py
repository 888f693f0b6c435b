#!/usr/bin/env python3
"""KvService benchmark: build, self-test, run one workload, print metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hash_contended --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's libraries from the
checkout's sources) into $CARGO_TARGET_DIR or .bench_build/, runs the
arithmetic self-test, then one kvbench run. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics; the traced run's
Chrome trace and telemetry series land in <build dir>/out/<workload>/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A build or self-test failure
exits non-zero without printing it; a failed output check prints it with
"correct": false and exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("hash_contended", "mvcc_sharded", "mvcc_write_batch")
DEFAULT_SEED = 1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures once, then builds incrementally; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "kv_service.h")):
        fail(f"no repository sources under {ROOT}")
    build_dir = os.path.join(build_root, "perfbench")
    log = os.path.join(build_root, "build.log")
    os.makedirs(build_root, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "kvbench",
                  "kvbench_selftest", "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return build_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = build(build_root)
    selftest = subprocess.run([os.path.join(build_dir, "kvbench_selftest")],
                              capture_output=True, text=True)
    print(selftest.stdout, end="")
    if selftest.returncode != 0:
        fail("arithmetic self-test failed")

    out_dir = os.path.join(build_root, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "kvbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = run.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    print("\n".join(lines[:-1] if result is not None else lines))
    print(run.stderr, end="", file=sys.stderr)
    if args.trace:
        print(f"traced outputs: {out_dir}/spans.json (Chrome trace), "
              f"{out_dir}/series.csv (telemetry series)")
    if result is None:
        fail(f"kvbench exited with {run.returncode} without a result")

    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    if run.returncode != 0:
        sys.exit(1)  # an output check failed; the result says "correct": false


if __name__ == "__main__":
    main()
