#!/usr/bin/env python3
"""Builds and runs the labeling-service benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (Release) into .bench_build/perfbench; later runs
reuse that build. The benchmark binary's output is passed through, so the
last line of stdout is its JSON result. `--workload all` runs every
workload in turn (for people; it prints one result per workload).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["hot_routed", "cold_open", "offline_batch"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "core", "labeling_service.cc")):
        fail("no source tree under src/; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "labelbench"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (step[:2], err))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail("build failed")
    return os.path.join(build_dir, "labelbench")


def run(binary, args, out_dir, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out" % workload)
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    root = os.getcwd()
    build_root = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(build_root, "perfbench"))
    out_dir = os.path.join(build_root, "out")
    os.makedirs(out_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = max(status, run(binary, args, out_dir, workload))
    sys.exit(status)


if __name__ == "__main__":
    main()
