#!/usr/bin/env python3
"""Builds and runs the served-path benchmark (see perfbench/README.md).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ingest_64k|mixed_4k|probe_8k \
        --seed N --seconds S --trace 0|1

The benchmark binary is built from this checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on the first
run; later runs only re-check it. Build output goes to stderr. The last
line of stdout is the result: one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 only when every
output check passed; without sources to build, or when the run errors
out, it exits nonzero without printing a result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("ingest_64k", "mixed_4k", "probe_8k")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_root):
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", source, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir,
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if done.returncode != 0:
                fail("build step %s exited %d" % (cmd[:2], done.returncode))
    return os.path.join(build_dir, "served_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "net", "server.h")):
        fail("no relview sources under %s/src; run from a checkout root" % root)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(build_root) or ".." in build_root.split(os.sep):
        build_root = ".bench_build"
    build_root = os.path.join(root, build_root)
    binary = build(root, build_root)

    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--out-dir=" + out_dir]
    print("perfbench: nproc=%d %s" % (os.cpu_count() or 0, " ".join(cmd[1:])),
          file=sys.stderr)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode not in (0, 1) or not lines:
        fail("benchmark exited %d without a result" % done.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
