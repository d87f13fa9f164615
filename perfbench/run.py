#!/usr/bin/env python3
"""Builds and runs the pmblade end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build) on first
use. Its last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build
fails, when any operation fails, or when any correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    """Configures (once) and builds `target`; returns the binary path."""
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", build_dir, "--target", target,
                 "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            return None
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if shutil.which("cmake") is None:
        print("cmake not found", file=sys.stderr)
        return 2
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    target = "perfbench_selftest" if args.self_test else "perfbench"
    binary = build(build_dir, target)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([binary], check=False).returncode

    work_dir = os.path.join(build_root, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
