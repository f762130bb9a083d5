#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload wild_grid --seed 0 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the WeHeY
libraries from src/) into .bench_build/; later calls only re-check the
build. Build output goes to stderr, so the driver's result JSON stays the
last line of stdout. --trace 1 also writes the spans to
.bench_build/spans-<workload>-seed<seed>.json. Exits non-zero, without a
result, when the sources are missing or do not build.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")


def build():
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(needed):
            print(f"run.py: {needed} not found; run from the repository root "
                  "of a full checkout", file=sys.stderr)
            return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--threads", type=int, default=0,
                        help="override the workload's thread count")
    args = parser.parse_args()
    if not build():
        return 1
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", "perfbench/expected"]
    if args.threads > 0:
        cmd += ["--threads", str(args.threads)]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
