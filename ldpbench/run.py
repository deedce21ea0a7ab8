#!/usr/bin/env python3
"""Builds the benchmark against the library sources of this checkout and
runs one workload.

    python3 ldpbench/run.py --workload city_release --seed 1 --seconds 15 --trace 0
    python3 ldpbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR when set (relative paths are taken from
the checkout root), else to .bench_build/. Build output goes to stderr; the
last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds; returns False on failure."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure + generator, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", out, "-j", jobs],
                           stdout=sys.stderr) == 0


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own check tests")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "mechanism.h")):
        print("ldpbench: no library sources at %s/src; run from a checkout "
              "of the repository" % ROOT, file=sys.stderr)
        return 2
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not build(out):
        print("ldpbench: build failed", file=sys.stderr)
        return 3
    if args.selftest:
        return subprocess.call([os.path.join(out, "ldpbench_checks_test")])

    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    command = [os.path.join(out, "ldpbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", runs, "--git-sha", git_sha()]
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
