#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Usage (from the repository root):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness from the repository's sources into .bench_build/e2ebench
(an incremental no-op when nothing changed), then runs one workload in a
single process. The harness prints the result object as the last line of
standard output; build output goes to standard error. Exits non-zero, with
no result, when the sources are missing or the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "chet_e2e")


def child_env():
    # CHET_* variables change what the program does (thread count, prime
    # chain width, limb pool, NTT kernels, memory budget); the benchmark
    # fixes those itself, so none may leak in from the caller.
    return {k: v for k, v in os.environ.items() if not k.startswith("CHET_")}


def run(cmd):
    """Runs cmd to completion with its stdout sent to our stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no CHET sources under %s/src" % ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    return run(["cmake", "--build", BUILD, "-j4", "--target", "chet_e2e"]) == 0


def main():
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    # The harness reads its arguments and writes traces relative to the
    # repository root.
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=child_env())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
