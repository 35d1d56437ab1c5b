#!/usr/bin/env python3
"""Builds rumbench from this checkout's sources and runs one workload.

Usage (from the repository root):
  python3 rumbench/run.py --workload point-hot --seed 1 --seconds 10 --trace 0

Every argument is passed to the rumbench binary; see rumbench/README.md.
The build goes to $CARGO_TARGET_DIR/rumbench (default .bench_build/rumbench)
under the repository root. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
when the build fails (for example when the library sources are absent).
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "rumbench")


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"rumbench: {err}", file=sys.stderr)
        return False


def build(out):
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            if not run_logged(["cmake", "-S", HERE, "-B", out,
                               "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
                return False
        return run_logged(["cmake", "--build", out, "-j", jobs],
                          BUILD_TIMEOUT_S)


def main():
    out = build_dir()
    if not build(out):
        print("rumbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([os.path.join(out, "rumbench")] + sys.argv[1:],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("rumbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
