#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 roundbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The build (libcomdml, fleetd and the
roundbench binary) goes to $CARGO_TARGET_DIR, or .bench_build when that is
unset; the first run configures and compiles, later runs only check that
the build is current. Build output goes to stderr, so the last line on
stdout is the JSON result. Exit status: the roundbench binary's (0 when
every output check passed), 2 for a bad command line or missing sources,
3 for a failed build, 124 when the run passed its time limit.
"""

import argparse
import fcntl
import glob
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "roundbench",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    for needed in ("src", os.path.join("tools", "fleetd.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} is missing: the benchmark builds the "
                  f"library from the repository sources", file=sys.stderr)
            return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 3

    # Sockets and traces live inside the build directory; a relative path
    # keeps unix socket paths short.
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "roundbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.relpath(work_dir),
           "--fleetd", os.path.join(build_dir, "fleetd")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # fleetd children die with the binary (PR_SET_PDEATHSIG).
        proc.kill()
        proc.wait()
        print("run.py: run passed its time limit", file=sys.stderr)
        code = 124
    if code not in (0, 1):
        # The binary died without cleaning up: remove its socket directories.
        for stale in glob.glob(os.path.join(work_dir, "fd_*")):
            shutil.rmtree(stale, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
