#!/usr/bin/env python3
"""Builds the serving benchmark from this source tree and runs one workload.

    python3 perfbench/run.py --workload explore|carousel_hot|append_mix|all \
        --seed N --seconds S --trace 0|1

Run from the root of a Foresight checkout. The first run configures and
builds perfbench/ (which compiles the engine from src/) in Release mode
under .bench_build/perfbench; later runs rebuild incrementally. Each run
then starts fresh processes of the benchmark binary in turn: one that
generates the inputs, a few that each set up once from nothing resident
and record the time, and the measured one, which sets up, serves and
reports (setup_s is the median over all set-ups). The inputs live in a
per-run directory under .bench_build that is removed afterwards; traced
runs leave their span file in .bench_build/perfbench-out. The last line of
standard output is the result JSON. `--workload all` runs the three workloads one after another, each in
a fresh process, and exits nonzero if any run fails. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
# One run, all its processes included, must end well within the 180 s a run
# is allowed.
RUN_TIMEOUT_S = 170
MAX_BUILD_JOBS = 8
WORKLOADS = ["explore", "carousel_hot", "append_mix"]
# Set-up processes before the measured one, which sets up once more. An
# explore set-up reads a 177 MB CSV (~9 s), so it gets fewer.
SETUP_PROBES = {"explore": 2, "carousel_hot": 6, "append_mix": 6}


def build():
    """Configures and builds foresight_perfbench; exits 1 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, MAX_BUILD_JOBS)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return os.path.join(BUILD_DIR, "foresight_perfbench")
    with open(log_path) as log:
        sys.stderr.write("perfbench: build failed; last lines of %s:\n" % log_path)
        sys.stderr.writelines(log.readlines()[-30:])
    sys.exit(1)


def run_workload(binary, workload, args):
    """Runs one workload's processes in turn; returns the first nonzero
    exit status, or 0."""
    work_dir = os.path.join(
        BUILD_ROOT, "perfbench-runs",
        "%s-%d-%d" % (workload, args.seed, os.getpid()))
    os.makedirs(work_dir)
    common = [binary, "--workload", workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace,
              "--work-dir", work_dir, "--out-dir", OUT_DIR]
    phases = ([["--phase", "generate"]] +
              [["--phase", "setup"]] * SETUP_PROBES[workload] +
              [["--phase", "run"]])
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        for phase in phases:
            # Only the measured process writes to standard output, so its
            # result line stays the last line.
            out = None if phase[1] == "run" else subprocess.DEVNULL
            # subprocess.run kills and reaps the child when the timeout
            # expires.
            status = subprocess.run(
                common + phase, stdout=out,
                timeout=max(1.0, deadline - time.monotonic())).returncode
            if status:
                return status
        return 0
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    statuses = [run_workload(binary, workload, args) for workload in workloads]
    return next((status for status in statuses if status), 0)


if __name__ == "__main__":
    sys.exit(main())
