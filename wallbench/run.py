#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

Run from the repository root:

    python3 wallbench/run.py --workload leafspine_burst --seed 1 --seconds 12 --trace 0

`--workload all` runs every workload in turn and ends with one summary line
whose metrics are named "<workload>/<metric>".

The simulator's libraries (../src) and the benchmark program are compiled in
Release mode into $CARGO_TARGET_DIR/wallbench (default .bench_build/wallbench,
relative to the current directory); later runs rebuild incrementally. The
program's output is passed through: its last stdout line is one JSON object
with "correct", "attempted", "failed" and "metrics". A traced run
(--trace 1) also writes its spans to <build dir>/spans/<workload>-seed<n>.json.
The exit status is the program's (non-zero when a correctness check failed),
or 2 when the benchmark cannot be built.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORKLOADS = ("leafspine_burst", "l1s_burst", "session_storm", "sharded_market")
BUILD_TIMEOUT_S = 840
# A run may overrun --seconds by its last iteration and the final checks.
RUN_MARGIN_S = 150


def fail(message):
    print("wallbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(target, "wallbench"))


def run_quiet(cmd, timeout):
    """Runs a build step with its output sent to stderr."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build():
    """Configures (once) and builds the program; returns the binary's path."""
    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        fail("simulator sources not found next to the benchmark (expected %s)" % SRC_DIR)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(BENCH_DIR):
            shutil.rmtree(out)  # configured for another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, BUILD_TIMEOUT_S) != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return os.path.join(out, "wallbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        sys.exit(run_workload(binary, args, args.workload).returncode)
    # Every workload in turn, then one summary line over all of them.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = run_workload(binary, args, name, capture=True)
        status = status or proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][name + "/" + metric] = value
    print(json.dumps(summary))
    sys.exit(status)


def run_workload(binary, args, workload, capture=False):
    """Runs the program on one workload; its output passes through (and is
    also returned when captured)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.json" % (workload, args.seed))]
    timeout = args.seconds + RUN_MARGIN_S
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %g s" % (workload, timeout))
    if capture:
        sys.stdout.write(proc.stdout)
    return proc


if __name__ == "__main__":
    main()
