#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds an
optimized rnt_perfbench (and the rnt_node runner) from the library sources
under .bench_build/; later runs only re-check the build. The benchmark
binary then runs the workload and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. Build output
goes to stderr. Exits non-zero, printing no result, when the library
sources are missing, the build fails, or a run fails its correctness check.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("durable_nested", "contended_resilient", "batched_frontend",
             "dist_unix")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# The binary bounds its own run; this only guards against a hang.
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build(bench_dir):
    if not os.path.isfile(os.path.join(bench_dir, "..", "src",
                                       "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found next "
                         "to the benchmark; run from a full checkout\n")
        return False
    jobs = str(max(1, (os.cpu_count() or 2) - 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rnt_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    args = parse_args()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not build(bench_dir):
        return 2
    cmd = [os.path.join(BUILD_DIR, "rnt_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    # Own process group, so a hung run takes its node processes with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
