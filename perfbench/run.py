#!/usr/bin/env python3
"""Build and run the ldmsxx pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload chama_dense --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the ldmsxx libraries it
drives, from src/) into .bench_build/perfbench; later runs only re-check the
build. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Scratch data lives under .bench_out/ and every run
removes its own; --trace 1 leaves the span log in
.bench_out/trace_<workload>.csv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("chama_dense", "bw_sparse", "dashboard_mix")


def build():
    """Configure (once) and build the benchmark; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "daemon", "ldmsd.hpp")):
        print("run.py: ldmsxx sources not found under src/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--tmp", OUT]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(OUT, "trace_%s.csv" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
