#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload dblp-zipf --seed 1 --seconds 20 --trace 0

The first run configures and builds `prix` and `perfbench_driver` (CMake,
Release) into .bench_build/perfbench; later runs only rebuild what changed.
The last stdout line of `perfbench_driver`, one JSON object, is the result;
the streams (Zambezi query files that `prix bench-serve --queries` replays),
the answers and a stamped result file stay in .bench_work/<workload>/.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["dblp-zipf", "treebank-twig", "swissprot-cold"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    for needed in ("src/CMakeLists.txt", "tools/prix_cli.cc"):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.exit("perfbench: run from the repository root; %s is missing"
                     % needed)

    build = os.path.join(root, ".bench_build", "perfbench")
    # Build output goes to stderr: stdout carries only the result line.
    subprocess.run(["cmake", "-S", bench_dir, "-B", build,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build, "-j", jobs],
                   check=True, stdout=sys.stderr)

    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = subprocess.run(
        [os.path.join(build, "perfbench_driver"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--prix", os.path.join(build, "prix"), "--work", work],
        stdout=subprocess.PIPE, text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit("perfbench: driver failed with code %d" % result.returncode)
    print(lines[-1])


if __name__ == "__main__":
    main()
