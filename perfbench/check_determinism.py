#!/usr/bin/env python3
"""Determinism self-check for the benchmark, run from the repository root:

    python3 perfbench/check_determinism.py --workload swissprot-cold --seed 3

Runs the workload twice with one seed and once with the next seed. The two
same-seed runs must write identical streams and report identical
cold_pages_per_query and space_amp; the other seed must write a different
stream. Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    with open(os.path.join(".bench_work", workload, "stream.txt")) as f:
        stream = f.read()
    return stream, {k: v["value"] for k, v in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()

    first, m1 = run(args.workload, args.seed, args.seconds)
    second, m2 = run(args.workload, args.seed, args.seconds)
    other, _ = run(args.workload, args.seed + 1, args.seconds)
    checks = [
        ("same seed, same stream", first == second),
        ("other seed, other stream", first != other),
        ("same seed, same cold_pages_per_query",
         m1["cold_pages_per_query"] == m2["cold_pages_per_query"]),
        ("same seed, same space_amp", m1["space_amp"] == m2["space_amp"]),
    ]
    for name, ok in checks:
        print("%-40s %s" % (name, "ok" if ok else "DIFFERS"))
    sys.exit(0 if all(ok for _, ok in checks) else 1)


if __name__ == "__main__":
    main()
