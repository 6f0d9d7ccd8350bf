#!/usr/bin/env bash
# Guards the "metrics are free when disabled" contract (DESIGN.md Sec. 5f):
# with the charge hooks compiled in but no MetricsContext open, the storage
# hot paths must stay within TOLERANCE percent of a -DPRIX_NO_METRICS=ON
# build that compiles the hooks out entirely. Compares the minimum of
# repeated runs of bench_micro_core's buffer-pool and B+-tree benchmarks
# (the paths that charge on every page fetch / node visit) and fails the
# gate if the instrumented build regresses past the budget.
#
# Usage: tools/check_metrics_overhead.sh
#   TOLERANCE=2   overhead budget in percent
#   REPS=5        benchmark repetitions per round
#   ROUNDS=8      on/off rounds, each pinned to one CPU (minimum taken
#                 across all of them)
set -euo pipefail

cd "$(dirname "$0")/.."

TOLERANCE=${TOLERANCE:-2}
REPS=${REPS:-5}
ROUNDS=${ROUNDS:-8}
FILTER='BM_BufferPoolHit|BM_BtreeGet'

build() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j "$(nproc)" --target bench_micro_core > /dev/null
}

# -falign-functions levels the code-layout luck between the two binaries:
# without it, functions shifting across cache-line boundaries between the
# builds swing these nanosecond benchmarks by more than the budget itself.
ALIGN_FLAGS="-falign-functions=64"

echo "building instrumented tree (hooks compiled in, no context open)"
build build-metrics -DPRIX_NO_METRICS=OFF "-DCMAKE_CXX_FLAGS=$ALIGN_FLAGS"
echo "building baseline tree (-DPRIX_NO_METRICS=ON, hooks compiled out)"
build build-nometrics -DPRIX_NO_METRICS=ON "-DCMAKE_CXX_FLAGS=$ALIGN_FLAGS"

# Nanosecond-scale microbenchmarks on a shared machine see scheduler and
# frequency noise far above the 2% budget, so the verdict uses the one
# statistic that converges under one-sided contention bursts: the MINIMUM
# cpu_time over many short repetitions of many alternating rounds. The
# sample minimum estimates uncontended best-case cost — exactly what the
# hook overhead adds to — and tightens as samples accumulate, where means
# and medians keep jitter from whichever rounds were throttled.
run() {
  taskset -c "$2" "$1"/bench/bench_micro_core \
      --benchmark_filter="$FILTER" \
      --benchmark_repetitions="$REPS" \
      --benchmark_min_time=0.1 \
      --benchmark_format=json
}

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# This host's vCPUs run at speeds 2-4x apart (perfbench/README.md), more
# than the budget, so an unpinned pair can compare two different CPUs. Both
# binaries of a round run on one CPU, and the CPU rotates across rounds as
# perfbench's passes do: each build's minimum then comes from the same set
# of CPUs. Which binary goes first alternates on each CPU's successive
# rounds, so neither always runs on a CPU the other has just warmed.
mapfile -t CPUS < <(python3 -c \
  'import os; print("\n".join(map(str, sorted(os.sched_getaffinity(0)))))')

measure() {
  local rounds=$1
  rm -f "$tmpdir"/on.*.json "$tmpdir"/off.*.json
  echo "measuring: $rounds alternating rounds x $REPS repetitions," \
       "pinned per round across CPUs ${CPUS[*]}"
  for ((i = 0; i < rounds; ++i)); do
    local cpu=${CPUS[i % ${#CPUS[@]}]}
    if (((i / ${#CPUS[@]}) % 2)); then
      run build-nometrics "$cpu" > "$tmpdir/off.$i.json"
      run build-metrics "$cpu" > "$tmpdir/on.$i.json"
    else
      run build-metrics "$cpu" > "$tmpdir/on.$i.json"
      run build-nometrics "$cpu" > "$tmpdir/off.$i.json"
    fi
  done
  python3 - "$TOLERANCE" "$rounds" "$tmpdir" <<'EOF'
import json
import sys

tol = float(sys.argv[1])
rounds = int(sys.argv[2])
tmpdir = sys.argv[3]


def best_times(prefix):
    best = {}
    for i in range(rounds):
        with open(f"{tmpdir}/{prefix}.{i}.json") as f:
            for b in json.load(f)["benchmarks"]:
                if b.get("run_type") != "iteration":
                    continue
                name = b["name"]
                best[name] = min(best.get(name, float("inf")),
                                 b["cpu_time"])
    return best


on = best_times("on")
off = best_times("off")

failed = False
for name in sorted(off):
    base = off[name]
    inst = on[name]
    delta = 100.0 * (inst - base) / base
    verdict = "ok" if delta <= tol else "FAIL"
    print(f"{name:40s} baseline {base:9.1f} ns  "
          f"instrumented {inst:9.1f} ns  delta {delta:+6.2f}%  {verdict}")
    if delta > tol:
        failed = True

if failed:
    sys.exit(f"metrics overhead exceeds the {tol}% budget on a hot path")
print(f"disabled-metrics overhead within the {tol}% budget")
EOF
}

# The sample-min noise floor on a busy machine sits near the budget itself,
# so one failed pass earns one re-measure at double the rounds before the
# gate trips — a real regression (hooks cost >2% best-case) fails both.
if ! measure "$ROUNDS"; then
  echo "over budget on first pass; re-measuring with $((2 * ROUNDS)) rounds"
  measure $((2 * ROUNDS))
fi
