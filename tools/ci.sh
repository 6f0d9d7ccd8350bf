#!/usr/bin/env bash
# The full gate, staged by ctest label (tests/CMakeLists.txt):
#   1. plain build + tier1 (fast correctness tests) + the bench smoke (every
#      bench_paper section at a small scale)
#   2. faults tier (fault-injection / crash-recovery matrices)
#   3. corruption tier (single-page garble fuzz, scrub, salvage)
#   4. ingest tier (online insert/update/delete with the co-resident
#      ViST/TwigStack/XB engines carried in every commit, the tri-engine
#      bulk-rebuild equivalence, and the snapshot-isolation stress oracle —
#      DESIGN.md §5i/§5k)
#   5. serving layer: `ctest -L serve` plus the CLI end-to-end — a real
#      `prix serve` process replayed against (concurrently with ingest
#      commits), a client SIGKILLed mid-run, and a SIGTERM drain that must
#      exit 0 (DESIGN.md §5j)
#   6. replication: `ctest -L repl` (oplog recovery, wire frames, crash
#      matrices, link-fault convergence) plus the CLI leader/follower pair
#      — snapshot bootstrap, leader SIGKILL the follower survives, restart
#      catch-up, byte-identical offline answers (DESIGN.md §5l)
#   7. metrics overhead guard (disabled-metrics hot path vs PRIX_NO_METRICS)
#   8. ASan/UBSan suite (includes the serve tests: the frame-decoder
#      adversarial sweep and the socket servers run sanitized here)
#   9. fault suite again under ASan (error paths are where pins leak)
#  10. corruption fuzz under ASan/UBSan, swept over fixed seeds — garbled
#      pages must produce clean Status errors, never UB
#  11. TSan concurrency suite (includes the ingest stress oracle, so the
#      reader/writer snapshot handoff is race-checked, not just correct)
# Each stage uses its own build tree, so rerunning after a fix is
# incremental; stage 9 reuses stage 8's tree. Fast feedback first: a tier1
# regression fails the gate before any slow matrix or sanitizer build runs.
#
# Usage: tools/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==== 1/11 build + tier1 tests + bench smoke ===="
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build -L 'tier1|bench' --output-on-failure -j "$(nproc)"

echo "==== 2/11 fault-injection tier ===="
ctest --test-dir build -L faults --output-on-failure -j "$(nproc)"

echo "==== 3/11 corruption tier ===="
ctest --test-dir build -L corruption --output-on-failure -j "$(nproc)"

echo "==== 4/11 tri-engine online-ingest tier ===="
# Ingest commits carry every co-resident engine: the tri-engine test holds
# grown ViST/TwigStack/XB indexes to from-scratch rebuilds and to PRIX, and
# the stress test checks every concurrent query batch — PRIX and derived
# readers alike — against the oracle of the exact generation it pinned.
ctest --test-dir build -L ingest --output-on-failure -j "$(nproc)"

echo "==== 5/11 serving layer (server + replay over loopback) ===="
# `ctest -L serve` plus the CLI end-to-end: start `prix serve`, replay a
# query file against it (including one run concurrent with `prix insert`
# commits, whose report must show only monotonic committed generations),
# SIGKILL a client mid-run, then SIGTERM the server and require a clean
# drain with exit 0.
tools/check_serve.sh build

echo "==== 6/11 replication (leader/follower over loopback) ===="
# `ctest -L repl` (oplog recovery, wire frames, crash matrices, link-fault
# convergence) plus the CLI pair: a live leader under ingest, a follower
# that bootstraps via snapshot, a SIGKILLed leader the follower survives,
# a restart it catches up to, and byte-identical offline answers.
tools/check_replication.sh build

echo "==== 7/11 metrics overhead guard ===="
tools/check_metrics_overhead.sh

echo "==== 8/11 AddressSanitizer + UBSan ===="
tools/check_asan.sh build-asan

echo "==== 9/11 fault injection + crash simulation under ASan ===="
tools/check_faults.sh build-asan

echo "==== 10/11 corruption fuzz under ASan, fixed seed sweep ===="
# Each seed garbles every page of a differently-shaped index file; the
# sweep is deterministic so a failure reproduces with the printed seed.
for seed in 1 42 20260806; do
  echo "---- corruption fuzz: seed $seed ----"
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  PRIX_CORRUPTION_SEED="$seed" \
  ctest --test-dir build-asan -R corruption_test --output-on-failure
done

echo "==== 11/11 ThreadSanitizer ===="
tools/check_tsan.sh build-tsan

echo "==== CI: all stages green ===="
