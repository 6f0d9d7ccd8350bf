#!/usr/bin/env bash
# Builds the concurrency test suite with ThreadSanitizer and runs it.
# Any data race makes TSan exit non-zero, which fails this script.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
TARGETS=(buffer_pool_concurrency_test parallel_query_test ingest_stress_test)
# The serve_test cases that execute queries on connection threads next to
# the watchdog's Cancel and a concurrent writer.
SERVE_FILTER="ServeTest.ConcurrentIngestEveryResponseMatchesACommittedGeneration"
SERVE_FILTER+=":ServeTest.DisconnectMidRequestCancelsExecution"
SERVE_FILTER+=":ServeTest.ReplaySaturationShedsTypedAndBounded"

cmake -B "$BUILD_DIR" -S . -DPRIX_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target "${TARGETS[@]}" serve_test -j "$(nproc)"

# halt_on_error so the first race fails fast instead of drowning the log.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
for t in "${TARGETS[@]}"; do
  echo "== TSan: $t =="
  "$BUILD_DIR/tests/$t"
done
echo "== TSan: serve_test (connection-thread execution) =="
"$BUILD_DIR/tests/serve_test" --gtest_filter="$SERVE_FILTER"
echo "TSan: all concurrency tests passed with zero reported races."
