#!/usr/bin/env bash
# Builds the test suite with AddressSanitizer + UndefinedBehaviorSanitizer
# and runs it. Any heap error, leak, or UB report exits non-zero, which
# fails this script.
#
# Usage: tools/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DPRIX_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error fails fast on the first report; detect_leaks catches
# forgotten unpins and index teardown paths.
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
# The depth limit end to end: the deepest accepted document through every
# engine's build and ingest paths, sanitized.
tools/check_depth.sh "$BUILD_DIR"
echo "ASan/UBSan: all tests passed with zero reports."
