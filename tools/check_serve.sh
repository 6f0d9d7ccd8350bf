#!/usr/bin/env bash
# End-to-end gate for the serving layer (DESIGN.md §5j), exercised through
# the real CLI binaries the way an operator would run them:
#
#   1. `ctest -L serve` — wire-protocol units, admission policy, and the
#      in-process server/replay suite (hostile frames, overload shedding,
#      deadline enforcement, concurrent-ingest generation oracle)
#   2. `prix serve` + `prix bench-serve` over a real loopback socket,
#      including a replay that runs WHILE `prix insert` commits new
#      documents — the report must show only monotonic, committed
#      generations, and after each commit every co-resident engine
#      (PRIX, ViST, TwigStack, TwigStackXB) must agree on a query mix
#      (`prix query --engine all`, DESIGN.md §5k)
#   3. a client killed mid-run (SIGKILL) must leave the server healthy
#   4. SIGTERM must drain: in-flight work finishes, the process exits 0
#   5. the document depth limit through `prix index` and `prix insert`
#      (tools/check_depth.sh)
#
# Usage: tools/check_serve.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
PRIX="$BUILD_DIR/tools/prix"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target prix_cli serve_test \
  serve_unit_test stale_index_test

echo "---- serve: ctest label ----"
ctest --test-dir "$BUILD_DIR" -L serve --output-on-failure

WORK="$(mktemp -d /tmp/prix_serve_ci.XXXXXX)"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# A small collection plus spare records to ingest during the replay.
cat > "$WORK/seed.xml" <<'EOF'
<dblp>
  <article><author>smith</author><title>prufer sequences</title></article>
  <article><author>jones</author><title>xml twigs</title></article>
  <inproceedings><author>smith</author><booktitle>icde</booktitle></inproceedings>
</dblp>
EOF
for i in 1 2 3; do
  cat > "$WORK/extra$i.xml" <<EOF
<dblp><article><author>new$i</author><title>ingested $i</title></article></dblp>
EOF
done

"$PRIX" index "$WORK/db.prix" "$WORK/seed.xml" >/dev/null

# The replay workload, in the Zambezi query-file format the parser speaks.
{
  echo 3
  i=1
  for q in '//article/author' '//article/title' '//inproceedings/author'; do
    printf '%d %d %s\n' "$i" "${#q}" "$q"
    i=$((i + 1))
  done
} > "$WORK/queries.txt"

echo "---- serve: start server, replay against it ----"
"$PRIX" serve "$WORK/db.prix" --port 0 --default-timeout-ms 5000 \
  > "$WORK/server.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' \
    "$WORK/server.log")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "server died during startup:"; cat "$WORK/server.log"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "server never reported its port"; exit 1; }

"$PRIX" bench-serve --port "$PORT" --queries "$WORK/queries.txt" \
  --connections 2 --passes 5 --timeout-ms 2000 \
  --out "$WORK/BENCH_serve.json"
grep -q '"errors":0' "$WORK/BENCH_serve.json"
grep -q '"gave_up":0' "$WORK/BENCH_serve.json"

echo "---- serve: replay concurrent with ingest commits ----"
"$PRIX" bench-serve --port "$PORT" --queries "$WORK/queries.txt" \
  --connections 2 --passes 200 --timeout-ms 2000 \
  --out "$WORK/BENCH_serve_ingest.json" > "$WORK/replay.log" &
REPLAY_PID=$!
for i in 1 2 3; do
  "$PRIX" insert "$WORK/db.prix" "$WORK/extra$i.xml" >/dev/null
  # Each live-server commit carried the ViST/TwigStack engines along: all
  # four engines answer the mix identically while the replay still runs.
  "$PRIX" query --engine all "$WORK/db.prix" \
    '//article/author' '//article/title' > "$WORK/engines$i.log"
  grep -q 'all agree' "$WORK/engines$i.log"
done
wait "$REPLAY_PID"
# Every response carried a committed snapshot generation, and no connection
# ever saw a generation go backward (the replay client tracks both).
grep -q '"generations_monotonic":true' "$WORK/BENCH_serve_ingest.json"
grep -q '"errors":0' "$WORK/BENCH_serve_ingest.json"

echo "---- serve: client killed mid-run leaves the server healthy ----"
"$PRIX" bench-serve --port "$PORT" --queries "$WORK/queries.txt" \
  --connections 2 --passes 100000 --timeout-ms 2000 \
  --out "$WORK/BENCH_doomed.json" >/dev/null 2>&1 &
DOOMED_PID=$!
sleep 0.3
kill -9 "$DOOMED_PID" 2>/dev/null || true
wait "$DOOMED_PID" 2>/dev/null || true
# The server must still answer a fresh, well-behaved client.
"$PRIX" bench-serve --port "$PORT" --queries "$WORK/queries.txt" \
  --connections 1 --passes 2 --timeout-ms 2000 \
  --out "$WORK/BENCH_after_kill.json" >/dev/null
grep -q '"errors":0' "$WORK/BENCH_after_kill.json"

echo "---- serve: SIGTERM drains and exits 0 ----"
kill -TERM "$SERVER_PID"
SERVER_RC=0
wait "$SERVER_PID" || SERVER_RC=$?
SERVER_PID=""
[[ "$SERVER_RC" -eq 0 ]] || {
  echo "server exited $SERVER_RC on SIGTERM:"; cat "$WORK/server.log"
  exit 1
}
grep -q "exited cleanly" "$WORK/server.log"

# The drained database is intact.
"$PRIX" verify "$WORK/db.prix" >/dev/null

tools/check_depth.sh "$BUILD_DIR"

echo "serve gate: all checks passed."
