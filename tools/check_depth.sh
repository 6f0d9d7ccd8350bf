#!/usr/bin/env bash
# Depth limit, end to end through the CLI: a document exactly
# kMaxDocumentDepth levels deep (src/xml/document.h) must index and insert,
# and one level more must be refused with InvalidArgument (exit 1, no
# crash) by both `prix index` and `prix insert`, leaving the database
# intact; `prix query --timeout-ms` must stop a ViST query over a deep
# chain with DeadlineExceeded; `/a` x 8 on that chain must answer with
# the trie nodes it scans bounded by its range queries and occurrences;
# and a query nested kMaxDocumentDepth
# predicates deep must run on every engine, while one level more is
# refused. Run against a plain build by check_serve.sh and against the
# sanitized build by check_asan.sh.
#
# Usage: tools/check_depth.sh [build-dir]   (default: build; prix_cli built)
set -euo pipefail

cd "$(dirname "$0")/.."
PRIX="${1:-build}/tools/prix"
LIMIT=$(sed -n 's/.*kMaxDocumentDepth = \([0-9]*\);.*/\1/p' src/xml/document.h)
[[ -n "$LIMIT" ]] || { echo "kMaxDocumentDepth not found"; exit 1; }

WORK="$(mktemp -d /tmp/prix_depth_ci.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

# <r> over a chain of <a> elements: $1 levels of nodes in all.
chain() {
  python3 -c "import sys; n = int(sys.argv[1]); \
print('<r>' + '<a>' * (n - 2) + '<a/>' + '</a>' * (n - 2) + '</r>')" "$1"
}
chain "$LIMIT" > "$WORK/at.xml"
chain $((LIMIT + 1)) > "$WORK/over.xml"

# Fails unless the command exits 1 and names InvalidArgument.
expect_refused() {
  local rc=0
  "$@" > "$WORK/out.txt" 2>&1 || rc=$?
  if [[ "$rc" -ne 1 ]] || ! grep -q "InvalidArgument" "$WORK/out.txt"; then
    echo "expected an InvalidArgument refusal (exit 1), got exit $rc:"
    cat "$WORK/out.txt"
    exit 1
  fi
}

echo "---- depth $LIMIT indexes and inserts, depth $((LIMIT + 1)) is refused ----"
"$PRIX" index "$WORK/at.prix" "$WORK/at.xml" > /dev/null
"$PRIX" insert "$WORK/at.prix" "$WORK/at.xml" > /dev/null
expect_refused "$PRIX" index "$WORK/over.prix" "$WORK/over.xml"
expect_refused "$PRIX" insert "$WORK/at.prix" "$WORK/over.xml"
"$PRIX" verify "$WORK/at.prix" > /dev/null

# `prix query --timeout-ms` bounds every engine, not just PRIX: ViST's
# descent over a deep chain runs for minutes unbounded, and must stop with
# DeadlineExceeded well inside the wall-time cap, which `prix query`
# reports with exit status 1.
echo "---- --timeout-ms stops a ViST query on a 3000-level chain ----"
chain 3000 > "$WORK/chain.xml"
"$PRIX" index "$WORK/chain.prix" "$WORK/chain.xml" > /dev/null
rc=0
timeout 30 "$PRIX" query --engine vist --timeout-ms 100 "$WORK/chain.prix" \
  "//a//a//a" > "$WORK/out.txt" 2>&1 || rc=$?
if [[ "$rc" -ne 1 ]] || ! grep -q "DeadlineExceeded" "$WORK/out.txt"; then
  echo "expected DeadlineExceeded (exit 1) within 30 s, got exit $rc:"
  cat "$WORK/out.txt"
  exit 1
fi
# A MaxGap-pruned node takes its trie subtree with it, so on a same-label
# chain the trie nodes scanned stay within a small multiple of the range
# queries issued and the occurrences emitted. Visiting every pruned node
# instead scans about 283 million nodes for this query; the check counts
# nodes, so host speed cannot make it flaky.
echo "---- /a x 8 on the chain scans only what MaxGap keeps ----"
Q8="/a/a/a/a/a/a/a/a"
timeout 120 "$PRIX" query --trace "$WORK/chain.prix" "$Q8" > "$WORK/out.txt"
if ! grep -q "in 1 document(s)" "$WORK/out.txt"; then
  echo "expected $Q8 to answer 1 document:"
  cat "$WORK/out.txt"
  exit 1
fi
# Each count on the descent: line precedes its name.
if ! awk '/descent:/ {
        for (i = 1; i < NF; ++i) {
          if ($(i + 1) == "range") rq = $i
          if ($(i + 1) == "trie") scanned = $i
          if ($(i + 1) ~ /^occurrences/) occ = $i
        }
        ok = scanned != "" && scanned <= 4 * (rq + occ)
        printf "%s trie nodes scanned, %s range queries, %s occurrences\n",
               scanned, rq, occ
      }
      END { exit ok ? 0 : 1 }' "$WORK/out.txt"; then
  echo "expected at most 4 x (range queries + occurrences) trie nodes scanned:"
  cat "$WORK/out.txt"
  exit 1
fi
# ParseXPath accepts predicates nested kMaxDocumentDepth levels deep and
# refuses one more with ParseError. Every engine must answer the deepest
# accepted twig (nothing matches a 3-level document) without running out
# of stack.
echo "---- a query nested $LIMIT predicates deep runs on every engine ----"
nested() {
  python3 -c "import sys; n = int(sys.argv[1]); \
print('//a' + '[./a' * n + ']' * n)" "$1"
}
echo '<r><a><a/></a></r>' > "$WORK/small.xml"
"$PRIX" index "$WORK/small.prix" "$WORK/small.xml" > /dev/null
"$PRIX" query --engine all "$WORK/small.prix" "$(nested "$LIMIT")" \
  > "$WORK/out.txt"
if ! grep -q "\[prix\] 0 document(s).*(all agree)" "$WORK/out.txt"; then
  echo "expected every engine to answer 0 documents:"
  tail -c 2000 "$WORK/out.txt"
  exit 1
fi
rc=0
"$PRIX" query --engine all "$WORK/small.prix" "$(nested $((LIMIT + 1)))" \
  > "$WORK/out.txt" || rc=$?
if [[ "$rc" -ne 1 ]] ||
   ! grep -q "ParseError.*nested deeper than $LIMIT" "$WORK/out.txt"; then
  echo "expected a ParseError (exit 1) for $((LIMIT + 1)) nested predicates,"
  echo "got exit $rc:"
  tail -c 2000 "$WORK/out.txt"
  exit 1
fi
echo "depth gate: all checks passed."
