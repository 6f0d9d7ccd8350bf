#ifndef PRIX_PRIX_SUBSEQUENCE_MATCHER_H_
#define PRIX_PRIX_SUBSEQUENCE_MATCHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "prix/prix_index.h"
#include "query/twig_prufer.h"

namespace prix {

/// Counters for the filtering phase, private to one query (no shared
/// counters on the query path).
struct MatcherStats {
  uint64_t range_queries = 0;   ///< B+-tree range descents issued
  uint64_t nodes_scanned = 0;   ///< trie nodes touched across all scans
  /// Scanned nodes MaxGap rules out; each takes its subtree with it.
  uint64_t pruned_by_maxgap = 0;
  /// Nodes MaxGap keeps whose subtree lacks the anchor; skipped likewise.
  uint64_t pruned_by_anchor = 0;
  uint64_t occurrences = 0;     ///< subsequence occurrences emitted
};

/// Build stamp kept for benchmark reports: the MaxGap decision is one
/// scalar GapPruneRule::Prunes call per scanned node, never a SIMD kernel.
inline bool GapPruneUsingSimd() { return false; }

/// Algorithm 1 (Sec. 5.3): finds every occurrence of a query LPS as a
/// subsequence of indexed LPS's by recursive range descent over the virtual
/// trie, optionally pruned with the MaxGap metric of Theorem 4 (Sec. 5.4).
///
/// MaxGap is decided once per scanned node (GapPruneRule::Prunes). A node
/// it rules out takes its subtree with it: a same-label descendant lies
/// deeper, so its gap is larger and it fails too, and the scan reseeks past
/// the node's RightPos instead of visiting it (DESIGN.md §5, note 4).
///
/// Value anchors: depth i's anchor is the nearest value position
/// a >= i + 2 of the query sequence (QuerySequence::is_value). A node depth
/// i keeps is recursed into only if the Trie-Symbol index holds a q.lps[a]
/// node in its range, since every later position lies in that node's
/// subtree. The occurrences are exactly those of the unanchored descent;
/// only subtrees that cannot reach the next value are skipped, and a node
/// that cannot reach it is passed over with its subtree like a
/// MaxGap-pruned one (DESIGN.md §5, note 4).
///
/// Each query depth owns one Trie-Symbol cursor and one anchor cursor, and
/// the terminals share one Docid cursor: a range query or a subtree skip is
/// a Reseek of its depth's cursor, which stays within the current leaf
/// when the probe key routes there, and allocates nothing. The scan loop
/// recurses into each kept node while its cursor rests there. A matcher
/// holds no mutable state of its own — the cursors live in FindAll's frame
/// and counters go to the caller-owned MatcherStats — so one instance per
/// thread (or even a shared one) is safe over a read-only index.
class SubsequenceMatcher {
 public:
  /// `emit(docs, positions)` is called once per occurrence: `docs` holds the
  /// ids of all documents whose LPS passes through the matched path (the
  /// Docid-index range [r_l, r_r]); `positions` are the 1-based LPS
  /// positions (trie levels) of the matched labels.
  using EmitFn =
      std::function<Status(const std::vector<DocId>&,
                           const std::vector<uint32_t>&)>;

  /// `generalized` (wildcard queries): descend with CLOSED scopes so that
  /// two query slots may match the same trie position — the witness for two
  /// single-node '//' branches whose connecting paths enter the same child
  /// subtree (see DESIGN.md on branch coincidence) — and suppress zero-gap
  /// MaxGap pruning accordingly.
  SubsequenceMatcher(const PrixIndex* index, bool use_maxgap,
                     bool generalized)
      : index_(index), use_maxgap_(use_maxgap), generalized_(generalized) {}

  /// Runs the search for `q` (q.lps must be non-empty).
  Status FindAll(const QuerySequence& q, const EmitFn& emit,
                 MatcherStats* stats);

 private:
  struct Depth;
  struct Scratch;

  Status Descend(const QuerySequence& q, size_t i, uint64_t ql, uint64_t qr,
                 Scratch* scratch, const EmitFn& emit, MatcherStats* stats);

  const PrixIndex* index_;
  bool use_maxgap_;
  bool generalized_;
};

}  // namespace prix

#endif  // PRIX_PRIX_SUBSEQUENCE_MATCHER_H_
