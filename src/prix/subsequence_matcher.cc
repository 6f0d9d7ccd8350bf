#include "prix/subsequence_matcher.h"

#include "common/deadline.h"
#include "common/macros.h"

namespace prix {

/// One query depth's Trie-Symbol cursor and anchor cursor. A depth's range
/// queries run one after another (deeper ones run while its cursor rests on
/// the node they descend from), so each depth reuses one of each.
struct SubsequenceMatcher::Depth {
  explicit Depth(const PrixIndex::SymbolTree& tree)
      : cursor(tree), anchor_cursor(tree) {}

  /// Sets `*reachable` to whether the Trie-Symbol index holds an
  /// `anchor_label` node whose LeftPos lies in [lo, hi]. Within one scan the
  /// kept nodes' lower bounds rise, so the cursor only moves forward: it
  /// re-seeks when its entry lies below `lo` (or `lo` fell below the bound
  /// it was sought for, in a later scan nested in an earlier one) and
  /// answers in O(1) otherwise.
  Status AnchorReachable(uint64_t lo, uint64_t hi, bool* reachable) {
    auto in_label = [this] {
      return anchor_cursor.Valid() &&
             anchor_cursor.key().label == anchor_label;
    };
    if (lo < anchor_lo || (in_label() && anchor_cursor.key().left < lo)) {
      PRIX_RETURN_NOT_OK(anchor_cursor.Reseek(SymbolKey{anchor_label, 0, lo}));
      anchor_lo = lo;
    }
    *reachable = in_label() && anchor_cursor.key().left <= hi;
    return Status::OK();
  }

  PrixIndex::SymbolTree::Iterator cursor;
  /// Sits at the first entry >= (anchor_label, anchor_lo); anchor_lo is
  /// UINT64_MAX until the first seek. kInvalidLabel: the depth has no anchor.
  PrixIndex::SymbolTree::Iterator anchor_cursor;
  LabelId anchor_label = kInvalidLabel;
  uint64_t anchor_lo = UINT64_MAX;
};

/// Everything one FindAll run reuses across its range queries.
struct SubsequenceMatcher::Scratch {
  std::vector<Depth> depths;  ///< sized once, before the descent starts
  PrixIndex::DocTree::Iterator doc_cursor;
  std::vector<DocId> docs;
  std::vector<uint32_t> positions;
};

Status SubsequenceMatcher::FindAll(const QuerySequence& q, const EmitFn& emit,
                                   MatcherStats* stats) {
  if (q.lps.empty()) {
    return Status::InvalidArgument(
        "subsequence matching needs a non-empty query sequence");
  }
  Scratch scratch;
  // Descend holds a reference to its depth's entry across deeper calls,
  // so the vector must never grow once the descent starts.
  scratch.depths.reserve(q.lps.size());
  for (size_t i = 0; i < q.lps.size(); ++i) {
    scratch.depths.emplace_back(index_->symbol_index());
  }
  // Depth i's anchor is the nearest value position a >= i + 2; at
  // a = i + 1 the next range query is already that probe.
  for (size_t i = q.lps.size(), a = 0; i-- > 0;) {
    if (i + 2 < q.lps.size() && q.is_value[i + 2]) a = i + 2;
    if (a != 0) scratch.depths[i].anchor_label = q.lps[a];
  }
  scratch.doc_cursor = PrixIndex::DocTree::Iterator(index_->docid_index());
  scratch.positions.reserve(q.lps.size());
  RangeLabel root = index_->root_range();
  return Descend(q, 0, root.left, root.right, &scratch, emit, stats);
}

Status SubsequenceMatcher::Descend(const QuerySequence& q, size_t i,
                                   uint64_t ql, uint64_t qr, Scratch* scratch,
                                   const EmitFn& emit, MatcherStats* stats) {
  // Range query on the Trie-Symbol index: all trie nodes labeled q.lps[i]
  // whose LeftPos lies in (ql, qr] — i.e. descendants of the current node.
  LabelId label = q.lps[i];
  ++stats->range_queries;
  // Match-loop deadline checkpoint: once per range descent, so cancellation
  // latency is bounded by one range scan, whose ruled-out nodes pass over
  // their subtrees, even when every page is cached and the buffer-pool miss
  // checkpoint never fires.
  PRIX_RETURN_NOT_OK(CheckDeadline());
  // Exact queries scan the open interval (ql, qr]; generalized queries
  // include ql itself so a slot may repeat its predecessor's position.
  uint64_t start = generalized_ && i > 0 ? ql : ql + 1;
  Depth& depth = scratch->depths[i];
  auto& it = depth.cursor;
  PRIX_RETURN_NOT_OK(it.Reseek(SymbolKey{label, 0, start}));
  // Optimized subsequence matching (Sec. 5.4): gap between adjacent matched
  // levels bounded by the MaxGap of the previous label.
  const GapPruneRule rule =
      use_maxgap_ && i > 0 ? q.prune[i] : GapPruneRule{};
  const uint32_t bound =
      rule.kind != GapPruneRule::kNone ? index_->maxgap().Get(rule.label) : 0;
  std::vector<uint32_t>& positions = scratch->positions;
  const uint32_t prev = i > 0 ? positions.back() : 0;
  // Whether the cursor rests on a `label` node whose LeftPos is <= `hi`.
  auto in_scan = [&it, label](uint64_t hi) {
    return it.Valid() && it.key().label == label && it.key().left <= hi;
  };
  while (in_scan(qr)) {
    const uint64_t left = it.key().left;
    const TrieNodeValue node = it.value();
    ++stats->nodes_scanned;
    bool ruled_out = false;
    if (rule.Prunes(node.level, prev, bound, generalized_)) {
      ++stats->pruned_by_maxgap;
      ruled_out = true;
    } else if (depth.anchor_label != kInvalidLabel) {
      // Later positions lie in this node's subtree, scanned with the same
      // interval convention as the range query above.
      bool reachable = false;
      PRIX_RETURN_NOT_OK(depth.AnchorReachable(
          generalized_ ? left : left + 1, node.right, &reachable));
      if (!reachable) {
        ++stats->pruned_by_anchor;
        ruled_out = true;
      }
    }
    if (ruled_out) {
      // The node's subtree is ruled out with it (DESIGN.md §5, note 4):
      // move past its RightPos. When that covers the rest of the scan,
      // the scan is done.
      if (node.right >= qr) break;
      PRIX_RETURN_NOT_OK(it.Next());
      if (in_scan(node.right)) {
        PRIX_RETURN_NOT_OK(it.Reseek(SymbolKey{label, 0, node.right + 1}));
      }
      continue;
    }
    positions.push_back(node.level);
    if (i + 1 == q.lps.size()) {
      // Terminal: fetch all documents whose LPS ends in [left, right].
      std::vector<DocId>& docs = scratch->docs;
      docs.clear();
      // A delete removes its document's Docid entry. Only the tombstoned
      // placeholders a salvage writes for dead or lost DocIds keep one, and
      // those must never reach refinement.
      PRIX_RETURN_NOT_OK(VirtualTrie::ScanDocs(
          &scratch->doc_cursor, left, node.right, [&](DocId doc) {
            if (!index_->IsDeleted(doc)) docs.push_back(doc);
          }));
      if (!docs.empty()) {
        ++stats->occurrences;
        PRIX_RETURN_NOT_OK(emit(docs, positions));
      }
    } else {
      PRIX_RETURN_NOT_OK(
          Descend(q, i + 1, left, node.right, scratch, emit, stats));
    }
    positions.pop_back();
    PRIX_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

}  // namespace prix
