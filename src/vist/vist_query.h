#ifndef PRIX_VIST_VIST_QUERY_H_
#define PRIX_VIST_VIST_QUERY_H_

#include <cstdint>
#include <vector>

#include "naive/naive_matcher.h"
#include "vist/vist_index.h"

namespace prix {

/// Execution counters for the ViST baseline.
struct VistQueryStats {
  uint64_t range_queries = 0;
  uint64_t matched_prefixes = 0;  ///< unique (symbol, prefix) keys matched
  uint64_t keys_scanned = 0;     ///< D-Ancestorship entries touched
  uint64_t occurrences = 0;      ///< subsequence occurrences found
  uint64_t candidate_docs = 0;   ///< docs surfaced by subsequence matching
  uint64_t docs_verified = 0;    ///< candidate docs post-verified
  uint64_t false_alarms = 0;     ///< candidates rejected by verification
};

struct VistQueryResult {
  std::vector<TwigMatch> matches;  // verified, sorted
  std::vector<DocId> docs;         // sorted, distinct
  VistQueryStats stats;
};

/// ViST query execution as characterized by the PRIX paper: top-down
/// subsequence matching of the query's (symbol, prefix) pairs over the
/// D-Ancestorship virtual trie. Exact (gap-free) prefixes use targeted
/// range scans; prefixes containing '//' or '*' must touch every key with
/// the symbol (the TREEBANK blowup of Sec. 6.4.1). Because the structure
/// encoding admits false alarms (Fig. 1(b)), every candidate document is
/// verified against the query tree; that cost is part of ViST's bill.
class VistQueryProcessor {
 public:
  explicit VistQueryProcessor(const VistIndex* index) : index_(index) {}

  Result<VistQueryResult> Execute(
      const TwigPattern& pattern,
      MatchSemantics semantics = MatchSemantics::kOrdered);

 private:
  Status Descend(size_t i, uint64_t ql, uint64_t qr,
                 std::vector<DocId>* candidates, VistQueryStats* stats);

  const VistIndex* index_;
  std::vector<VistQueryItem> items_;
  // One D-Ancestorship cursor per item and one Docid cursor, reused by
  // every range query of an Execute (sized before the descent starts).
  std::vector<VistIndex::DAncestorTree::Iterator> cursors_;
  VistIndex::DocTree::Iterator doc_cursor_;
  // prefix_ok_[i][prefix]: item i accepts that interned prefix.
  std::vector<std::vector<char>> prefix_ok_;
};

}  // namespace prix

#endif  // PRIX_VIST_VIST_QUERY_H_
