#ifndef PRIX_TESTS_TESTUTIL_OCCURRENCES_H_
#define PRIX_TESTS_TESTUTIL_OCCURRENCES_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "prix/prix_index.h"
#include "prix/subsequence_matcher.h"
#include "query/twig_prufer.h"

namespace prix::testutil {

/// One occurrence as SubsequenceMatcher emits it: the documents of the
/// matched path and the matched LPS positions.
using Occurrence = std::pair<std::vector<DocId>, std::vector<uint32_t>>;

/// Runs Algorithm 1 for `q`, with or without MaxGap pruning, and lists its
/// occurrences in emission order.
inline Result<std::vector<Occurrence>> ListOccurrences(
    const PrixIndex& index, const QuerySequence& q, bool use_maxgap,
    bool generalized, MatcherStats* stats) {
  SubsequenceMatcher matcher(&index, use_maxgap, generalized);
  std::vector<Occurrence> out;
  auto emit = [&out](const std::vector<DocId>& docs,
                     const std::vector<uint32_t>& positions) {
    out.emplace_back(docs, positions);
    return Status::OK();
  };
  PRIX_RETURN_NOT_OK(matcher.FindAll(q, emit, stats));
  return out;
}

/// `q` without its value flags: the same descent with no value anchors.
inline QuerySequence WithoutValueAnchors(QuerySequence q) {
  q.is_value.assign(q.lps.size(), false);
  return q;
}

}  // namespace prix::testutil

#endif  // PRIX_TESTS_TESTUTIL_OCCURRENCES_H_
