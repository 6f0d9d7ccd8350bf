#ifndef PRIX_TRIE_RANGE_LABELER_H_
#define PRIX_TRIE_RANGE_LABELER_H_

#include <cstdint>
#include <vector>

#include "trie/trie_builder.h"

namespace prix {

/// Positional (LeftPos, RightPos) label of a virtual-trie node satisfying
/// the containment property (Sec. 5.2.1): every descendant's left falls in
/// (left, right], sibling ranges are disjoint.
struct RangeLabel {
  uint64_t left = 0;
  uint64_t right = 0;

  bool Contains(const RangeLabel& other) const {
    return other.left > left && other.right <= right;
  }
  bool operator==(const RangeLabel&) const = default;
};

/// Exact two-pass labeling of a bulk build: left = preorder rank (1-based,
/// children in key order), right = largest rank in the subtree. Leaves no
/// slack; sequences inserted later go through DynamicTrie
/// (trie/dynamic_trie.h), whose first insert grows the root scope and
/// relabels once. Returned vector is indexed by trie node id (root gets
/// [1, num_nodes]).
std::vector<RangeLabel> LabelTrieExact(const SequenceTrie& trie);

}  // namespace prix

#endif  // PRIX_TRIE_RANGE_LABELER_H_
