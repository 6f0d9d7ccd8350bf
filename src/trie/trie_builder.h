#ifndef PRIX_TRIE_TRIE_BUILDER_H_
#define PRIX_TRIE_TRIE_BUILDER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "xml/document.h"

namespace prix {

/// A trie over key sequences (the LPS's of a collection, Sec. 5.2.1).
/// "Similarity in documents" shows up as shared root-to-leaf paths: the
/// paper reports one DBLP path shared by 31,864 sequences. The trie itself
/// is a build-time structure; queries only ever touch the B+-trees
/// materialized from it.
///
/// A node's key is the 64-bit child key that tells it apart from its
/// siblings, as in DynamicTrie: TrieChildKey(label, aux) of
/// trie/virtual_trie.h.
class SequenceTrie {
 public:
  static constexpr uint32_t kNoNode = 0xffffffffu;

  struct Node {
    uint64_t key = 0;
    uint32_t parent = kNoNode;
    uint32_t depth = 0;  ///< level: position of this key in the sequence
    uint64_t seqs_through = 0;  ///< sequences whose prefix reaches this node
    std::vector<DocId> end_docs;  ///< documents whose sequence ends here
    std::unordered_map<uint64_t, uint32_t> children;
  };

  SequenceTrie();

  /// Inserts one sequence of child keys ending at a node that records `doc`.
  template <typename Key>
  void Insert(const std::vector<Key>& seq, DocId doc) {
    uint32_t cur = root();
    ++nodes_[cur].seqs_through;
    for (Key key : seq) cur = Step(cur, static_cast<uint64_t>(key));
    nodes_[cur].end_docs.push_back(doc);
  }

  uint32_t root() const { return 0; }
  size_t num_nodes() const { return nodes_.size(); }
  const Node& node(uint32_t id) const { return nodes_[id]; }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Children of `id` ordered by key (deterministic iteration order).
  std::vector<uint32_t> SortedChildren(uint32_t id) const;

  /// Longest root-to-leaf path length.
  uint32_t MaxDepth() const;

 private:
  /// Moves from `cur` to its child under `key`, creating it if absent, and
  /// counts the sequence through it.
  uint32_t Step(uint32_t cur, uint64_t key);

  std::vector<Node> nodes_;
};

}  // namespace prix

#endif  // PRIX_TRIE_TRIE_BUILDER_H_
