#include "trie/range_labeler.h"

namespace prix {

std::vector<RangeLabel> LabelTrieExact(const SequenceTrie& trie) {
  std::vector<RangeLabel> labels(trie.num_nodes());
  uint64_t counter = 0;
  // Iterative DFS assigning left on entry and right on exit.
  struct Frame {
    uint32_t node;
    std::vector<uint32_t> kids;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{trie.root(), trie.SortedChildren(trie.root()), 0});
  labels[trie.root()].left = ++counter;
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next < f.kids.size()) {
      uint32_t child = f.kids[f.next++];
      labels[child].left = ++counter;
      stack.push_back(Frame{child, trie.SortedChildren(child), 0});
    } else {
      labels[f.node].right = counter;
      stack.pop_back();
    }
  }
  return labels;
}

}  // namespace prix
