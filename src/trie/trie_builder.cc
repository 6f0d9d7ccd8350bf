#include "trie/trie_builder.h"

#include <algorithm>

namespace prix {

SequenceTrie::SequenceTrie() {
  nodes_.push_back(Node{});  // root, depth 0
}

uint32_t SequenceTrie::Step(uint32_t cur, uint64_t key) {
  auto it = nodes_[cur].children.find(key);
  uint32_t next;
  if (it == nodes_[cur].children.end()) {
    next = static_cast<uint32_t>(nodes_.size());
    Node n;
    n.key = key;
    n.parent = cur;
    n.depth = nodes_[cur].depth + 1;
    nodes_.push_back(std::move(n));
    nodes_[cur].children.emplace(key, next);
  } else {
    next = it->second;
  }
  ++nodes_[next].seqs_through;
  return next;
}

std::vector<uint32_t> SequenceTrie::SortedChildren(uint32_t id) const {
  std::vector<uint32_t> kids;
  kids.reserve(nodes_[id].children.size());
  for (const auto& [key, child] : nodes_[id].children) kids.push_back(child);
  std::sort(kids.begin(), kids.end(), [this](uint32_t a, uint32_t b) {
    return nodes_[a].key < nodes_[b].key;
  });
  return kids;
}

uint32_t SequenceTrie::MaxDepth() const {
  uint32_t max_depth = 0;
  for (const Node& n : nodes_) max_depth = std::max(max_depth, n.depth);
  return max_depth;
}

}  // namespace prix
