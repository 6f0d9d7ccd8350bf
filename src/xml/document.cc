#include "xml/document.h"

#include <algorithm>

namespace prix {

NodeId Document::AddRoot(LabelId label, NodeKind kind) {
  PRIX_CHECK(nodes_.empty());
  nodes_.push_back(Node{label, kind, kInvalidNode, {}});
  return 0;
}

NodeId Document::AddChild(NodeId parent, LabelId label, NodeKind kind) {
  PRIX_CHECK(parent < nodes_.size());
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{label, kind, parent, {}});
  nodes_[parent].children.push_back(id);
  return id;
}

std::vector<uint32_t> Document::ComputePostorder() const {
  std::vector<uint32_t> number(nodes_.size(), 0);
  if (nodes_.empty()) return number;
  uint32_t counter = 0;
  // Iterative postorder: (node, next-child-index) stack.
  std::vector<std::pair<NodeId, size_t>> stack;
  stack.emplace_back(root(), 0);
  while (!stack.empty()) {
    auto& [node_id, child_idx] = stack.back();
    const auto& kids = nodes_[node_id].children;
    if (child_idx < kids.size()) {
      NodeId next = kids[child_idx++];
      stack.emplace_back(next, 0);
    } else {
      number[node_id] = ++counter;
      stack.pop_back();
    }
  }
  return number;
}

std::vector<NodeId> Document::ComputePostorderInverse() const {
  std::vector<uint32_t> number = ComputePostorder();
  std::vector<NodeId> inverse(nodes_.size() + 1, kInvalidNode);
  for (NodeId v = 0; v < nodes_.size(); ++v) inverse[number[v]] = v;
  return inverse;
}

std::vector<uint32_t> Document::ComputeDepths() const {
  std::vector<uint32_t> depth(nodes_.size(), 0);
  if (nodes_.empty()) return depth;
  depth[root()] = 1;
  // Arena order puts parents before children, so one forward pass suffices.
  for (NodeId v = 1; v < nodes_.size(); ++v) {
    depth[v] = depth[nodes_[v].parent] + 1;
  }
  return depth;
}

uint32_t Document::MaxDepth() const {
  auto depths = ComputeDepths();
  return depths.empty() ? 0 : *std::max_element(depths.begin(), depths.end());
}

Status CheckDocumentDepth(const Document& doc) {
  const uint32_t depth = doc.MaxDepth();
  if (depth <= kMaxDocumentDepth) return Status::OK();
  return Status::InvalidArgument(
      "document is " + std::to_string(depth) + " levels deep; at most " +
      std::to_string(kMaxDocumentDepth) + " are accepted");
}

size_t Document::CountElements() const {
  size_t n = 0;
  for (const auto& node : nodes_) n += node.kind == NodeKind::kElement;
  return n;
}

size_t Document::CountValues() const {
  size_t n = 0;
  for (const auto& node : nodes_) n += node.kind == NodeKind::kValue;
  return n;
}

namespace {

void CopySubtree(const Document& src, NodeId src_node, Document& dst,
                 NodeId dst_parent) {
  NodeId copied = dst_parent == kInvalidNode
                      ? dst.AddRoot(src.label(src_node), src.kind(src_node))
                      : dst.AddChild(dst_parent, src.label(src_node),
                                     src.kind(src_node));
  for (NodeId child : src.children(src_node)) {
    CopySubtree(src, child, dst, copied);
  }
}

}  // namespace

std::vector<Document> SplitIntoRecords(const Document& doc) {
  std::vector<Document> records;
  if (doc.empty()) return records;
  records.reserve(doc.children(doc.root()).size());
  for (NodeId child : doc.children(doc.root())) {
    Document record(static_cast<DocId>(records.size()));
    CopySubtree(doc, child, record, kInvalidNode);
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace prix
