#ifndef PRIX_XML_DOCUMENT_H_
#define PRIX_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "xml/tag_dictionary.h"

namespace prix {

/// Index of a node within one Document's node arena.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Identifier of a document within a collection.
using DocId = uint32_t;

/// The deepest document accepted, counted in nodes on a root-to-leaf path
/// (root = 1, attribute and value nodes included). Tree builders and matchers
/// walk documents recursively, so parsing and ingest refuse anything deeper.
inline constexpr uint32_t kMaxDocumentDepth = 8192;

/// Whether a node is an element (tag label) or a value (character data).
enum class NodeKind : uint8_t { kElement, kValue };

/// An ordered labeled tree modeling one XML document (Sec. 2 of the paper).
/// Nodes live in an arena; node 0 is the root. Children are kept in document
/// order. Attributes are represented as subelements, as the paper prescribes.
class Document {
 public:
  struct Node {
    LabelId label = kInvalidLabel;
    NodeKind kind = NodeKind::kElement;
    NodeId parent = kInvalidNode;
    std::vector<NodeId> children;
  };

  Document() = default;
  explicit Document(DocId id) : doc_id_(id) {}

  Document(Document&&) noexcept = default;
  Document& operator=(Document&&) noexcept = default;
  Document(const Document&) = default;
  Document& operator=(const Document&) = default;

  DocId doc_id() const { return doc_id_; }
  void set_doc_id(DocId id) { doc_id_ = id; }

  /// Creates the root node. Requires the document to be empty.
  NodeId AddRoot(LabelId label, NodeKind kind = NodeKind::kElement);

  /// Appends a child of `parent` (in document order). Requires valid parent.
  NodeId AddChild(NodeId parent, LabelId label,
                  NodeKind kind = NodeKind::kElement);

  size_t num_nodes() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  NodeId root() const { return 0; }

  const Node& node(NodeId id) const {
    PRIX_DCHECK(id < nodes_.size());
    return nodes_[id];
  }
  LabelId label(NodeId id) const { return node(id).label; }
  NodeKind kind(NodeId id) const { return node(id).kind; }
  NodeId parent(NodeId id) const { return node(id).parent; }
  const std::vector<NodeId>& children(NodeId id) const {
    return node(id).children;
  }
  bool is_leaf(NodeId id) const { return node(id).children.empty(); }

  /// 1-based postorder numbers: out[node] in [1, num_nodes()]. The root gets
  /// num_nodes(). This is the numbering scheme PRIX uses for Prüfer
  /// construction (Sec. 3.2).
  std::vector<uint32_t> ComputePostorder() const;

  /// Inverse of ComputePostorder(): node_of[k] is the node with postorder
  /// number k (index 0 unused).
  std::vector<NodeId> ComputePostorderInverse() const;

  /// Depth of each node (root = 1). Max depth is the paper's Table 2 metric.
  std::vector<uint32_t> ComputeDepths() const;
  uint32_t MaxDepth() const;

  /// Number of element / value nodes.
  size_t CountElements() const;
  size_t CountValues() const;

 private:
  DocId doc_id_ = 0;
  std::vector<Node> nodes_;
};

/// A set of documents sharing one TagDictionary — the paper's collection Δ.
struct DocumentCollection {
  TagDictionary dictionary;
  std::vector<Document> documents;

  DocumentCollection() = default;
  DocumentCollection(const DocumentCollection&) = delete;
  DocumentCollection& operator=(const DocumentCollection&) = delete;
  DocumentCollection(DocumentCollection&&) = default;
  DocumentCollection& operator=(DocumentCollection&&) = default;

  size_t TotalNodes() const {
    size_t n = 0;
    for (const auto& d : documents) n += d.num_nodes();
    return n;
  }
};

/// Splits `doc` into one document per child of its root — how the paper turns
/// a monolithic dataset file (e.g. the whole DBLP tree) into its collection
/// of 328858 record documents.
std::vector<Document> SplitIntoRecords(const Document& doc);

/// InvalidArgument when `doc` is deeper than kMaxDocumentDepth.
Status CheckDocumentDepth(const Document& doc);

}  // namespace prix

#endif  // PRIX_XML_DOCUMENT_H_
