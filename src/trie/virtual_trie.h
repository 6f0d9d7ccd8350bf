#ifndef PRIX_TRIE_VIRTUAL_TRIE_H_
#define PRIX_TRIE_VIRTUAL_TRIE_H_

// The persisted virtual trie (Sec. 5.2) that PRIX and its ViST baseline
// share: one node B+-tree keyed (label, LeftPos), one Docid B+-tree keyed
// (LeftPos of the node where a sequence ends, sequence number), and the
// root's range label. PRIX's trie runs over Labeled Prüfer sequences, ViST's
// over structure-encoded (symbol, prefix) sequences; both are range-labeled
// and stored the same way, so one object bulk-loads, serializes, opens and
// mutates either. The engines differ only in the child key each passes:
// TrieChildKey(label, aux) with aux = 0 for PRIX and aux = the interned
// prefix for ViST. The node tree stores the label in the key and aux in the
// value, so a node's child key is recoverable from its entry.
#include <cstdint>
#include <vector>

#include "btree/btree.h"
#include "common/macros.h"
#include "common/result.h"
#include "trie/dynamic_trie.h"
#include "trie/range_labeler.h"
#include "trie/trie_builder.h"
#include "xml/document.h"

namespace prix {

/// Key of the node tree — the paper's Trie-Symbol index. All labels share
/// one B+-tree, keyed by (label, LeftPos): a range descent for label e over
/// trie scope (l, r] scans keys (e, l+1) .. (e, r). The paper builds one
/// B+-tree per tag; a shared tree with a composite key has the same
/// asymptotics and page behaviour without one tree per distinct value label
/// (see DESIGN.md).
struct SymbolKey {
  LabelId label;
  uint32_t pad = 0;
  uint64_t left;

  friend bool operator<(const SymbolKey& a, const SymbolKey& b) {
    if (a.label != b.label) return a.label < b.label;
    return a.left < b.left;
  }
};

/// Value of the node tree: the node's RightPos, its level in the trie (the
/// position of its key within the sequence, 1-based), and the low word of
/// its child key — ViST's prefix id, 0 for PRIX.
struct TrieNodeValue {
  uint64_t right;
  uint32_t level;
  uint32_t aux = 0;
};

/// Key of the Docid tree: (LeftPos of the trie node where a sequence ends,
/// sequence number to disambiguate several documents ending at one node).
struct DocKey {
  uint64_t left;
  uint32_t seq;
  uint32_t pad = 0;

  friend bool operator<(const DocKey& a, const DocKey& b) {
    if (a.left != b.left) return a.left < b.left;
    return a.seq < b.seq;
  }
};

/// The 64-bit key that tells a trie node from its siblings, in SequenceTrie
/// at build and in DynamicTrie on insert. Packing the label high keeps
/// sibling order equal to label order when aux is 0.
inline uint64_t TrieChildKey(LabelId label, uint32_t aux) {
  return (static_cast<uint64_t>(label) << 32) | aux;
}

class VirtualTrie {
 public:
  using NodeTree = BPlusTree<SymbolKey, TrieNodeValue>;
  using DocTree = BPlusTree<DocKey, DocId>;

  /// Labels `trie` exactly (trie/range_labeler.h) and bulk-loads the node
  /// tree, then the Docid tree, each from its entries in key order.
  static Result<VirtualTrie> BulkLoad(const SequenceTrie& trie,
                                      BufferPool* pool);

  /// Appends the 24 catalog bytes: root range (left, right), then the meta
  /// page ids of the node and Docid trees.
  void SerializeTo(std::vector<char>* blob) const;
  /// Reads what SerializeTo wrote at `*p` and opens both trees.
  static Result<VirtualTrie> Deserialize(BufferPool* pool, const char** p,
                                         const char* end);

  NodeTree& nodes() { return nodes_; }
  const NodeTree& nodes() const { return nodes_; }
  DocTree& docs() { return docs_; }
  const DocTree& docs() const { return docs_; }
  /// Scope of the virtual root: every node's LeftPos lies in
  /// (root.left, root.right].
  RangeLabel root_range() const { return root_range_; }

  /// Routes every later page write of both trees through the copy-on-write
  /// context (nullptr detaches). Their meta page ids change on the first
  /// mutation, so serialize after the writes.
  void SetCow(CowContext* cow) {
    nodes_.SetCow(cow);
    docs_.SetCow(cow);
  }

  /// Rebuilds the writer's mirror from both trees. A Docid entry for a
  /// DocId at or past `num_docs` is Corruption.
  Status LoadMirror(DynamicTrie* mirror, size_t num_docs) const;

  /// Threads one sequence of child keys through `mirror` and adds `doc`'s
  /// Docid entry at its end node, persisting through this trie's ops.
  Status InsertSequence(DynamicTrie* mirror,
                        const std::vector<uint64_t>& ckeys, DocId doc) {
    PRIX_ASSIGN_OR_RETURN(const uint64_t end_left,
                          mirror->InsertPath(ckeys, *this));
    return mirror->InsertDocEntry(end_left, doc, *this).status();
  }

  /// Calls `visit(doc)` for every Docid entry keyed in [left, right]: the
  /// documents whose sequences end in the subtree of the node labeled
  /// (left, right]. `cursor` is the caller's reusable Docid-tree cursor.
  template <typename Visit>
  static Status ScanDocs(DocTree::Iterator* cursor, uint64_t left,
                         uint64_t right, Visit&& visit) {
    PRIX_RETURN_NOT_OK(cursor->Reseek(DocKey{left, 0, 0}));
    while (cursor->Valid() && cursor->key().left <= right) {
      visit(cursor->value());
      PRIX_RETURN_NOT_OK(cursor->Next());
    }
    return Status::OK();
  }

  // ---- DynamicTrie persistence ops (trie/dynamic_trie.h) ----
  Status InsertNode(uint64_t ckey, uint64_t left, uint64_t right,
                    uint32_t level) {
    return nodes_.Insert(NodeKey(ckey, left),
                         TrieNodeValue{right, level, Aux(ckey)});
  }
  Status DeleteNode(uint64_t ckey, uint64_t left) {
    return nodes_.Delete(NodeKey(ckey, left));
  }
  Status InsertDoc(uint64_t left, uint32_t seq, DocId doc) {
    return docs_.Insert(DocKey{left, seq, 0}, doc);
  }
  Status DeleteDoc(uint64_t left, uint32_t seq) {
    return docs_.Delete(DocKey{left, seq, 0});
  }
  void SetRootRange(uint64_t left, uint64_t right) {
    root_range_ = RangeLabel{left, right};
  }

 private:
  static SymbolKey NodeKey(uint64_t ckey, uint64_t left) {
    return SymbolKey{static_cast<LabelId>(ckey >> 32), 0, left};
  }
  static uint32_t Aux(uint64_t ckey) {
    return static_cast<uint32_t>(ckey & 0xffffffffu);
  }

  NodeTree nodes_;
  DocTree docs_;
  RangeLabel root_range_;
};

}  // namespace prix

#endif  // PRIX_TRIE_VIRTUAL_TRIE_H_
