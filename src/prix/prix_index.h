#ifndef PRIX_PRIX_PRIX_INDEX_H_
#define PRIX_PRIX_PRIX_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "btree/btree.h"
#include "db/database.h"
#include "prix/doc_store.h"
#include "prix/maxgap.h"
#include "trie/range_labeler.h"
#include "trie/trie_builder.h"
#include "xml/document.h"

namespace prix {

/// Label used for the dummy children of Extended-Prüfer trees. Dummies are
/// always leaves, so this label never enters any sequence or index.
inline constexpr LabelId kDummyLabel = 0xfffffffeu;

/// Key of the Trie-Symbol index: all symbols share one B+-tree, keyed by
/// (symbol, LeftPos). Range descent for symbol e over trie scope (l, r]
/// scans keys (e, l+1) .. (e, r). The paper builds one B+-tree per tag;
/// a shared tree with a composite key has the same asymptotics and page
/// behaviour without needing one tree per distinct value label (see
/// DESIGN.md).
struct SymbolKey {
  LabelId label;
  uint32_t pad = 0;
  uint64_t left;

  friend bool operator<(const SymbolKey& a, const SymbolKey& b) {
    if (a.label != b.label) return a.label < b.label;
    return a.left < b.left;
  }
};

/// Value of the Trie-Symbol index: the node's RightPos and its level in the
/// trie (= the position of this label within the LPS, 1-based).
struct TrieNodeValue {
  uint64_t right;
  uint32_t level;
  uint32_t pad = 0;
};

/// Key of the Docid index: (LeftPos of the trie node where an LPS ends,
/// sequence number to disambiguate multiple documents ending at one node).
struct DocKey {
  uint64_t left;
  uint32_t seq;
  uint32_t pad = 0;

  friend bool operator<(const DocKey& a, const DocKey& b) {
    if (a.left != b.left) return a.left < b.left;
    return a.seq < b.seq;
  }
};

/// Options controlling index construction.
struct PrixIndexOptions {
  /// false: RPIndex (Regular-Prüfer); true: EPIndex (Extended-Prüfer,
  /// Sec. 5.6) — leaves get dummy children so every label enters the LPS.
  bool extended = false;
};

/// Construction statistics (reported by benches and EXPERIMENTS.md).
struct PrixIndexBuildStats {
  uint64_t trie_nodes = 0;
  uint64_t max_path_sharing = 0;  ///< most sequences through one deepest node
  uint64_t symbol_entries = 0;
  uint64_t docid_entries = 0;
  uint64_t total_sequence_length = 0;
  uint64_t pages_after_build = 0;
};

/// The PRIX index of Fig. 3: a virtual trie over the collection's Labeled
/// Prüfer sequences, materialized as a Trie-Symbol B+-tree and a Docid
/// B+-tree, plus the document store (NPS + leaf lists) and the MaxGap table.
class PrixIndex {
 public:
  using SymbolTree = BPlusTree<SymbolKey, TrieNodeValue>;
  using DocTree = BPlusTree<DocKey, DocId>;

  /// Builds the index over `documents` (DocIds must equal vector positions).
  static Result<std::unique_ptr<PrixIndex>> Build(
      const std::vector<Document>& documents, BufferPool* pool,
      PrixIndexOptions options, PrixIndexBuildStats* stats = nullptr);

  /// Persists the index (tree roots, doc-store extents, MaxGap table,
  /// childless labels) into `db` and registers it in the database catalog
  /// under `name` (kind kPrixRegular/kPrixExtended), committing the catalog
  /// crash-safely. Overwrites any previous entry of that name.
  Status Save(Database* db, const std::string& name) const;

  /// Reopens the index registered under `name` in `db`'s catalog.
  static Result<std::unique_ptr<PrixIndex>> Open(Database* db,
                                                 const std::string& name);

  /// Reopens an index from a catalog entry directly — the snapshot read
  /// path, where the entry comes from a pinned Snapshot instead of the live
  /// catalog (see db/snapshot_view.h).
  static Result<std::unique_ptr<PrixIndex>> OpenFromEntry(
      BufferPool* pool, const Database::IndexEntry& entry);

  /// Best-effort salvage into `dst` (a different, fresh database): walks
  /// both B+-trees via WalkReachable, bulk-loading every reachable entry
  /// into new trees and skipping poisoned subtrees, and copies every
  /// readable document record (unreadable ones become empty placeholders so
  /// DocIds stay aligned with surviving Docid-index entries). The rebuilt
  /// index is registered in `dst`'s catalog under `name`. Only a failure to
  /// WRITE to `dst` returns non-OK; source corruption is counted in
  /// `stats`, never fatal.
  Status Salvage(Database* dst, const std::string& name,
                 SalvageStats* stats) const;

  SymbolTree& symbol_index() { return *symbol_index_; }
  const SymbolTree& symbol_index() const { return *symbol_index_; }
  DocTree& docid_index() { return *docid_index_; }
  const DocTree& docid_index() const { return *docid_index_; }
  const DocStore& docs() const { return *docs_; }
  const MaxGapTable& maxgap() const { return maxgap_; }

  // ---- online-ingest surface (src/prix/database_ingest.cc) ----

  /// Routes every subsequent page write of both B+-trees and the doc store
  /// through the copy-on-write context (nullptr detaches). While attached,
  /// the trees' meta page ids change on first mutation; re-read
  /// meta_page_id() when serializing the catalog for publication.
  void SetCow(CowContext* cow) {
    symbol_index_->SetCow(cow);
    docid_index_->SetCow(cow);
    docs_->SetCow(cow);
  }

  /// True when `doc` has been deleted. Tombstoned DocIds keep their
  /// DocStore record (the store is append-only) but are skipped by the
  /// matcher and query processor and never reused.
  bool IsDeleted(DocId doc) const {
    return tombstones_.find(doc) != tombstones_.end();
  }
  void Tombstone(DocId doc) { tombstones_.insert(doc); }
  const std::unordered_set<DocId>& tombstones() const { return tombstones_; }
  size_t num_live_docs() const {
    return docs_->num_docs() - tombstones_.size();
  }

  DocStore& docs_mut() { return *docs_; }
  MaxGapTable& maxgap_mut() { return maxgap_; }
  void AddChildlessLabel(LabelId label) {
    auto it = std::lower_bound(childless_labels_.begin(),
                               childless_labels_.end(), label);
    if (it == childless_labels_.end() || *it != label) {
      childless_labels_.insert(it, label);
    }
  }
  void set_root_range(RangeLabel range) { root_range_ = range; }

  /// Serializes the full index catalog (format tag, options, tree roots,
  /// store extents, MaxGap, childless labels, tombstones) into `blob` —
  /// what Save writes, exposed so a write transaction can publish through
  /// Database::CommitBatch instead of PutIndex.
  void SerializeCatalog(std::vector<char>* blob) const;

  /// Rebuilds document `doc` from its stored Prüfer transform — RP records
  /// via the stored leaf list, EP records by synthesizing the dummy leaves
  /// and stripping them from the reconstruction. Used by ingest (to learn
  /// which tag streams a delete touches) and by salvage (to regenerate
  /// derived ViST/TwigStack indexes from the surviving documents). Fails on
  /// tombstoned or unreadable records.
  Result<Document> ReconstructDocument(DocId doc) const;

  /// Scope of the virtual trie root: every node's LeftPos lies in
  /// (root.left, root.right].
  RangeLabel root_range() const { return root_range_; }
  bool extended() const { return options_.extended; }
  size_t num_docs() const { return docs_->num_docs(); }
  const PrixIndexOptions& options() const { return options_; }

  /// True if some node labeled `label` occurs WITHOUT children anywhere in
  /// the collection. Labels for which this is false may be safely added to
  /// regular query sequences via a dummy child (the Sec. 4.4 leaf
  /// treatment): any matching data node is guaranteed a deletion recording
  /// its label.
  bool LabelOccursChildless(LabelId label) const {
    return std::binary_search(childless_labels_.begin(),
                              childless_labels_.end(), label);
  }

 private:
  PrixIndex() = default;

  PrixIndexOptions options_;
  std::unique_ptr<SymbolTree> symbol_index_;
  std::unique_ptr<DocTree> docid_index_;
  std::unique_ptr<DocStore> docs_;
  MaxGapTable maxgap_;
  RangeLabel root_range_;
  /// Sorted and distinct, so an open decodes it with one copy: a large
  /// collection has tens of thousands of childless (value) labels.
  std::vector<LabelId> childless_labels_;
  std::unordered_set<DocId> tombstones_;
};

}  // namespace prix

#endif  // PRIX_PRIX_PRIX_INDEX_H_
