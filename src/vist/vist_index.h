#ifndef PRIX_VIST_VIST_INDEX_H_
#define PRIX_VIST_VIST_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "storage/record_store.h"
#include "trie/virtual_trie.h"
#include "vist/vist_sequence.h"

namespace prix {

/// Build-time statistics (Sec. 2's storage argument shows up in
/// prefix_labels: O(n^2) for unary trees).
struct VistIndexBuildStats {
  uint64_t trie_nodes = 0;
  uint64_t dancestor_entries = 0;
  uint64_t distinct_prefixes = 0;
  uint64_t prefix_labels = 0;  ///< total labels across interned prefixes
  uint64_t pages_after_build = 0;
};

/// The ViST baseline index: a virtual trie over structure-encoded sequences
/// and a paged store of the raw sequences (used to verify candidate
/// documents, since ViST admits false alarms — Fig. 1(b)). The trie is
/// persisted like PRIX's (trie/virtual_trie.h): its node tree is ViST's
/// D-Ancestorship index, keyed (symbol, LeftPos) with the node's interned
/// prefix in the value's aux word. Scoped descent scans all trie nodes of a
/// symbol within a range and filters them by their (symbol, prefix) key —
/// every key with the symbol is examined when the query prefix carries
/// wildcards, which is the behaviour the paper measures on TREEBANK.
class VistIndex {
 public:
  static Result<std::unique_ptr<VistIndex>> Build(
      const std::vector<Document>& documents, BufferPool* pool,
      VistIndexBuildStats* stats = nullptr);

  /// Persists the index (tree roots, sequence-store extents, prefix
  /// dictionary) into `db` and registers it in the catalog under `name`
  /// (kind kVist). Save/Open parity with PrixIndex.
  Status Save(Database* db, const std::string& name) const;

  /// Reopens the index registered under `name` in `db`'s catalog.
  static Result<std::unique_ptr<VistIndex>> Open(Database* db,
                                                 const std::string& name);

  /// Reopens an index from a catalog entry directly — the snapshot read
  /// path (entry from a pinned Snapshot) and the ingest acquire path. The
  /// kind check happens here; Open delegates.
  static Result<std::unique_ptr<VistIndex>> OpenFromEntry(
      BufferPool* pool, const Database::IndexEntry& entry);

  VirtualTrie& trie() { return trie_; }
  const VirtualTrie& trie() const { return trie_; }
  const PrefixDictionary& prefixes() const { return prefixes_; }
  /// Distinct prefixes occurring with `symbol` — the unique (symbol,
  /// prefix) D-Ancestorship keys of that symbol.
  const std::vector<PrefixId>& SymbolPrefixes(LabelId symbol) const;
  size_t num_docs() const { return seq_store_->num_records(); }

  // ---- online-ingest surface (src/prix/database_ingest.cc) ----
  //
  // ViST deletes remove only the Docid-index entry: query candidates come
  // solely from Docid scans, so the dead sequence record and any
  // now-unreferenced trie nodes are unreachable garbage, not wrong answers.
  // No tombstone set is needed.

  /// Routes every subsequent page write of both B+-trees and the sequence
  /// store through the copy-on-write context (nullptr detaches).
  void SetCow(CowContext* cow) {
    trie_.SetCow(cow);
    seq_store_->SetCow(cow);
  }

  /// Interns `doc`'s structure-encoded sequence into the prefix dictionary
  /// and appends it to the sequence store as record `d`.
  Result<std::vector<VistItem>> AppendSequence(const Document& doc, DocId d);

  /// Records that `prefix` now occurs with `symbol` (insert-if-absent), so
  /// scoped descents keep seeing every live (symbol, prefix) key.
  void AddSymbolPrefix(LabelId symbol, PrefixId prefix) {
    std::vector<PrefixId>& list = symbol_prefixes_[symbol];
    for (PrefixId p : list) {
      if (p == prefix) return;
    }
    list.push_back(prefix);
  }

  /// Serializes the full index catalog into `blob` — what Save writes,
  /// exposed so a write transaction can publish through
  /// Database::CommitBatch instead of PutIndex.
  void SerializeCatalog(std::vector<char>* blob) const;

  /// Reloads document `doc` as a tree (rebuilt from its structure-encoded
  /// sequence) for post-verification. I/O goes through the buffer pool.
  Result<Document> LoadDocument(DocId doc) const;

 private:
  VistIndex() = default;

  VirtualTrie trie_;
  std::unique_ptr<RecordStore> seq_store_;
  PrefixDictionary prefixes_;
  std::unordered_map<LabelId, std::vector<PrefixId>> symbol_prefixes_;
};

}  // namespace prix

#endif  // PRIX_VIST_VIST_INDEX_H_
