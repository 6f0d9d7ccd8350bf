#ifndef PRIX_PRIX_DOC_STORE_H_
#define PRIX_PRIX_DOC_STORE_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "prufer/prufer.h"
#include "storage/record_store.h"

namespace prix {

/// Per-document data needed by the refinement phases: the LPS/NPS pair plus,
/// for Regular-Prüfer stores, the leaf list (Sec. 4.3: "the label and
/// postorder number of every leaf node should be stored in the database").
struct StoredDoc {
  PruferSequences seq;
  std::vector<LeafEntry> leaves;
};

/// Paged store of StoredDoc records, one per document, appended at build
/// time and fetched (with buffer-pool-counted I/O) during refinement.
///
/// Records are varint-coded (DESIGN.md §5h): the scalars are varints and
/// the LPS/NPS arrays are block-coded in 128-entry blocks, each opening
/// with a restart value followed by zig-zag varint deltas, preceded by a
/// per-block byte-length directory (the skip offsets — a reader can jump to
/// block k by summing k directory entries instead of decoding everything
/// before it, and the decoder uses them as hard bounds for each block's
/// varints). Leaf lists are short and stored as (varint label, zig-zag
/// delta postorder) pairs.
class DocStore {
 public:
  explicit DocStore(BufferPool* pool) : store_(pool) {}
  DocStore(DocStore&&) = default;
  DocStore& operator=(DocStore&&) = default;

  /// Copy-on-write passthrough for write transactions (see RecordStore).
  void SetCow(CowContext* cow) { store_.SetCow(cow); }

  /// Appends the record for the next DocId (must be called in DocId order).
  Status Append(DocId doc, const PruferSequences& seq,
                const std::vector<LeafEntry>& leaves);

  /// Fetches the record for `doc`.
  Result<StoredDoc> Load(DocId doc) const;

  size_t num_docs() const { return store_.num_records(); }
  uint64_t total_bytes() const { return store_.total_bytes(); }
  uint64_t num_pages() const { return store_.num_pages(); }

  /// Catalog (de)serialization for index persistence.
  void SerializeTo(std::vector<char>* out) const { store_.SerializeTo(out); }
  static Result<DocStore> Deserialize(BufferPool* pool, const char** p,
                                      const char* end) {
    PRIX_ASSIGN_OR_RETURN(RecordStore store,
                          RecordStore::Deserialize(pool, p, end));
    return DocStore(std::move(store));
  }

 private:
  explicit DocStore(RecordStore store) : store_(std::move(store)) {}

  RecordStore store_;
};

}  // namespace prix

#endif  // PRIX_PRIX_DOC_STORE_H_
