#ifndef PRIX_TWIGSTACK_POSITION_STREAM_H_
#define PRIX_TWIGSTACK_POSITION_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "db/database.h"
#include "storage/buffer_pool.h"
#include "storage/cow.h"
#include "xml/document.h"

namespace prix {

/// Positional representation of one element instance: the region encoding
/// (DocId, LeftPos:RightPos, LevelNum) of Bruno et al., plus the node's
/// postorder number so reported matches are comparable with PRIX's.
struct ElementPos {
  DocId doc;
  uint32_t left;
  uint32_t right;
  uint32_t level;
  uint32_t post;

  /// Global order key of the element's start position.
  uint64_t BeginKey() const {
    return (static_cast<uint64_t>(doc) << 32) | left;
  }
  /// Global order key of the element's end position.
  uint64_t EndKey() const {
    return (static_cast<uint64_t>(doc) << 32) | right;
  }
};

inline constexpr uint64_t kInfiniteKey = ~uint64_t{0};

/// Per-tag sorted streams of element positions, stored on 8 KB pages.
/// TwigStack consumes them through SimpleStreamCursor; TwigStackXB through
/// the XB-tree (xb_tree.h).
///
/// Streams are packed: Build lays them back to back over shared pages, so a
/// page may hold the tail of one stream, several whole streams and the head
/// of the next. A stream's entry 0 sits at slot `first_slot` of `pages[0]`
/// and the rest follow contiguously (Locate has the arithmetic).
class StreamStore {
 public:
  struct StreamInfo {
    std::vector<PageId> pages;
    uint32_t count = 0;
    /// Slot of entry 0 on pages[0].
    uint32_t first_slot = 0;
  };

  static constexpr size_t kEntriesPerPage = kPageUsable / sizeof(ElementPos);

  /// A run of a stream's entries on one of its pages.
  struct PageRun {
    uint32_t page;   ///< index into StreamInfo::pages
    uint32_t slot;   ///< slot of the run's first entry on that page
    uint32_t count;  ///< entries in the run
  };
  /// The layout's slot arithmetic, the one place it lives: entry `index` is
  /// at slot (first_slot + index) % kEntriesPerPage of
  /// pages[(first_slot + index) / kEntriesPerPage]; the run goes on to the
  /// end of that page or of the stream. `index` may equal count (the run is
  /// then empty and names where the next append goes).
  static PageRun Locate(const StreamInfo& info, uint32_t index) {
    const uint64_t pos = uint64_t{info.first_slot} + index;
    const auto slot = static_cast<uint32_t>(pos % kEntriesPerPage);
    return PageRun{static_cast<uint32_t>(pos / kEntriesPerPage), slot,
                   std::min(static_cast<uint32_t>(kEntriesPerPage) - slot,
                            info.count - index)};
  }
  /// The stream's whole run on pages[page].
  static PageRun RunOnPage(const StreamInfo& info, uint32_t page) {
    const uint32_t first =
        page == 0 ? 0
                  : page * static_cast<uint32_t>(kEntriesPerPage) -
                        info.first_slot;
    return Locate(info, first);
  }

  /// Builds streams for every label in the collection. Every node of every
  /// document (elements and values alike) contributes one entry to its
  /// label's stream; streams are sorted by (doc, left) and packed in label
  /// order.
  static Result<std::unique_ptr<StreamStore>> Build(
      const std::vector<Document>& documents, BufferPool* pool);

  /// Registers the stream directory (per-label page lists) in `db`'s
  /// catalog under `name` (kind kTwigStreams).
  Status Save(Database* db, const std::string& name) const;

  /// Reopens streams registered under `name` in `db`'s catalog.
  static Result<std::unique_ptr<StreamStore>> Open(Database* db,
                                                   const std::string& name);

  /// Reopens a stream store from a catalog entry directly — the snapshot
  /// read path and the ingest acquire path. The kind check happens here;
  /// Open delegates.
  static Result<std::unique_ptr<StreamStore>> OpenFromEntry(
      BufferPool* pool, const Database::IndexEntry& entry);

  // ---- online-ingest surface (src/prix/database_ingest.cc) ----
  //
  // Streams stay append-only: an insert appends the new document's entries
  // to the tail of each touched tag stream (DocIds are assigned
  // monotonically, so (doc, left) order is preserved), and a delete
  // tombstones the DocId — cursors skip dead entries, nothing is compacted
  // in place. The catalog persists the document count and the tombstone
  // set.
  //
  // An append never writes into a committed page: a committed tail page
  // (shared with other streams or not) is copied first, and the old page is
  // reported freed only once no stream lists it any more. Pages ingest
  // allocates are private to one stream and are extended in place.

  /// Appends every node of `doc` to its label's stream under DocId
  /// `assigned` (which must equal num_docs()). New and COW-copied tail
  /// pages are reported to `cow` (required), as are committed pages the
  /// last of their streams moved off; each touched label is appended to
  /// `touched` (for the paired XB-forest's incremental rebuild).
  Status AppendDocument(const Document& doc, DocId assigned, CowContext* cow,
                        std::vector<LabelId>* touched);

  bool IsDeleted(DocId doc) const {
    return tombstones_.find(doc) != tombstones_.end();
  }
  void Tombstone(DocId doc) { tombstones_.insert(doc); }
  const std::unordered_set<DocId>& tombstones() const { return tombstones_; }
  /// Documents ever appended (incl. tombstoned).
  uint32_t num_docs() const { return num_docs_; }

  /// Serializes the stream directory into `blob` — what Save writes,
  /// exposed so a write transaction can publish through
  /// Database::CommitBatch instead of PutIndex.
  void SerializeCatalog(std::vector<char>* blob) const;

  bool HasStream(LabelId label) const {
    return streams_.find(label) != streams_.end();
  }
  /// Null when the label never occurs (an always-empty stream).
  const StreamInfo* Find(LabelId label) const {
    auto it = streams_.find(label);
    return it == streams_.end() ? nullptr : &it->second;
  }
  BufferPool* pool() const { return pool_; }
  uint64_t total_entries() const { return total_entries_; }
  /// Distinct pages the streams occupy.
  uint64_t total_pages() const { return page_streams_.size(); }
  /// All streams by label (the verifier's enumeration; queries use Find).
  const std::unordered_map<LabelId, StreamInfo>& streams() const {
    return streams_;
  }

  /// Reads entry `index` of `info` (page fetch counted by the pool).
  Result<ElementPos> ReadEntry(const StreamInfo& info, uint32_t index) const;

 private:
  explicit StreamStore(BufferPool* pool) : pool_(pool) {}

  /// Appends `entries` to the tail of `info`'s page chain, COW-copying a
  /// non-fresh partial tail page first.
  Status AppendEntries(StreamInfo* info, const std::vector<ElementPos>& entries,
                       CowContext* cow);
  /// Records one stream's page list in page_streams_.
  void CountPages(const StreamInfo& info);

  BufferPool* pool_;
  std::unordered_map<LabelId, StreamInfo> streams_;
  std::unordered_set<DocId> tombstones_;
  uint32_t num_docs_ = 0;
  uint64_t total_entries_ = 0;
  /// Number of streams listing each page (in memory only; rebuilt from the
  /// catalog at open). Decides when a copied-away page may be freed.
  std::unordered_map<PageId, uint32_t> page_streams_;
};

/// Sequential cursor over one tag stream with page-granular buffering: each
/// page is fetched once (through the buffer pool) when first entered.
class SimpleStreamCursor {
 public:
  /// `info` may be null (empty stream).
  SimpleStreamCursor(const StreamStore* store,
                     const StreamStore::StreamInfo* info)
      : store_(store), info_(info) {}

  bool Eof() const {
    return info_ == nullptr || index_ >= info_->count;
  }
  /// Begin key of the current element, or kInfiniteKey at eof.
  uint64_t NextL() const {
    return Eof() ? kInfiniteKey : current_.BeginKey();
  }
  uint64_t NextR() const { return Eof() ? kInfiniteKey : current_.EndKey(); }
  const ElementPos& Current() const { return current_; }

  /// Loads the first element; call once before use.
  Status Init() { return LoadCurrent(); }
  Status Advance() {
    ++index_;
    return LoadCurrent();
  }

 private:
  Status LoadCurrent();

  const StreamStore* store_;
  const StreamStore::StreamInfo* info_;
  uint32_t index_ = 0;
  ElementPos current_{};
  // One-page read-ahead buffer: the stream's entries [buffer_first_,
  // buffer_first_ + buffer_.size()).
  std::vector<ElementPos> buffer_;
  uint32_t buffer_first_ = 0;
};

/// Computes the region encoding of `doc`: out[node] = its ElementPos. Left
/// positions are assigned by a preorder counter, right after the subtree
/// (extended-preorder containment), level is the depth (root = 1).
std::vector<ElementPos> ComputeRegions(const Document& doc);

}  // namespace prix

#endif  // PRIX_TWIGSTACK_POSITION_STREAM_H_
